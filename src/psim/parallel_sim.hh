/**
 * @file
 * ParallelSim — the conservative-window parallel simulation kernel.
 *
 * The simulated system is split into partitions, laid out by the
 * Simulation's PartitionLayout: one per compute node (the node's
 * cores, caches, TLBs, walkers, OS, DRAM, FAM translator and STU), one
 * per FAM media module (the module's banked NVM plus the AT/ACM
 * traffic it serves), and one for the MemoryBroker (the scheduling
 * context for system-level bookkeeping). Components reach other
 * partitions only through Simulation's kernel seam (send, deliver,
 * atBarrier), whose psim halves call postArbitrated, deliver and
 * postGlobal here. Each partition owns a NodeQueue; a fixed WorkerPool
 * executes all partitions' events for one SyncWindow at a time,
 * entirely without locks, because every cross-partition interaction
 * has a floor latency given by the per-edge lookahead matrix:
 *
 *  - node <-> media: the fabric's one-way latency (request sends from
 *    the STU/E-FAM path, response sends from the media);
 *  - anything <-> broker: the broker's fault service latency.
 *
 * Every window is one WorkerPool epoch. Between windows the
 * coordinator does only what must be serial: fabric sends are
 * *arbitrated* — the shared channel's serialization state
 * (channelFree) is one resource spanning every media partition, so
 * all sends from all sources are merged in (sendTick, srcPartition,
 * seq) order and an Arbiter turns each into a delivery tick,
 * single-threaded — and global barrier ops run. Both append their
 * deliveries to the destination partitions' barrier inboxes; each
 * window task then flushes its own inbox into its queue (the heap
 * pushes run in parallel) before executing the window. The schedule —
 * and therefore every statistic — is byte-identical for any worker
 * count.
 *
 * Windows have a fixed width, the base lookahead (the smallest edge
 * of the matrix): each opens at the global minimum pending tick and
 * ends one base lookahead later, or at the due tick of the next
 * pending global op when that comes first. See DESIGN.md "Parallel
 * kernel" for the safety argument.
 *
 * Operations that must mutate state read concurrently by several
 * partitions (broker fault resolution: the FAM pool allocator, the
 * ACM flat map, a node's system-level page table) run as *global
 * barrier ops*: single-threaded, between windows, ordered by (due
 * tick, srcPartition, seq). They may only mutate quiescent state and
 * schedule events (through deliver()) at or after their due tick; an
 * op runs at the barrier whose window starts at (or after) its due
 * tick, so no partition has executed past the due when it runs. An op
 * posted with due inside its own window (the warmup reset) runs at the
 * next barrier but must not schedule: the queues have already run past
 * its due tick.
 *
 * The parallel schedule is deliberately *not* identical to the serial
 * one (same-tick cross-partition ties resolve by (tick, src, seq)
 * instead of global insertion order, barrier ops quantize to window
 * boundaries, and migrations are due one broker service latency after
 * their threshold) — the contract is determinism across thread counts,
 * with serial mode (threads = 0) untouched. See DESIGN.md "Parallel
 * kernel".
 */

#ifndef FAMSIM_PSIM_PARALLEL_SIM_HH
#define FAMSIM_PSIM_PARALLEL_SIM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "psim/mailbox.hh"
#include "psim/node_queue.hh"
#include "psim/sync_window.hh"
#include "psim/worker_pool.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace famsim {

/** The partitioned, conservatively synchronized event kernel. */
class ParallelSim
{
  public:
    /** "Not inside any partition" marker. */
    static constexpr std::uint32_t kNoPartition = ~std::uint32_t{0};

    /** "No such edge" marker in the lookahead matrix. */
    static constexpr Tick kNever = kTickForever;

    /** Partition roles in the sharded FAM topology. */
    enum class Kind : std::uint8_t { Node = 0, Media = 1, Broker = 2 };

    /**
     * The two latencies of the per-edge lookahead matrix: node<->media
     * edges get the fabric latency, every edge touching the broker the
     * fault service latency; same-kind pairs have no edge (using one
     * is a modeling bug and panics). The partitions themselves come
     * from the Simulation's PartitionLayout.
     */
    struct Topology {
        Tick fabricLookahead = 0; //!< node<->media floor (one-way fabric)
        Tick brokerLookahead = 0; //!< *<->broker floor (fault service)
    };

    /**
     * One partition per entry of @p sim's layout (set beforehand).
     * Binds itself to @p sim (Simulation::parallel()) for its
     * lifetime; unbinds on destruction.
     *
     * @param threads worker threads, caller included (>= 1).
     */
    ParallelSim(Simulation& sim, const Topology& topo, unsigned threads);

    ~ParallelSim();

    ParallelSim(const ParallelSim&) = delete;
    ParallelSim& operator=(const ParallelSim&) = delete;

    [[nodiscard]] Kind
    kindOf(std::uint32_t partition) const
    {
        const PartitionLayout& layout = sim_.partitions();
        if (partition < layout.media(0))
            return Kind::Node;
        if (partition < layout.broker())
            return Kind::Media;
        return Kind::Broker;
    }

    /**
     * Lookahead floor of the (src, dst) edge; kNever when the model
     * never sends on that pair.
     */
    [[nodiscard]] Tick
    lookaheadBetween(std::uint32_t src, std::uint32_t dst) const
    {
        return edge_[static_cast<std::size_t>(kindOf(src))]
                    [static_cast<std::size_t>(kindOf(dst))];
    }

    /** The smallest finite edge lookahead (the base window width). */
    [[nodiscard]] Tick lookahead() const { return window_.lookahead(); }
    [[nodiscard]] std::uint64_t epoch() const { return window_.epoch(); }
    [[nodiscard]] unsigned threads() const { return pool_.threads(); }
    /** WorkerPool epochs run so far: one per window. */
    [[nodiscard]] std::uint64_t poolEpochs() const
    {
        return pool_.epochs();
    }

    [[nodiscard]] EventQueue& queueOf(std::uint32_t partition)
    {
        return parts_[partition]->queue();
    }

    /**
     * Partition the calling thread is currently executing, or
     * kNoPartition outside a window / withPartition scope. Partition
     * queues carry their partition index as the queue id (the serial
     * queue is never published in the thread-local slot).
     */
    [[nodiscard]] static std::uint32_t
    currentPartition()
    {
        const EventQueue* queue = detail::tlsQueueSlot();
        return queue ? queue->id() : kNoPartition;
    }

    /**
     * Run @p fn with @p partition as the calling thread's scheduling
     * context (sim.events(), sim.curTick() resolve to its queue).
     * For pre-run wiring such as Core::start; only valid while the
     * kernel is quiescent.
     */
    template <typename F>
    void
    withPartition(std::uint32_t partition, F&& fn)
    {
        Scope scope(*this, partition);
        fn();
    }

    /**
     * Arbitrated cross-partition send from the calling partition to
     * @p dst: at the next barrier the coordinator merges every queued
     * send in (sendTick, srcPartition, seq) order, asks @p arbiter for
     * the delivery tick on @p channel, checks it against the (src,
     * dst) edge lookahead and queues @p fn in @p dst's inbox. Used for
     * the shared fabric's channel serialization, whose state spans
     * every media partition.
     */
    void postArbitrated(Arbiter& arbiter, unsigned channel,
                        std::uint32_t dst, DeliverFn fn);

    /**
     * Barrier-time schedule (global ops only): run @p fn on partition
     * @p dst at @p when. Goes through @p dst's inbox, behind this
     * barrier's arbitrated deliveries, in call order.
     */
    void deliver(std::uint32_t dst, Tick when, DeliverFn fn);

    /**
     * Global barrier op: at the first barrier whose window start is at
     * or past @p due, run @p fn single-threaded (all workers
     * quiescent), with the broker partition as the scheduling context.
     * Ops run in (due, srcPartition, seq) order. @p fn may mutate
     * otherwise read-shared state; it may schedule events only when
     * @p due respects the poster's outgoing lookahead floor (due >=
     * post tick + the broker edge lookahead, as the broker's fault
     * service guarantees), and then only at ticks >= @p due — no
     * queue has executed past @p due when the op runs. An op posted
     * with due inside its own window (the warmup reset) runs at the
     * next barrier but must not schedule: the queues have already run
     * past its due tick. Only callable from inside a partition (an
     * event or another barrier op).
     */
    void postGlobal(Tick due, std::function<void()> fn);

    /**
     * Drive windows until every queue, inbox and barrier op has
     * drained. @return total events executed across all partitions.
     */
    std::uint64_t run();

  private:
    struct GlobalOp {
        Tick due;
        std::uint32_t src;
        /** Per-source monotonic stamp (never reset, unlike lane
         *  indices) so ops surviving across barriers keep a total
         *  deterministic order. */
        std::uint64_t seq;
        std::function<void()> fn;
    };

    /** One queued arbitrated send (central lane, indexed by source). */
    struct ArbSend {
        Tick sent;
        std::uint32_t dst;
        unsigned channel;
        Arbiter* arbiter;
        DeliverFn fn;
    };

    /**
     * RAII partition context: publishes the partition's queue in the
     * thread-local slot, and clears it even when the guarded callback
     * throws (FAMSIM_ASSERT under ScopedThrowOnError, in tests) — a
     * stale slot would dangle into later runs on the same thread.
     * Also publishes the (partition, phase) context the FAMSIM_CHECK
     * ownership hooks read: Drain/Exec enforce partition exclusivity,
     * Barrier marks the global ops' legal cross-partition section,
     * None (withPartition wiring) enforces nothing.
     */
    class Scope
    {
      public:
        Scope(ParallelSim& psim, std::uint32_t partition,
              check::Phase phase = check::Phase::None)
            : phase_(partition, phase)
        {
            FAMSIM_ASSERT(!detail::tlsQueueSlot(),
                          "nested partition context");
            detail::tlsQueueSlot() = &psim.parts_[partition]->queue();
        }
        ~Scope() { detail::tlsQueueSlot() = nullptr; }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        check::PhaseScope phase_;
    };

    /**
     * The window anchor: the global minimum pending tick over every
     * queue, inbox and barrier op (kForever when fully drained).
     */
    [[nodiscard]] Tick minPendingTick() const;

    /**
     * Due tick of the first barrier op due after @p start (kTickMax if
     * none): the window must end there so the op runs at its own
     * barrier.
     */
    [[nodiscard]] Tick nextGlobalDueAfter(Tick start) const;

    /** Merge and arbitrate every queued send into the destination
     *  inboxes, leaving the lanes empty (coordinator only). */
    void arbitrate();

    void collectGlobalOps();

    /** Run pending global ops with due <= @p start, in order. */
    void runGlobalOpsThrough(Tick start);

    Simulation& sim_;
    SyncWindow window_;
    WorkerPool pool_;
    /** Per-edge lookahead floors, indexed by (src Kind, dst Kind). */
    std::array<std::array<Tick, 3>, 3> edge_{};

    std::vector<std::unique_ptr<NodeQueue>> parts_;

    /** Central arbitration lanes, one per source partition:
     *  single-producer, emptied by the coordinator at every barrier. */
    std::vector<std::vector<ArbSend>> arbIn_;
    /** Arbitration merge scratch: (sent, src, idx), reused. */
    std::vector<std::pair<std::pair<Tick, std::uint32_t>, std::uint32_t>>
        arbScratch_;

    /** Barrier-op lanes, one per source partition; single-producer,
     *  merged at barriers. */
    std::vector<std::vector<GlobalOp>> globalIn_;
    /** Per-lane monotonic sequence stamps. */
    std::vector<std::uint64_t> globalSeq_;
    /** Merged, sorted, not-yet-due barrier ops. */
    std::vector<GlobalOp> pendingGlobal_;
};

} // namespace famsim

#endif // FAMSIM_PSIM_PARALLEL_SIM_HH
