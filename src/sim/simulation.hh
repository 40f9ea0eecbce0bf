/**
 * @file
 * The Simulation object: event queue + statistics + seed, the context
 * every component is constructed against — and the kernel seam.
 *
 * famsim has two kernels: the serial one (one global EventQueue, the
 * golden-pinned reference) and the partitioned parallel kernel
 * (src/psim/, "psim"), which cuts the system into partitions along the
 * hardware's seams: one per compute node, one per FAM media module and
 * one for the broker. The partition layout lives here (partitions(),
 * set once by System), and so do the only three calls through which a
 * component reaches another partition:
 *
 *  - send(): a fabric transmission, accounted by an Arbiter;
 *  - deliver(): a barrier op's schedule onto another partition;
 *  - atBarrier(): work that mutates state several partitions read.
 *
 * Each has its serial and its psim implementation side by side, so
 * components never ask which kernel runs them. Everything else a
 * component does stays inside its own partition: events() and
 * curTick() resolve through a thread-local slot to the partition queue
 * the calling worker is draining under psim, and to the global queue
 * on the serial kernel.
 */

#ifndef FAMSIM_SIM_SIMULATION_HH
#define FAMSIM_SIM_SIMULATION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "psim/mailbox.hh" // leaf header: Arbiter and DeliverFn only
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace famsim {

class ParallelSim; // src/psim/parallel_sim.hh
class Profiler;    // src/sim/profiler.hh
class TraceSink;   // src/sim/trace_sink.hh

namespace detail {

/**
 * The partition queue the calling thread is currently draining, or
 * null on the serial path. A function-local thread_local with constant
 * initialization keeps the access to one TLS load — cheap enough for
 * the schedule()/curTick() hot paths.
 */
[[nodiscard]] inline EventQueue*&
tlsQueueSlot()
{
    static thread_local EventQueue* queue = nullptr;
    return queue;
}

} // namespace detail

/**
 * The partition layout of a system: compute nodes [0, nodes), then FAM
 * media modules, then the broker last. psim runs one queue per
 * partition; both kernels stamp component ownership (the FAMSIM_CHECK
 * hooks) and name trace lanes by it. Default-constructed it is empty:
 * fixtures that build components without a System leave it so.
 */
class PartitionLayout
{
  public:
    PartitionLayout() = default;
    PartitionLayout(std::uint32_t nodes, std::uint32_t media_modules)
        : nodes_(nodes), media_(media_modules)
    {
    }

    [[nodiscard]] bool empty() const { return nodes_ == 0; }
    [[nodiscard]] std::uint32_t nodes() const { return nodes_; }
    [[nodiscard]] std::uint32_t mediaModules() const { return media_; }

    /** Partition of compute node @p n. */
    [[nodiscard]] std::uint32_t node(std::uint32_t n) const { return n; }
    /** Partition of FAM media module @p m. */
    [[nodiscard]] std::uint32_t media(std::uint32_t m) const
    {
        return nodes_ + m;
    }
    /** The broker partition: home of system-level bookkeeping. */
    [[nodiscard]] std::uint32_t broker() const { return nodes_ + media_; }
    /** Partitions in all (= trace lanes). */
    [[nodiscard]] std::uint32_t count() const { return broker() + 1; }

  private:
    std::uint32_t nodes_ = 0;
    std::uint32_t media_ = 0;
};

/**
 * Owns the global simulation state. Not copyable; components hold a
 * reference and must not outlive it.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1) : seed_(seed) {}

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /**
     * The queue the caller should schedule on: the partition queue the
     * calling worker is draining (partitioned mode), else the serial
     * global queue.
     */
    [[nodiscard]] EventQueue&
    events()
    {
        EventQueue* queue = detail::tlsQueueSlot();
        return queue ? *queue : events_;
    }

    /** The serial global queue, regardless of execution context. */
    [[nodiscard]] EventQueue& serialEvents() { return events_; }

    [[nodiscard]] StatRegistry& stats() { return stats_; }
    [[nodiscard]] const StatRegistry& stats() const { return stats_; }

    /** Current tick of the calling thread's execution context. */
    [[nodiscard]] Tick
    curTick() const
    {
        const EventQueue* queue = detail::tlsQueueSlot();
        return queue ? queue->curTick() : events_.curTick();
    }

    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /** The partition layout (empty until setPartitions). */
    [[nodiscard]] const PartitionLayout& partitions() const
    {
        return partitions_;
    }

    /** Set the partition layout, once, before any partition runs. */
    void
    setPartitions(const PartitionLayout& layout)
    {
        FAMSIM_ASSERT(partitions_.empty() && !parallel_,
                      "the partition layout is set once, before a run");
        FAMSIM_ASSERT(layout.nodes() >= 1 && layout.mediaModules() >= 1,
                      "a partition layout needs nodes and media modules");
        partitions_ = layout;
    }

    /**
     * The active parallel kernel, or null on the serial path. Bound by
     * ParallelSim for its lifetime; only the kernel seam below, psim
     * itself and System's run ask (tools/lint_determinism.py,
     * kernel-seam).
     */
    [[nodiscard]] ParallelSim* parallel() const { return parallel_; }
    void setParallel(ParallelSim* parallel) { parallel_ = parallel; }

    // -- the kernel seam ---------------------------------------------

    /**
     * Transmit @p fn toward partition @p dst over a channel that
     * @p arbiter serializes (the fabric). Serial: account the send now
     * (arbiter.arbitrate(channel, curTick())) and schedule @p fn at the
     * tick it returns. psim: post it to the arbitration lane; the
     * coordinator arbitrates every send in (sendTick, srcPartition,
     * seq) order at the next barrier and delivers @p fn into @p dst's
     * inbox. Templated on the arbiter so the serial path calls it
     * directly, and on @p fn so a big capture goes straight into the
     * event queue's slot.
     */
    template <typename A, typename F>
    void
    send(A& arbiter, unsigned channel, std::uint32_t dst, F&& fn)
    {
        static_assert(std::is_base_of_v<Arbiter, A>);
        if (!parallel_) {
            const Tick when = arbiter.arbitrate(channel, curTick());
            events().schedule(when, std::forward<F>(fn));
            return;
        }
        postArbitrated(arbiter, channel, dst,
                       makeDelivery(std::forward<F>(fn)));
    }

    /**
     * From a barrier op (atBarrier), run @p fn on partition @p dst at
     * @p when, the op's due tick or later. Serial: an op runs as an
     * ordinary event at its due tick, so @p fn runs in place (@p when
     * must be now; so it is for callers outside a run, such as setup).
     * psim: @p fn goes into @p dst's inbox, behind the barrier's
     * arbitrated deliveries, in call order.
     */
    template <typename F>
    void
    deliver(std::uint32_t dst, Tick when, F&& fn)
    {
        if (!parallel_) {
            FAMSIM_ASSERT(when == curTick(), "serial delivery at ", when,
                          " off the barrier op's tick ", curTick());
            fn();
            return;
        }
        postDelivery(dst, when, makeDelivery(std::forward<F>(fn)));
    }

    /**
     * Run @p fn at @p due (>= now) with every partition quiescent: the
     * hook for work that mutates state several partitions read
     * lock-free (broker fault resolution, migrations, the warmup
     * reset). Serial: in place when @p due is now, else an event at
     * @p due. psim: a global barrier op (ParallelSim::postGlobal),
     * which runs at the first barrier at or past @p due, in (due,
     * srcPartition, seq) order; it may schedule onto other partitions
     * only through deliver(), at ticks >= @p due.
     */
    void
    atBarrier(Tick due, std::function<void()> fn)
    {
        if (parallel_) {
            postGlobal(due, std::move(fn));
        } else if (due == curTick()) {
            fn();
        } else {
            events().schedule(due, std::move(fn));
        }
    }

    /**
     * Whether the calling thread runs partition @p partition's events:
     * always on the serial kernel, which runs every partition on one
     * queue; under psim only inside that partition's window task (or
     * withPartition scope). For ownership asserts.
     */
    [[nodiscard]] bool
    onPartition(std::uint32_t partition) const
    {
        if (!parallel_)
            return true;
        const EventQueue* queue = detail::tlsQueueSlot();
        return queue && queue->id() == partition;
    }

    /**
     * Run @p fn with @p partition as the scheduling context, for
     * pre-run wiring such as Core::start: under psim its schedules
     * land on that partition's queue. Serial: one context, so @p fn
     * just runs.
     */
    template <typename F>
    void
    withPartition(std::uint32_t partition, F&& fn)
    {
        if (!parallel_) {
            fn();
            return;
        }
        runInPartition(partition, [&fn] { fn(); });
    }

    /**
     * Run the bound kernel until it drains. Serial: the global queue,
     * until it drains or @p limit. psim: windows until every queue,
     * inbox and barrier op has drained (no limit). @return events
     * executed.
     */
    std::uint64_t run(Tick limit = EventQueue::kForever);

    /**
     * The attached trace sink, or null (the near-universal case). Every
     * emit site is a null check plus an inline category test, so an
     * unattached sink costs one predictable branch (see DESIGN.md
     * "Observability layer"). Attached by System::attachTrace.
     */
    [[nodiscard]] TraceSink* trace() const { return trace_; }
    void setTrace(TraceSink* trace) { trace_ = trace; }

    /** The attached wall-clock profiler, or null. */
    [[nodiscard]] Profiler* profiler() const { return profiler_; }
    void setProfiler(Profiler* profiler) { profiler_ = profiler; }

    /**
     * Whether the latency-breakdown statistics are enabled
     * (SystemConfig::observability). Off by default so the registry —
     * and with it every pre-existing golden — is bit-identical to a
     * build without the observability layer.
     */
    [[nodiscard]] bool observability() const { return observability_; }
    void setObservability(bool on) { observability_ = on; }

  private:
    // The psim halves of the seam, out of line (simulation.cc) so
    // this header stays independent of the kernel proper.
    void postArbitrated(Arbiter& arbiter, unsigned channel,
                        std::uint32_t dst, DeliverFn fn);
    void postDelivery(std::uint32_t dst, Tick when, DeliverFn fn);
    void postGlobal(Tick due, std::function<void()> fn);
    void runInPartition(std::uint32_t partition,
                        InlineFunction<void(), 16> fn);

    std::uint64_t seed_;
    EventQueue events_;
    StatRegistry stats_;
    PartitionLayout partitions_;
    ParallelSim* parallel_ = nullptr;
    TraceSink* trace_ = nullptr;
    Profiler* profiler_ = nullptr;
    bool observability_ = false;
};

/**
 * Base class for named simulated components.
 *
 * Provides the hierarchical name used to register statistics and a
 * convenience statistics accessor.
 */
class Component
{
  public:
    Component(Simulation& sim, std::string name)
        : sim_(sim), name_(std::move(name))
    {
    }

    virtual ~Component() = default;

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] Simulation& sim() { return sim_; }

  protected:
    /** Register a counter under this component's name prefix. */
    Counter&
    statCounter(const std::string& leaf, const std::string& desc)
    {
        return sim_.stats().counter(name_ + "." + leaf, desc);
    }

    /** Register a thread-shared counter under this component's prefix. */
    SharedCounter&
    statSharedCounter(const std::string& leaf, const std::string& desc)
    {
        return sim_.stats().sharedCounter(name_ + "." + leaf, desc);
    }

    /** Register a histogram under this component's name prefix. */
    Histogram&
    statHistogram(const std::string& leaf, const std::string& desc,
                  std::uint64_t bucket_width = 1, std::size_t buckets = 16)
    {
        return sim_.stats().histogram(name_ + "." + leaf, desc,
                                      bucket_width, buckets);
    }

    /**
     * Register an observability-gated latency-breakdown histogram
     * (with JSON percentiles): returns null when
     * Simulation::observability() is off, in which case nothing enters
     * the registry — sample sites guard on the pointer. Keeps every
     * pre-existing golden bit-identical with observability disabled.
     */
    Histogram*
    obsHistogram(const std::string& leaf, const std::string& desc,
                 std::uint64_t bucket_width = 1, std::size_t buckets = 16)
    {
        if (!sim_.observability())
            return nullptr;
        return &sim_.stats().histogramWithPercentiles(
            name_ + "." + leaf, desc, bucket_width, buckets);
    }

    /** Register a per-job counter table under this component's prefix. */
    JobStatTable&
    statJobTable(const std::string& leaf, const std::string& desc,
                 unsigned jobs)
    {
        return sim_.stats().jobTable(name_ + "." + leaf, desc, jobs);
    }

    Simulation& sim_;

  private:
    std::string name_;
};

} // namespace famsim

#endif // FAMSIM_SIM_SIMULATION_HH
