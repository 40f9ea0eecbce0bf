/**
 * @file
 * Partition-ownership checker (the FAMSIM_CHECK build option).
 *
 * The parallel kernel's correctness rests on an ownership discipline:
 * a partition's event queue, its plain (non-atomic) statistics and its
 * send lanes are written only by the worker currently executing that
 * partition, its barrier inbox (arrival records and barrier-op
 * deliveries) only by the coordinator between windows, and every
 * cross-partition interaction goes through an arbitrated send or a
 * barrier op. The one cross-partition touch inside a window is the
 * drain's: a destination moves its arrivals' payloads out of their
 * sources' previous-parity lanes, which no source writes that window.
 * TSan can
 * catch a violation only when the scheduler happens to overlap the two
 * touches; this checker tags each guarded object with its owning
 * partition at wiring time, tracks the calling thread's (partition,
 * phase) context in the worker loop, and panics at the exact violating
 * access — identically on every run, at any thread count, including 1.
 *
 * Phase rules (see DESIGN.md "Correctness tooling"):
 *  - None (serial mode, wiring, coordinator sections, post-run reads):
 *    everything is allowed; there is no concurrency to race with.
 *  - Barrier (global barrier ops): all workers are quiescent and the
 *    coordinator runs single-threaded in a deterministic order, so
 *    cross-partition touches are legal by design.
 *  - Drain / Exec (the inbox flush and the execution that follows it,
 *    inside one window task): a thread may only touch state owned by
 *    the partition it is executing, and may not push an arrival record
 *    or a delivery into any inbox. During Drain, message payloads may
 *    be moved (out of the source lanes or the inbox, into the queue)
 *    but never run or destroyed, so packet-pool traffic is
 *    additionally banned; the sources destroy their moved-out
 *    payloads when they next reuse the lane.
 *
 * SharedCounter and JobStatTable are deliberately untagged: their
 * relaxed-atomic adds are order-independent sums, safe and
 * deterministic from any partition. Objects never stamped with an
 * owner (serial-only fixtures, the fabric's barrier-bumped stats) are
 * never checked.
 *
 * With FAMSIM_CHECK off every hook compiles to nothing and every
 * guarded object carries zero extra bytes.
 */

#ifndef FAMSIM_SIM_CHECK_HH
#define FAMSIM_SIM_CHECK_HH

#include <cstdint>
#include <string>

namespace famsim {
namespace check {

/** "No owner stamped" / "no partition context" marker. */
inline constexpr std::uint32_t kUnowned = ~std::uint32_t{0};

/** The calling thread's position in the window protocol. */
enum class Phase : std::uint8_t {
    None = 0,    //!< serial mode, wiring, coordinator serial sections
    Barrier = 1, //!< global ops: workers quiescent
    Drain = 2,   //!< inbox flush at the start of a window task
    Exec = 3,    //!< window execution
};

[[nodiscard]] const char* toString(Phase phase);

#if FAMSIM_CHECK

/** Thread-local accessor context published by the worker loop. */
struct Context {
    std::uint32_t partition = kUnowned;
    Phase phase = Phase::None;
};

[[nodiscard]] inline Context&
ctx()
{
    static thread_local Context context;
    return context;
}

/**
 * RAII (partition, phase) context, save/restore so barrier-op
 * callbacks nested under a coordinator scope unwind correctly.
 * Published by ParallelSim's worker loop alongside the thread-local
 * queue slot.
 */
class PhaseScope
{
  public:
    PhaseScope(std::uint32_t partition, Phase phase) : saved_(ctx())
    {
        ctx() = Context{partition, phase};
    }
    ~PhaseScope() { ctx() = saved_; }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

  private:
    Context saved_;
};

/**
 * The partition that owns objects currently being wired, kUnowned
 * outside any WiringScope. Read by StatRegistry when a statistic is
 * first created, so per-partition components stamp their stats without
 * threading an owner argument through every constructor.
 */
[[nodiscard]] inline std::uint32_t&
wiringOwnerSlot()
{
    static thread_local std::uint32_t owner = kUnowned;
    return owner;
}

/** RAII wiring-owner context (nests; System stamps per node/module). */
class WiringScope
{
  public:
    explicit WiringScope(std::uint32_t owner) : saved_(wiringOwnerSlot())
    {
        wiringOwnerSlot() = owner;
    }
    ~WiringScope() { wiringOwnerSlot() = saved_; }
    WiringScope(const WiringScope&) = delete;
    WiringScope& operator=(const WiringScope&) = delete;

  private:
    std::uint32_t saved_;
};

/**
 * Ownership tag carried by each guarded statistic. The name points at
 * the registry's map key (node-based std::map: stable for the
 * registry's lifetime) so the failure diagnostic can say which stat.
 */
struct Tag {
    std::uint32_t owner = kUnowned;
    const std::string* name = nullptr;
};

[[noreturn]] void failAccess(const Tag& tag, const char* what);
[[noreturn]] void failQueue(std::uint32_t owner);
[[noreturn]] void failInbox(std::uint32_t owner);
[[noreturn]] void failPacketPool();

/** True when the current phase enforces partition exclusivity. */
[[nodiscard]] inline bool
enforced(Phase phase)
{
    return phase == Phase::Drain || phase == Phase::Exec;
}

/** Hook: mutation of a tagged statistic. */
inline void
access(const Tag& tag, const char* what)
{
    if (tag.owner == kUnowned)
        return;
    const Context& c = ctx();
    if (enforced(c.phase) && c.partition != tag.owner)
        failAccess(tag, what);
}

/** Hook: EventQueue::schedule on a queue owned by @p owner. */
inline void
queueSchedule(std::uint32_t owner)
{
    if (owner == kUnowned)
        return;
    const Context& c = ctx();
    if (enforced(c.phase) && c.partition != owner)
        failQueue(owner);
}

/**
 * Hook: NodeQueue::arrive or deliver into partition @p owner's inbox.
 * Inboxes are written only between windows, so any push from inside a
 * window task fatals, even one into the executing partition's own
 * inbox.
 */
inline void
inboxPush(std::uint32_t owner)
{
    if (enforced(ctx().phase))
        failInbox(owner);
}

/**
 * Hook: packet pool alloc/recycle. Pools are thread-local (no race is
 * possible), but pool traffic during the Drain phase means a message
 * payload was run or destroyed while being flushed — a violation of
 * the discipline that lets a flush only move payloads into the queue.
 */
inline void
packetPoolOp()
{
    if (ctx().phase == Phase::Drain)
        failPacketPool();
}

#else // !FAMSIM_CHECK

// Zero-overhead stubs: empty scopes, no thread-locals, no tag bytes.
class PhaseScope
{
  public:
    PhaseScope(std::uint32_t, Phase) {}
};

class WiringScope
{
  public:
    explicit WiringScope(std::uint32_t) {}
};

#endif // FAMSIM_CHECK

} // namespace check
} // namespace famsim

/**
 * Hook macros: the guarded classes call these so their tag members can
 * be compiled out entirely (the macro arguments are discarded
 * unevaluated when FAMSIM_CHECK is off).
 */
#if FAMSIM_CHECK
#define FAMSIM_CHECK_STAT(tag, what) ::famsim::check::access(tag, what)
#define FAMSIM_CHECK_QUEUE(owner) ::famsim::check::queueSchedule(owner)
#define FAMSIM_CHECK_INBOX(owner) ::famsim::check::inboxPush(owner)
#define FAMSIM_CHECK_PACKET_POOL() ::famsim::check::packetPoolOp()
#else
#define FAMSIM_CHECK_STAT(tag, what) ((void)0)
#define FAMSIM_CHECK_QUEUE(owner) ((void)0)
#define FAMSIM_CHECK_INBOX(owner) ((void)0)
#define FAMSIM_CHECK_PACKET_POOL() ((void)0)
#endif

#endif // FAMSIM_SIM_CHECK_HH
