/**
 * @file
 * Cross-partition message types of the parallel simulation kernel.
 *
 * Every cross-partition event reaches its destination through that
 * partition's barrier inbox, which the coordinator fills between
 * windows and the owning worker flushes into its own queue at the
 * start of its next window task. Two producers feed the inboxes, both
 * on the coordinator. The arbitration of fabric sends (an Arbiter
 * turns each send into a delivery tick) appends only an arrival record
 * {tick, source partition, lane index} (NodeQueue::arrive): the
 * continuation waits in its source's send lane, and the destination's
 * flush moves it from there straight into its queue. Global barrier
 * ops append {delivery tick, continuation} (NodeQueue::deliver).
 *
 * Payloads are InlineFunction, not std::function: std::function's
 * 16-byte inline buffer heap-allocated once per fabric crossing for
 * every delivery capture bigger than a pointer. Every continuation (a
 * component pointer plus a packet handle, or an STU done-functor)
 * fits the kMailboxInlineBytes budget in place, and one that does not
 * fails to compile. A payload that owns a packet carries it across
 * partitions; the window barriers between the send, the arbitration
 * and the flush order that handoff like any other payload.
 * makeDelivery() keeps the continuation's concrete type, so the flush
 * schedules it straight into the event queue's pooled slots instead of
 * nesting one type-erased wrapper inside another.
 */

#ifndef FAMSIM_PSIM_MAILBOX_HH
#define FAMSIM_PSIM_MAILBOX_HH

#include <cstddef>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace famsim {

/** Inline capture budget for cross-partition message payloads. */
inline constexpr std::size_t kMailboxInlineBytes = 144;

/** Schedules a continuation onto its destination queue at a tick. */
using DeliverFn =
    InlineFunction<void(EventQueue&, Tick), kMailboxInlineBytes>;

/** Wrap continuation @p cb (invocable as void()) as a DeliverFn. */
template <typename F>
[[nodiscard]] DeliverFn
makeDelivery(F&& cb)
{
    return DeliverFn([cb = std::decay_t<F>(std::forward<F>(cb))](
                         EventQueue& queue, Tick when) mutable {
        queue.schedule(when, std::move(cb));
    });
}

/** A continuation waiting in an inbox with its delivery tick. */
struct Delivery {
    Tick when = 0;
    DeliverFn fn;
};

/**
 * A shared resource that serializes arbitrated sends (the fabric's
 * channels). The coordinator calls arbitrate() single-threaded, in
 * (sendTick, srcPartition, seq) order across every source, so the
 * resource's state needs no lock and evolves identically for any
 * worker count.
 */
class Arbiter
{
  public:
    /**
     * Account one send on @p channel that left its source at @p sent;
     * @return its delivery tick (>= sent + the edge lookahead).
     */
    virtual Tick arbitrate(unsigned channel, Tick sent) = 0;

  protected:
    ~Arbiter() = default;
};

} // namespace famsim

#endif // FAMSIM_PSIM_MAILBOX_HH
