/**
 * @file
 * One partition of the parallel simulation kernel: a private
 * EventQueue (the timing wheel from src/sim/event_queue.hh) plus its
 * barrier inbox.
 *
 * The inbox holds two lists, both written only between windows, by
 * the coordinator: arrival records for this barrier's arbitrated
 * fabric sends ({delivery tick, source partition, lane index} — the
 * payloads themselves stay in their sources' send lanes), then the
 * global barrier ops' schedules ({delivery tick, payload}). The owning
 * worker flushes both at the start of its next window task, before any
 * local event runs: it moves each arrival's payload straight out of
 * its source's lane into the queue, in record order, then the barrier
 * ops' payloads in append order. No producer touches an inbox while a
 * window executes, so the epoch barrier alone orders the two sides:
 * no locks, no atomics. Because the flush preserves the coordinator's
 * order, the queue's (tick, insertion-sequence) tie-break sees exactly
 * the sequence a direct schedule at the barrier would have produced —
 * one schedule for every worker count.
 */

#ifndef FAMSIM_PSIM_NODE_QUEUE_HH
#define FAMSIM_PSIM_NODE_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "psim/mailbox.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"

namespace famsim {

/** A partition's event queue and barrier inbox. */
class NodeQueue
{
  public:
    /** @param id partition index (also stamped on the queue). */
    explicit NodeQueue(std::uint32_t id) : id_(id)
    {
        queue_.setId(id);
        // Ownership stamp for the FAMSIM_CHECK hooks: the queue
        // belongs to this partition. No-op when compiled out.
        queue_.setCheckOwner(id);
    }

    [[nodiscard]] std::uint32_t id() const { return id_; }
    [[nodiscard]] EventQueue& queue() { return queue_; }
    [[nodiscard]] const EventQueue& queue() const { return queue_; }

    /**
     * Record an arbitrated send for delivery at @p when whose payload
     * waits at index @p idx of partition @p src's send lane
     * (coordinator, between windows only).
     */
    void
    arrive(Tick when, std::uint32_t src, std::uint32_t idx)
    {
        FAMSIM_CHECK_INBOX(id_);
        arrivals_.push_back(Arrival{when, src, idx});
        inboxMin_ = std::min(inboxMin_, when);
    }

    /**
     * Queue @p fn for delivery at @p when, behind this barrier's
     * arrivals (a global barrier op, between windows only).
     */
    void
    deliver(Tick when, DeliverFn fn)
    {
        FAMSIM_CHECK_INBOX(id_);
        inbox_.push_back(Delivery{when, std::move(fn)});
        inboxMin_ = std::min(inboxMin_, when);
    }

    /**
     * Earliest pending tick across the local queue and the inbox.
     * Only meaningful between windows.
     */
    [[nodiscard]] Tick
    minPendingTick() const
    {
        return std::min(queue_.nextTick(), inboxMin_);
    }

    /**
     * Schedule every arrival, then every barrier-op delivery, onto the
     * local queue (owning worker, at the start of its window task).
     * @p payloadOf(src, idx) names an arrival's payload in its source's
     * lane; the flush moves it into the queue and leaves the emptied
     * payload for the source to clear.
     * @return deliveries flushed (the trace's per-partition "drained"
     * counter track).
     */
    template <typename PayloadOf>
    std::uint64_t
    flushInbox(const PayloadOf& payloadOf)
    {
        for (const Arrival& a : arrivals_)
            payloadOf(a.src, a.idx)(queue_, a.when);
        for (Delivery& d : inbox_)
            d.fn(queue_, d.when);
        const auto flushed =
            static_cast<std::uint64_t>(arrivals_.size() + inbox_.size());
        arrivals_.clear();
        inbox_.clear();
        inboxMin_ = EventQueue::kForever;
        return flushed;
    }

  private:
    /** An arbitrated send bound here: where its payload waits. */
    struct Arrival {
        Tick when;
        std::uint32_t src;
        std::uint32_t idx;
    };

    std::uint32_t id_;
    EventQueue queue_;
    std::vector<Arrival> arrivals_;
    std::vector<Delivery> inbox_;
    /** Smallest inbox tick, so the coordinator's window scan reads
     *  one Tick per partition instead of walking the inbox. */
    Tick inboxMin_ = EventQueue::kForever;
};

} // namespace famsim

#endif // FAMSIM_PSIM_NODE_QUEUE_HH
