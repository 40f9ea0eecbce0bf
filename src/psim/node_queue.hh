/**
 * @file
 * One partition of the parallel simulation kernel: a private
 * EventQueue (the timing wheel from src/sim/event_queue.hh) plus its
 * barrier inbox.
 *
 * The inbox is written only between windows, by the coordinator
 * (arbitrated fabric deliveries, then global barrier ops' schedules,
 * in that order), and flushed by the owning worker at the start of
 * its next window task, in append order, before any local event runs.
 * No producer touches an inbox while a window executes, so the epoch
 * barrier alone orders the two sides: no locks, no atomics, no double
 * buffering. Because the flush preserves the coordinator's append
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
     * Queue @p fn for delivery at @p when (coordinator, between
     * windows only).
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
     * Schedule every inbox delivery onto the local queue, in append
     * order (owning worker, at the start of its window task).
     * @return deliveries flushed (the trace's per-partition "drained"
     * counter track).
     */
    std::uint64_t
    flushInbox()
    {
        for (Delivery& d : inbox_)
            d.fn(queue_, d.when);
        const auto flushed = static_cast<std::uint64_t>(inbox_.size());
        inbox_.clear();
        inboxMin_ = EventQueue::kForever;
        return flushed;
    }

  private:
    std::uint32_t id_;
    EventQueue queue_;
    std::vector<Delivery> inbox_;
    /** Smallest inbox tick, so the coordinator's window scan reads
     *  one Tick per partition instead of walking the inbox. */
    Tick inboxMin_ = EventQueue::kForever;
};

} // namespace famsim

#endif // FAMSIM_PSIM_NODE_QUEUE_HH
