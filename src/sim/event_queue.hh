/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are ordered by (tick, insertion sequence). Ties at the same tick
 * execute in insertion order, which makes multi-component simulations
 * fully deterministic for a given seed and configuration — a property the
 * test suite relies on.
 *
 * Implementation: a 4-ary min-heap of POD entries (tick, sequence,
 * slot index) over an arena of pooled callback slots. Callables are
 * constructed in place in a slot's inline small-buffer storage (heap
 * fallback only for captures larger than Slot::kInlineBytes) and slots
 * are recycled through a free list, so steady-state scheduling performs
 * no allocation at all — unlike the former std::priority_queue of
 * std::function entries, which allocated on every schedule() with a
 * fat capture. The 4-ary layout halves the tree depth of a binary heap
 * and keeps each sift-down's children in one cache line.
 */

#ifndef FAMSIM_SIM_EVENT_QUEUE_HH
#define FAMSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace famsim {

/** Priority queue of callbacks ordered by simulated time. */
class EventQueue
{
  public:
    /** Sentinel limit for run(): execute until the queue drains. */
    static constexpr Tick kForever = kTickForever;

    EventQueue() = default;
    ~EventQueue() { destroyPending(); }

    // Slots hold type-erased callables in raw storage; copying them
    // bitwise would be wrong, and nothing needs to move a queue.
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * Scheduling in the past (before curTick()) is a simulator bug.
     */
    template <typename F>
    void
    schedule(Tick when, F&& cb)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn&>,
                      "event callback must be invocable as void()");
        FAMSIM_CHECK_QUEUE(checkOwner_);
        FAMSIM_ASSERT(when >= now_, "event scheduled in the past: ", when,
                      " < ", now_);
        if constexpr (std::is_constructible_v<bool, const Fn&>)
            FAMSIM_ASSERT(static_cast<bool>(cb), "null event callback");
        std::uint32_t idx = allocSlot();
        Slot& slot = slots_[idx];
        try {
            if constexpr (fitsInline<Fn>()) {
                ::new (static_cast<void*>(slot.storage))
                    Fn(std::forward<F>(cb));
                slot.invoke = &invokeInline<Fn>;
                slot.destroy = &destroyInline<Fn>;
            } else {
                slot.heapObj = new Fn(std::forward<F>(cb));
                slot.invoke = &invokeHeap<Fn>;
                slot.destroy = &destroyHeap<Fn>;
            }
            FAMSIM_ASSERT(seq_ < kMaxSeq, "event sequence space exhausted");
            FAMSIM_ASSERT(idx <= kSlotMask, "event slot space exhausted");
            pushHeap(HeapEntry{when, (seq_++ << kSlotBits) | idx});
        } catch (...) {
            if (slot.destroy) {
                slot.destroy(slot);
                slot.destroy = nullptr;
                slot.invoke = nullptr;
            }
            freeList_.push_back(idx);
            throw;
        }
    }

    /** Schedule @p cb @p delta ticks after the current tick. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F&& cb)
    {
        schedule(now_ + delta, std::forward<F>(cb));
    }

    /** Execute the earliest event. @return false if the queue is empty. */
    bool runOne();

    /**
     * Run events until the queue drains or the tick would exceed
     * @p limit. Events exactly at @p limit still run. With a finite
     * @p limit, curTick() afterwards equals @p limit even if the queue
     * drained before the horizon; with the kForever default, time
     * stays at the last executed event.
     * @return the number of events executed.
     */
    std::uint64_t run(Tick limit = kForever);

    /** Current simulated time (last executed event's tick). */
    [[nodiscard]] Tick curTick() const { return now_; }

    /** Tick of the earliest pending event (kForever when empty). */
    [[nodiscard]] Tick
    nextTick() const
    {
        return heap_.empty() ? kForever : heap_.front().when;
    }

    /**
     * Partition handle (src/psim/): stamped by the owning NodeQueue
     * with its partition index, and how ParallelSim::currentPartition
     * resolves the executing partition from the thread-local queue
     * slot. 0 (the default) on the serial/global queue, which is
     * never published in that slot.
     */
    [[nodiscard]] std::uint32_t id() const { return id_; }
    void setId(std::uint32_t id) { id_ = id; }

    /**
     * Stamp the queue's owning partition for the FAMSIM_CHECK
     * ownership hooks (NodeQueue, at wiring). Unstamped queues (the
     * serial/global queue) are never checked. No-op when the checker
     * is compiled out.
     */
    void
    setCheckOwner(std::uint32_t owner)
    {
#if FAMSIM_CHECK
        checkOwner_ = owner;
#else
        (void)owner;
#endif
    }

    /** Number of pending events. */
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    [[nodiscard]] bool empty() const { return heap_.empty(); }

    /** Total events executed over the queue's lifetime. */
    [[nodiscard]] std::uint64_t executed() const { return executed_; }

    /** Callback slots currently pooled (pending + recyclable). */
    [[nodiscard]] std::size_t pooledSlots() const { return slots_.size(); }

  private:
    /**
     * POD heap entry; the callable lives in slots_[slot & kSlotMask].
     * Sequence (upper 40 bits) and slot (lower 24) share one word so
     * an entry is 16 bytes — two per cache line during sift-down.
     * Comparing the packed word compares the sequence first; sequence
     * numbers are unique, so the slot bits never influence ordering.
     */
    struct HeapEntry {
        Tick when;
        std::uint64_t seqSlot;
    };

    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    static constexpr std::uint64_t kMaxSeq =
        ~std::uint64_t{0} >> kSlotBits;

    /** One pooled callback: SBO storage plus invoke/destroy thunks. */
    struct Slot {
        static constexpr std::size_t kInlineBytes = 64;

        /** Move the callable out, recycle the slot, run it. */
        void (*invoke)(EventQueue&, std::uint32_t) = nullptr;
        /** Destroy in place without calling (queue teardown). */
        void (*destroy)(Slot&) = nullptr;
        void* heapObj = nullptr;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Slot::kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t);
    }

    /**
     * Invoke thunks move the callable OUT of the slot onto the stack
     * and recycle the slot before running it: the slot arena can then
     * be a plain vector (no live slot references during a callback,
     * which may schedule and grow the arena), and a just-drained hot
     * slot is immediately reusable by events the callback schedules.
     */
    template <typename Fn>
    static void
    invokeInline(EventQueue& q, std::uint32_t idx)
    {
        Fn* obj = std::launder(reinterpret_cast<Fn*>(
            q.slots_[idx].storage));
        Fn fn(std::move(*obj));
        obj->~Fn();
        q.freeList_.push_back(idx);
        fn();
    }

    template <typename Fn>
    static void
    destroyInline(Slot& slot)
    {
        std::launder(reinterpret_cast<Fn*>(slot.storage))->~Fn();
    }

    template <typename Fn>
    static void
    invokeHeap(EventQueue& q, std::uint32_t idx)
    {
        Fn* fn = static_cast<Fn*>(q.slots_[idx].heapObj);
        q.freeList_.push_back(idx);
        struct Reaper {
            Fn* fn;
            ~Reaper() { delete fn; }
        } reaper{fn};
        (*fn)();
    }

    template <typename Fn>
    static void
    destroyHeap(Slot& slot)
    {
        delete static_cast<Fn*>(slot.heapObj);
    }

    [[nodiscard]] std::uint32_t
    allocSlot()
    {
        if (!freeList_.empty()) {
            std::uint32_t idx = freeList_.back();
            freeList_.pop_back();
            return idx;
        }
        slots_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    static bool
    earlier(const HeapEntry& a, const HeapEntry& b)
    {
        return a.when < b.when ||
               (a.when == b.when && a.seqSlot < b.seqSlot);
    }

    void pushHeap(HeapEntry entry);
    void popHeap();
    void destroyPending();

    std::vector<HeapEntry> heap_;
    /**
     * Slot arena. A plain vector is safe because invoke thunks move
     * the callable out before running it — no slot reference is live
     * while a callback (which may grow the arena) executes.
     */
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeList_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint32_t id_ = 0;
#if FAMSIM_CHECK
    /** Owning partition for the ownership hooks; kUnowned = unchecked. */
    std::uint32_t checkOwner_ = check::kUnowned;
#endif
};

} // namespace famsim

#endif // FAMSIM_SIM_EVENT_QUEUE_HH
