/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are ordered by (tick, insertion sequence). Ties at the same tick
 * execute in insertion order, which makes multi-component simulations
 * fully deterministic for a given seed and configuration — a property the
 * test suite relies on.
 *
 * Implementation: a timing wheel for the near future plus a 4-ary heap
 * for the rest, over an arena of pooled callback slots.
 *
 * - The wheel has kBuckets buckets of kBucketWidth ticks and covers the
 *   kHorizon ticks ahead of the current bucket. Each bucket is a list of
 *   slot indices in (tick, insertion) order, so the common schedule is
 *   an append at the tail. A two-level occupancy bitmap finds the next
 *   non-empty bucket with two countr_zero calls.
 * - An event past the horizon goes into the heap, keyed by (tick,
 *   sequence). It stays there even once time catches up with it.
 * - A pop takes the earlier of the wheel's head and the heap's top. On
 *   a tick tie the heap's event was scheduled first (see enqueue), so
 *   the order is exactly (tick, insertion sequence).
 *
 * Callables are constructed in place in a slot's 64-byte inline storage
 * (a larger capture is a compile error), and slots are recycled through
 * a free list, so steady-state scheduling performs no allocation. An
 * event's key and list link live in a separate array beside the slots.
 */

#ifndef FAMSIM_SIM_EVENT_QUEUE_HH
#define FAMSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
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

    /** log2 of a wheel bucket's width in ticks. */
    static constexpr unsigned kBucketBits = 8;
    /** log2 of the number of wheel buckets. */
    static constexpr unsigned kWheelBits = 12;
    /** Ticks one wheel bucket spans. */
    static constexpr Tick kBucketWidth = Tick{1} << kBucketBits;
    /** Ticks the wheel covers, from the current bucket on (~1.05 µs). */
    static constexpr Tick kHorizon = Tick{1}
                                     << (kBucketBits + kWheelBits);

    EventQueue();
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
        static_assert(sizeof(Fn) <= Slot::kInlineBytes &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "event capture exceeds Slot::storage");
        FAMSIM_CHECK_QUEUE(checkOwner_);
        FAMSIM_ASSERT(when >= now_, "event scheduled in the past: ", when,
                      " < ", now_);
        if constexpr (std::is_constructible_v<bool, const Fn&>)
            FAMSIM_ASSERT(static_cast<bool>(cb), "null event callback");
        std::uint32_t idx = allocSlot();
        Slot& slot = slots_[idx];
        try {
            ::new (static_cast<void*>(slot.storage))
                Fn(std::forward<F>(cb));
        } catch (...) {
            freeList_.push_back(idx);
            throw;
        }
        slot.invoke = &invokeSlot<Fn>;
        slot.destroy = &destroySlot<Fn>;
        enqueue(when, idx);
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
    [[nodiscard]] Tick nextTick() const { return peek().when; }

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
    [[nodiscard]] std::size_t size() const { return size_; }

    [[nodiscard]] bool empty() const { return size_ == 0; }

    /** Total events executed over the queue's lifetime. */
    [[nodiscard]] std::uint64_t executed() const { return executed_; }

    /**
     * Schedules that landed past the wheel's horizon, in the heap,
     * over the queue's lifetime. Deterministic for a given run.
     */
    [[nodiscard]] std::uint64_t pastHorizon() const { return pastHorizon_; }

    /** Callback slots currently pooled (pending + recyclable). */
    [[nodiscard]] std::size_t pooledSlots() const { return slots_.size(); }

  private:
    static constexpr std::uint32_t kBuckets = 1u << kWheelBits;
    static constexpr std::uint32_t kBucketMask = kBuckets - 1;
    static constexpr unsigned kWords = kBuckets / 64;
    static_assert(kWords <= 64, "one summary word covers the bitmap");
    /** End of a bucket list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    /** peek() result: the earliest event is the heap's top. */
    static constexpr std::uint32_t kInHeap = kBuckets;

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

    /** One pooled callback: inline storage plus invoke/destroy thunks. */
    struct Slot {
        static constexpr std::size_t kInlineBytes = 64;

        /** Move the callable out, recycle the slot, run it. */
        void (*invoke)(EventQueue&, std::uint32_t) = nullptr;
        /** Destroy in place without calling; null once not pending. */
        void (*destroy)(Slot&) = nullptr;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    /** A wheel event's tick and the next slot of its bucket's list. */
    struct Link {
        Tick when;
        std::uint32_t next;
    };

    /** First and last slot of a non-empty bucket's list. */
    struct Bucket {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Where the earliest pending event is, and its tick. */
    struct Next {
        Tick when;
        /** Wheel bucket index, or kInHeap. */
        std::uint32_t bucket;
    };

    /**
     * Invoke thunks move the callable OUT of the slot onto the stack
     * and recycle the slot before running it: the slot arena can then
     * be a plain vector (no live slot references during a callback,
     * which may schedule and grow the arena), and a just-drained hot
     * slot is immediately reusable by events the callback schedules.
     */
    template <typename Fn>
    static void
    invokeSlot(EventQueue& q, std::uint32_t idx)
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
    destroySlot(Slot& slot)
    {
        std::launder(reinterpret_cast<Fn*>(slot.storage))->~Fn();
    }

    [[nodiscard]] std::uint32_t
    allocSlot()
    {
        if (!freeList_.empty()) {
            std::uint32_t idx = freeList_.back();
            freeList_.pop_back();
            return idx;
        }
        FAMSIM_ASSERT(slots_.size() <= kSlotMask,
                      "event slot space exhausted");
        slots_.emplace_back();
        links_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    [[nodiscard]] bool
    occupied(std::uint32_t bucket) const
    {
        return (occupied_[bucket / 64] >> (bucket % 64)) & 1;
    }

    static bool
    earlier(const HeapEntry& a, const HeapEntry& b)
    {
        return a.when < b.when ||
               (a.when == b.when && a.seqSlot < b.seqSlot);
    }

    /** File slot @p idx under @p when: the wheel, or past it the heap. */
    void enqueue(Tick when, std::uint32_t idx);
    void insertSorted(Bucket& bucket, std::uint32_t idx);
    /** Index of the first non-empty bucket at or after the cursor. */
    [[nodiscard]] std::uint32_t nextBucket() const;
    [[nodiscard]] Next peek() const;
    /** Take the event peek() returned off its structure and run it. */
    void execute(Next next);
    void pushHeap(HeapEntry entry);
    void popHeap();
    void destroyPending();

    /** Bucket heads and tails; read only where occupied_ is set. */
    std::unique_ptr<Bucket[]> buckets_;
    /** One bit per bucket: the bucket's list is non-empty. */
    std::uint64_t occupied_[kWords] = {};
    /** One bit per occupied_ word: the word is non-zero. */
    std::uint64_t summary_ = 0;
    std::vector<HeapEntry> heap_;
    /**
     * Slot arena. A plain vector is safe because invoke thunks move
     * the callable out before running it — no slot reference is live
     * while a callback (which may grow the arena) executes.
     */
    std::vector<Slot> slots_;
    /** Per-slot wheel key and link, parallel to slots_. */
    std::vector<Link> links_;
    std::vector<std::uint32_t> freeList_;
    Tick now_ = 0;
    std::size_t size_ = 0;
    /** Heap insertions so far; also the next heap entry's sequence. */
    std::uint64_t pastHorizon_ = 0;
    std::uint64_t executed_ = 0;
    std::uint32_t id_ = 0;
#if FAMSIM_CHECK
    /** Owning partition for the ownership hooks; kUnowned = unchecked. */
    std::uint32_t checkOwner_ = check::kUnowned;
#endif
};

} // namespace famsim

#endif // FAMSIM_SIM_EVENT_QUEUE_HH
