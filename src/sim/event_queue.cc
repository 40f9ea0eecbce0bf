#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

namespace famsim {

EventQueue::EventQueue()
    : buckets_(std::make_unique_for_overwrite<Bucket[]>(kBuckets))
{
}

void
EventQueue::enqueue(Tick when, std::uint32_t idx)
{
    // Bucket distance from the cursor, now_'s bucket. Time never moves
    // back, so the distance to a given tick only shrinks: every event
    // that missed the wheel was scheduled before every wheel event of
    // the same tick, which is why peek() breaks ties for the heap.
    if ((when >> kBucketBits) - (now_ >> kBucketBits) >= kBuckets) {
        FAMSIM_ASSERT(pastHorizon_ < kMaxSeq,
                      "event sequence space exhausted");
        pushHeap(HeapEntry{when, (pastHorizon_ << kSlotBits) | idx});
        ++pastHorizon_;
        ++size_;
        return;
    }
    const auto b =
        static_cast<std::uint32_t>(when >> kBucketBits) & kBucketMask;
    links_[idx] = Link{when, kNil};
    Bucket& bucket = buckets_[b];
    if (!occupied(b)) {
        bucket = Bucket{idx, idx};
        occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
        summary_ |= std::uint64_t{1} << (b / 64);
    } else if (links_[bucket.tail].when <= when) {
        links_[bucket.tail].next = idx;
        bucket.tail = idx;
    } else {
        insertSorted(bucket, idx);
    }
    ++size_;
}

void
EventQueue::insertSorted(Bucket& bucket, std::uint32_t idx)
{
    // The event is earlier than the bucket's tail: it goes after every
    // event at or before its tick, all of which were scheduled first.
    // The tail stops the walk, so it never reaches kNil.
    const Tick when = links_[idx].when;
    std::uint32_t* link = &bucket.head;
    while (links_[*link].when <= when)
        link = &links_[*link].next;
    links_[idx].next = *link;
    *link = idx;
}

std::uint32_t
EventQueue::nextBucket() const
{
    // Every wheel event lies in the kBuckets buckets from the cursor on,
    // so the first occupied bucket in circular order from the cursor
    // holds the earliest one. Try the cursor's word from the cursor up,
    // then the words after it, then wrap to the lowest occupied word
    // (the cursor's own word again, if only bits below it are left).
    const auto cur =
        static_cast<std::uint32_t>(now_ >> kBucketBits) & kBucketMask;
    const std::uint32_t word = cur / 64;
    if (const std::uint64_t bits = occupied_[word] >> (cur % 64))
        return cur + static_cast<std::uint32_t>(std::countr_zero(bits));
    const std::uint64_t later = (summary_ >> word) >> 1;
    const auto next = static_cast<std::uint32_t>(
        later ? word + 1 + std::countr_zero(later)
              : std::countr_zero(summary_));
    return next * 64 +
           static_cast<std::uint32_t>(std::countr_zero(occupied_[next]));
}

EventQueue::Next
EventQueue::peek() const
{
    Next next{kForever, kInHeap};
    if (!heap_.empty())
        next.when = heap_.front().when;
    if (summary_ != 0) {
        const std::uint32_t b = nextBucket();
        const Tick when = links_[buckets_[b].head].when;
        // On a tick tie the heap's event goes first (see enqueue).
        if (heap_.empty() || when < next.when)
            next = Next{when, b};
    }
    return next;
}

void
EventQueue::execute(Next next)
{
    std::uint32_t idx;
    if (next.bucket == kInHeap) {
        idx = static_cast<std::uint32_t>(heap_.front().seqSlot & kSlotMask);
        popHeap();
    } else {
        Bucket& bucket = buckets_[next.bucket];
        idx = bucket.head;
        bucket.head = links_[idx].next;
        if (bucket.head == kNil) {
            const std::uint32_t word = next.bucket / 64;
            occupied_[word] &= ~(std::uint64_t{1} << (next.bucket % 64));
            if (occupied_[word] == 0)
                summary_ &= ~(std::uint64_t{1} << word);
        }
    }
    --size_;
    now_ = next.when;
    ++executed_;
    Slot& slot = slots_[idx];
    const auto invoke = slot.invoke;
    slot.destroy = nullptr;
    // The thunk moves the callable out, recycles the slot, then runs
    // it — see the thunk comment in the header.
    invoke(*this, idx);
}

void
EventQueue::pushHeap(HeapEntry entry)
{
    // Hole-based sift-up: parent of i is (i-1)/4.
    std::size_t i = heap_.size();
    heap_.push_back(entry); // grow; the slot is overwritten below
    while (i > 0) {
        std::size_t parent = (i - 1) >> 2;
        if (!earlier(entry, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

void
EventQueue::popHeap()
{
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty())
        return;
    // Hole-based sift-down from the root: children of i are
    // 4i+1 .. 4i+4 — the four 16-byte entries of one level share
    // a single 64-byte cache line.
    std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

bool
EventQueue::runOne()
{
    if (size_ == 0)
        return false;
    execute(peek());
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    // One peek per event: the bucket it locates is the one execute()
    // pops from.
    std::uint64_t count = 0;
    while (size_ != 0) {
        const Next next = peek();
        if (next.when > limit)
            break;
        execute(next);
        ++count;
    }
    // A bounded run simulates *through* the horizon: even if the queue
    // drained early (or only holds later events), time advances to the
    // limit so a subsequent scheduleAfter is relative to the horizon,
    // not to the last executed event. The open-ended default runs to
    // completion and leaves time at the last event's tick.
    if (limit != kForever && now_ < limit)
        now_ = limit;
    return count;
}

void
EventQueue::destroyPending()
{
    // A slot is pending, in the wheel or the heap, exactly while its
    // destroy thunk is set.
    for (Slot& slot : slots_) {
        if (slot.destroy)
            slot.destroy(slot);
    }
}

} // namespace famsim
