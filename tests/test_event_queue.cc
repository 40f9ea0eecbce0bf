/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * time-limit semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace famsim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, TiesRunInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    ScopedThrowOnError guard;
    EventQueue q;
    q.schedule(100, [] {});
    q.runOne();
    EXPECT_THROW(q.schedule(50, [] {}), SimError);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    EXPECT_EQ(q.run(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, DrainBeforeHorizonAdvancesToLimit)
{
    EventQueue q;
    q.schedule(10, [] {});
    EXPECT_EQ(q.run(100), 1u);
    // The queue drained at tick 10, but the bounded run simulated
    // through tick 100: relative scheduling continues from there.
    EXPECT_EQ(q.curTick(), 100u);
    Tick fired = 0;
    q.scheduleAfter(5, [&] { fired = q.curTick(); });
    q.run();
    EXPECT_EQ(fired, 105u);
}

TEST(EventQueue, BoundedRunAdvancesPastSkippedEvents)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(200, [] {});
    EXPECT_EQ(q.run(100), 1u);
    EXPECT_EQ(q.curTick(), 100u); // horizon, not the last event
    EXPECT_EQ(q.size(), 1u);      // tick-200 event still pending
    q.run();
    EXPECT_EQ(q.curTick(), 200u);
}

TEST(EventQueue, OpenEndedRunStaysAtLastEvent)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run(); // kForever: must NOT advance time to the sentinel
    EXPECT_EQ(q.curTick(), 10u);
    q.scheduleAfter(1, [] {});
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.curTick(), 11u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            q.scheduleAfter(10, recurse);
    };
    q.schedule(0, recurse);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueue, ExecutedCountsAllEvents)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.executed(), 10u);
}

TEST(EventQueue, SlotPoolIsRecycledNotGrown)
{
    // Steady-state churn must reuse slots via the free list instead of
    // growing the arena: 100k sequential events, bounded pool.
    EventQueue q;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100000)
            q.scheduleAfter(5, chain);
    };
    for (int i = 0; i < 8; ++i)
        q.schedule(static_cast<Tick>(i), chain);
    q.run();
    EXPECT_GE(count, 100000u);
    EXPECT_LE(q.pooledSlots(), 64u);
}

TEST(EventQueue, RandomizedOrderMatchesStableSortReference)
{
    // Property: execution order over a random schedule equals a stable
    // sort of (tick, insertion index). Every tick falls in one wheel
    // bucket, so most inserts land before its tail and the sorted insert
    // must never reorder ties. WheelEdgesMatchStableSortReference
    // covers the heap and the wheel's edges.
    Rng rng(2024);
    EventQueue q;
    std::vector<std::pair<Tick, int>> ref;
    std::vector<int> executed;
    int id = 0;
    for (int i = 0; i < 2000; ++i) {
        Tick when = rng.below(50);
        ref.emplace_back(when, id);
        q.schedule(when, [&executed, id] { executed.push_back(id); });
        ++id;
    }
    q.run();
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(executed.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(executed[i], ref[i].second) << "position " << i;
}

/**
 * Random traffic over the wheel's edges, checked against a reference:
 * the set of pending (tick, insertion id) pairs. Each event schedules
 * up to two more as it runs, so time keeps moving, until a fixed
 * budget of schedules is spent.
 */
class WheelTraffic
{
  public:
    static constexpr Tick kH = EventQueue::kHorizon;
    static constexpr Tick kW = EventQueue::kBucketWidth;

    EventQueue q;
    std::set<std::pair<Tick, int>> pending;
    /** Every schedule in insertion order, and every event as it ran. */
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<int> ran;
    /** Same-tick pairs where a heap event ran just before a wheel one. */
    int heapThenWheelTies = 0;

    /** Schedule one event @p delta ticks ahead, unless out of budget. */
    void
    spawn(Tick delta)
    {
        if (budget_ == 0)
            return;
        --budget_;
        const Tick when = q.curTick() + delta;
        const int id = static_cast<int>(scheduled.size());
        const std::uint64_t heap_before = q.pastHorizon();
        q.schedule(when, Fire{this, when, id});
        inHeap_.push_back(q.pastHorizon() != heap_before);
        scheduled.emplace_back(when, id);
        pending.emplace(when, id);
    }

    /** A uniform draw below @p bound (< 2^32). */
    Tick
    below(Tick bound)
    {
        return rng_.below(static_cast<std::uint32_t>(bound));
    }

    /** A delta from one of the wheel's edge classes. */
    Tick
    delta()
    {
        switch (rng_.below(8)) {
          case 0: return 0;                          // same tick
          case 1: return below(kW);                  // same bucket
          case 2: return 250 * below(64);            // the sim's grid
          case 3: return below(kH);                  // anywhere
          case 4: return kH - kW + below(2 * kW);    // the edge
          case 5: return below(4 * kH);              // past it
          default: break;
        }
        // One of the latest far targets: scheduled past the horizon
        // first, then again from inside it once time has caught up.
        const Tick now = q.curTick();
        if (targets_.empty() || targets_.back() < now || below(8) == 0)
            targets_.push_back(now + kH + kW + below(2 * kH));
        const std::size_t recent = std::min<std::size_t>(targets_.size(), 4);
        const Tick target = targets_[targets_.size() - 1 - below(recent)];
        return target >= now ? target - now : 0;
    }

    void
    fire(Tick when, int id)
    {
        ASSERT_FALSE(pending.empty());
        EXPECT_EQ(*pending.begin(), std::make_pair(when, id));
        EXPECT_EQ(q.curTick(), when);
        pending.erase(std::make_pair(when, id));
        const bool in_heap = inHeap_[static_cast<std::size_t>(id)];
        if (!ran.empty() && lastTick_ == when && lastInHeap_ && !in_heap)
            ++heapThenWheelTies;
        lastTick_ = when;
        lastInHeap_ = in_heap;
        ran.push_back(id);
        const Tick children = below(4) == 0 ? 0 : 1 + (below(3) == 0);
        for (Tick c = 0; c < children; ++c)
            spawn(delta());
    }

    /** nextTick() and size() agree with the reference. */
    void
    check() const
    {
        EXPECT_EQ(q.size(), pending.size());
        EXPECT_EQ(q.nextTick(), pending.empty() ? EventQueue::kForever
                                                : pending.begin()->first);
    }

    [[nodiscard]] bool exhausted() const { return budget_ == 0; }

  private:
    struct Fire {
        WheelTraffic* traffic;
        Tick when;
        int id;
        void operator()() const { traffic->fire(when, id); }
    };

    Rng rng_{2025};
    int budget_ = 40000;
    std::vector<Tick> targets_;
    std::vector<bool> inHeap_;
    Tick lastTick_ = 0;
    bool lastInHeap_ = false;
};

TEST(EventQueue, WheelEdgesMatchStableSortReference)
{
    // Deltas from 0 to several horizons, same-tick ties split between
    // the heap and the wheel, and bounded runs that jump more than a
    // horizon so the cursor wraps; nextTick() and size() are checked
    // after every step.
    WheelTraffic d;
    for (int i = 0; i < 64; ++i)
        d.spawn(d.delta());
    d.check();
    int long_jumps = 0;
    while (!d.pending.empty() || !d.exhausted()) {
        const Tick now = d.q.curTick();
        const Tick action = d.below(10);
        if (action < 2) {
            // Bounded run; one in four jumps past a whole horizon.
            const Tick jump = d.below(4) == 0
                                  ? WheelTraffic::kH +
                                        d.below(3 * WheelTraffic::kH)
                                  : d.below(WheelTraffic::kH);
            const std::size_t before = d.ran.size();
            d.q.run(now + jump);
            EXPECT_EQ(d.q.curTick(), now + jump);
            if (!d.pending.empty()) {
                EXPECT_GT(d.pending.begin()->first, now + jump);
            }
            if (jump >= WheelTraffic::kH && d.ran.size() > before)
                ++long_jumps;
        } else if (action == 2 || d.pending.empty()) {
            d.spawn(d.delta());
        } else {
            EXPECT_TRUE(d.q.runOne());
        }
        d.check();
        if (::testing::Test::HasFailure())
            break;
    }

    std::vector<std::pair<Tick, int>> ref = d.scheduled;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(d.ran.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(d.ran[i], ref[i].second) << "position " << i;
    // Every edge was actually exercised.
    EXPECT_GT(d.q.pastHorizon(), 100u);
    EXPECT_LT(d.q.pastHorizon(), d.scheduled.size());
    EXPECT_GT(d.heapThenWheelTies, 0);
    EXPECT_GT(long_jumps, 0);
}

TEST(EventQueue, TeardownDestroysEventsPendingInWheelAndHeap)
{
    // Captures own memory, so a missed destroy is a leak the ASan job
    // reports; the shared count shows it in every build.
    auto alive = std::make_shared<int>(0);
    {
        EventQueue q;
        for (Tick t : {Tick{0}, Tick{7}, Tick{300},
                       EventQueue::kHorizon - 1, 2 * EventQueue::kHorizon,
                       5 * EventQueue::kHorizon}) {
            q.schedule(t, [token = alive, p = std::make_unique<int>(1)] {
                (void)token;
            });
        }
        EXPECT_EQ(q.pastHorizon(), 2u);
        EXPECT_TRUE(q.runOne());
        EXPECT_EQ(q.size(), 5u);
        EXPECT_EQ(alive.use_count(), 6);
    }
    EXPECT_EQ(alive.use_count(), 1);
}

TEST(EventQueue, MoveOnlyCallablesAreAccepted)
{
    EventQueue q;
    auto payload = std::make_unique<int>(41);
    int got = 0;
    q.schedule(3, [p = std::move(payload), &got] { got = *p + 1; });
    q.run();
    EXPECT_EQ(got, 42);
}

} // namespace
} // namespace famsim
