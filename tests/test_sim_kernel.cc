/**
 * @file
 * Unit tests for the simulation kernel beyond the event queue:
 * statistics, RNG determinism, typed addresses, logging modes, and the
 * serial half of Simulation's kernel seam.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace famsim {
namespace {

// ---------------------------------------------------------------- stats

TEST(Stats, CounterAccumulatesAndResets)
{
    StatRegistry reg;
    Counter& c = reg.counter("a.b", "test");
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    EXPECT_DOUBLE_EQ(reg.get("a.b"), 6.0);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, ReRegisteringReturnsSameCounter)
{
    StatRegistry reg;
    Counter& a = reg.counter("x", "first");
    Counter& b = reg.counter("x", "second");
    EXPECT_EQ(&a, &b);
}

TEST(Stats, TypeMismatchPanics)
{
    ScopedThrowOnError guard;
    StatRegistry reg;
    reg.counter("x", "counter");
    EXPECT_THROW(reg.histogram("x", "histogram"), SimError);
    EXPECT_THROW(reg.sharedCounter("x", "shared"), SimError);
    EXPECT_THROW(reg.jobTable("x", "table", 2), SimError);
}

TEST(Stats, UnknownStatPanics)
{
    ScopedThrowOnError guard;
    StatRegistry reg;
    EXPECT_THROW((void)reg.get("nope"), SimError);
    EXPECT_FALSE(reg.has("nope"));
}

TEST(Stats, GetResolvesHistogramMeanAndRejectsJobTables)
{
    ScopedThrowOnError guard;
    StatRegistry reg;
    Histogram& h = reg.histogram("lat", "a histogram", 10, 4);
    h.sample(5);
    h.sample(15);
    EXPECT_DOUBLE_EQ(reg.get("lat"), 10.0);
    // A per-job table has no single value; get() must panic rather
    // than silently pick a slot.
    reg.jobTable("per_job", "a table", 2).add(0, 3);
    EXPECT_THROW((void)reg.get("per_job"), SimError);
}

TEST(Stats, SumMatchingAddsSuffixes)
{
    StatRegistry reg;
    reg.counter("node0.l3.misses", "") += 3;
    reg.counter("node1.l3.misses", "") += 4;
    reg.counter("node0.l3.hits", "") += 100;
    EXPECT_DOUBLE_EQ(reg.sumMatching(".l3.misses"), 7.0);
}

TEST(Stats, HistogramMeanMaxAndSaturation)
{
    Histogram h(10, 4); // buckets [0,10) [10,20) [20,30) [30,inf)
    h.sample(5);
    h.sample(15);
    h.sample(1000); // saturates into the last bucket
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_NEAR(h.mean(), 340.0, 1e-9);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Stats, PercentilesExactForUnitBuckets)
{
    // bucket_width 1: every bucket holds exactly one value, so the
    // nearest-rank percentile is exact (the contract obsHistogram's
    // latency breakdowns rely on for narrow distributions).
    Histogram h(1, 101);
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.p50(), 50u);
    EXPECT_EQ(h.p95(), 95u);
    EXPECT_EQ(h.p99(), 99u);
    EXPECT_EQ(h.percentile(0.01), 1u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Stats, PercentilesQuantizeToBucketLowerEdge)
{
    Histogram h(10, 4); // [0,10) [10,20) [20,30) [30,inf)
    h.sample(5);
    h.sample(15);
    h.sample(25);
    h.sample(1000); // saturates into the last bucket
    EXPECT_EQ(h.p50(), 10u);  // rank 2 lands in the [10,20) bucket
    EXPECT_EQ(h.p99(), 30u);  // rank 4: the saturation bucket's edge
    EXPECT_EQ(h.percentile(0.25), 0u);
}

TEST(Stats, PercentilesOfEmptyHistogramAreZero)
{
    Histogram h(10, 4);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p95(), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Stats, PercentileFlavorAddsKeysOnlyWhereRegistered)
{
    // The plain histogram JSON shape is golden-pinned; only the
    // histogramWithPercentiles flavor may carry the p50/p95/p99 keys.
    StatRegistry reg;
    reg.histogram("plain.lat", "plain", 1, 4).sample(2);
    reg.histogramWithPercentiles("obs.lat", "flagged", 1, 4).sample(2);
    const std::string json = reg.jsonString();
    const std::size_t plain = json.find("plain.lat");
    const std::size_t obs = json.find("obs.lat");
    ASSERT_NE(plain, std::string::npos);
    ASSERT_NE(obs, std::string::npos);
    // obs.lat sorts before plain.lat; its percentile keys must appear
    // between the two names, and none after plain.lat.
    const std::size_t p50 = json.find("\"p50\": 2");
    ASSERT_NE(p50, std::string::npos);
    EXPECT_LT(obs, p50);
    EXPECT_LT(p50, plain);
    EXPECT_EQ(json.find("\"p50\"", plain), std::string::npos);
    EXPECT_NE(json.find("\"p95\": 2", obs), std::string::npos);
    EXPECT_NE(json.find("\"p99\": 2", obs), std::string::npos);
}

TEST(Stats, DumpContainsNamesAndValues)
{
    StatRegistry reg;
    reg.counter("alpha", "the alpha stat") += 42;
    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    EXPECT_NE(csv.str().find("alpha,42"), std::string::npos);
}

TEST(Stats, JsonDumpIsValidAndSorted)
{
    StatRegistry reg;
    reg.counter("zeta.count", "a counter") += 7;
    reg.jobTable("alpha.jobs", "a job table", 2).add(1, 3);
    reg.histogram("mid.lat", "a histogram", 10, 2).sample(15);

    const std::string json = reg.jsonString();
    EXPECT_NE(json.find("\"zeta.count\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"alpha.jobs\": [0, 3]"), std::string::npos);
    EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\": [0, 1]"), std::string::npos);
    // Map iteration order: alpha before mid before zeta.
    EXPECT_LT(json.find("alpha.jobs"), json.find("mid.lat"));
    EXPECT_LT(json.find("mid.lat"), json.find("zeta.count"));
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
}

TEST(Stats, JsonEscapesStrings)
{
    std::ostringstream os;
    json::writeString(os, "a\"b\\c\nd");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Stats, JsonNumbersRoundTripShortest)
{
    auto str = [](double v) {
        std::ostringstream os;
        json::writeNumber(os, v);
        return os.str();
    };
    EXPECT_EQ(str(0.0), "0");
    EXPECT_EQ(str(1.25), "1.25");
    EXPECT_EQ(str(-3.5), "-3.5");
    // 0.1 is not exactly representable; shortest round-trip is "0.1".
    EXPECT_EQ(str(0.1), "0.1");
    // Non-finite values have no JSON spelling; null substitutes.
    EXPECT_EQ(str(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(str(std::nan("")), "null");
}

TEST(Stats, EmptyRegistryJsonIsEmptyObject)
{
    StatRegistry reg;
    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(os.str(), "{}");
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123, 1), b(123, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsAreIndependent)
{
    Rng a(123, 1), b(123, 2);
    bool any_diff = false;
    for (int i = 0; i < 32; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        EXPECT_LT(rng.below64(1000003), 1000003u);
    }
}

TEST(Rng, BelowPow2FastPathMatchesSingleMaskedDraw)
{
    // For power-of-two bounds the debiased-modulo scheme always took
    // exactly one draw and reduced it with % == &. The fast path must
    // return the identical value from the identical single draw.
    for (std::uint32_t bound : {1u, 2u, 8u, 64u, 4096u, 1u << 31}) {
        Rng a(55, 3), b(55, 3);
        for (int i = 0; i < 200; ++i)
            EXPECT_EQ(a.below(bound), b.next() & (bound - 1))
                << "bound " << bound;
    }
    Rng a(56, 4), b(56, 4);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.below64(1ull << 40), b.next64() & ((1ull << 40) - 1));
}

TEST(Rng, ZeroBoundPanics)
{
    ScopedThrowOnError guard;
    Rng rng(7);
    EXPECT_THROW(rng.below(0), SimError);
    EXPECT_THROW(rng.below64(0), SimError);
}

TEST(Rng, FastBound32MatchesBelowDrawForDraw)
{
    for (std::uint32_t bound : {1u, 3u, 48u, 64u, 12288u, 999983u}) {
        FastBound32 fast(bound);
        Rng a(77, 9), b(77, 9);
        for (int i = 0; i < 500; ++i)
            EXPECT_EQ(fast.sample(a), b.below(bound)) << "bound " << bound;
    }
}

TEST(Rng, FastBound32ModIsExact)
{
    Rng rng(31);
    for (std::uint32_t bound : {3u, 7u, 48u, 12288u, 999983u}) {
        FastBound32 fast(bound);
        for (int i = 0; i < 2000; ++i) {
            std::uint32_t r = rng.next();
            EXPECT_EQ(fast.mod(r), r % bound) << r << " % " << bound;
        }
    }
}

TEST(Rng, FastBound32ZeroBoundPanicsInsteadOfDividing)
{
    ScopedThrowOnError guard;
    EXPECT_THROW(FastBound32(0), SimError);
}

// ------------------------------------------------------------- flat map

TEST(FlatMap, BasicInsertFindErase)
{
    U64FlatMap<int> map;
    EXPECT_TRUE(map.empty());
    map[7] = 70;
    map[0] = 1; // key 0 must be a legal key
    auto [it, inserted] = map.try_emplace(7);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(it->second, 70);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.find(0)->second, 1);
    EXPECT_EQ(map.erase(7), 1u);
    EXPECT_EQ(map.erase(7), 0u);
    EXPECT_TRUE(map.find(7) == map.end());
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps)
{
    U64FlatMap<int> flat;
    std::map<std::uint64_t, int> ref;
    Rng rng(404);
    for (int step = 0; step < 50000; ++step) {
        std::uint64_t key = rng.below(512);
        switch (rng.below(3)) {
          case 0:
            flat[key] = step;
            ref[key] = step;
            break;
          case 1: {
            auto it = flat.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it == flat.end(), rit == ref.end()) << step;
            if (rit != ref.end()) {
                ASSERT_EQ(it->second, rit->second) << step;
            }
            break;
          }
          default:
            ASSERT_EQ(flat.erase(key), ref.erase(key)) << step;
        }
    }
    EXPECT_EQ(flat.size(), ref.size());
    std::size_t seen = 0;
    for (const auto& [key, value] : flat) {
        ASSERT_EQ(ref.at(key), value);
        ++seen;
    }
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatMap, EraseKeepsWrappedProbeRunsReachable)
{
    // Dense keys at the load limit (up to 10 live in 16 slots, 43 in
    // 64) make long probe runs that wrap past the table's last slot,
    // so backward-shift erases move entries across the wrap. After
    // every erase, every key must still be found and the iteration
    // must hold exactly the live entries.
    for (std::uint64_t range : {10u, 43u}) {
        U64FlatMap<int> flat;
        std::map<std::uint64_t, int> ref;
        Rng rng(range);
        for (int step = 0; step < 20000; ++step) {
            std::uint64_t key = rng.below(range);
            if (rng.below(4) != 0) { // mostly inserts: keep the load high
                flat[key] = step;
                ref[key] = step;
                continue;
            }
            ASSERT_EQ(flat.erase(key), ref.erase(key)) << step;
            for (std::uint64_t k = 0; k < range; ++k) {
                auto it = flat.find(k);
                auto rit = ref.find(k);
                ASSERT_EQ(it == flat.end(), rit == ref.end())
                    << "key " << k << " after step " << step;
                if (rit != ref.end()) {
                    ASSERT_EQ(it->second, rit->second) << step;
                }
            }
            std::map<std::uint64_t, int> iterated;
            for (const auto& [k, v] : flat)
                ASSERT_TRUE(iterated.emplace(k, v).second) << k;
            ASSERT_EQ(iterated, ref) << step;
            ASSERT_EQ(flat.size(), ref.size()) << step;
        }
        // The table never grew past the load limit's capacity.
        EXPECT_EQ(flat.capacity(), range == 10 ? 16u : 64u);
    }
}

TEST(FlatMap, ChurnDoesNotGrowCapacityUnbounded)
{
    // Regression: tombstones once counted toward the load factor and
    // every rehash doubled, so MSHR-style insert/erase churn grew the
    // table to O(total ops). Capacity must stay proportional to the
    // live entry count.
    U64FlatMap<int> map;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        map[i] = 1;
        if (i >= 3)
            map.erase(i - 3); // never more than 4 live entries
    }
    EXPECT_LE(map.size(), 4u);
    EXPECT_LE(map.capacity(), 64u);
}

TEST(Rng, UniformCoversRange)
{
    Rng rng(9);
    double min = 1.0, max = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        min = std::min(min, u);
        max = std::max(max, u);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    EXPECT_LT(min, 0.05);
    EXPECT_GT(max, 0.95);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

// -------------------------------------------------------------- types

TEST(TypedAddr, PageMathIsCorrect)
{
    NPAddr a(0x12345678);
    EXPECT_EQ(a.pageNumber(), 0x12345678u >> 12);
    EXPECT_EQ(a.pageOffset(), 0x678u);
    EXPECT_EQ(a.blockAddr().value(), 0x12345640u);
    EXPECT_EQ(a.alignDown(kPageSize).value(), 0x12345000u);
    EXPECT_EQ((a + 8).value(), 0x12345680u);
}

TEST(TypedAddr, ComparesAndHashes)
{
    FamAddr a(100), b(100), c(200);
    EXPECT_EQ(a, b);
    EXPECT_LT(a, c);
    EXPECT_EQ(std::hash<FamAddr>{}(a), std::hash<FamAddr>{}(b));
}

TEST(TypedAddr, StreamsWithSpaceTag)
{
    std::ostringstream os;
    os << VAddr(0x10) << " " << NPAddr(0x20) << " " << FamAddr(0x30);
    EXPECT_EQ(os.str(), "V:0x10 NP:0x20 FAM:0x30");
}

// ------------------------------------------------------------- logging

TEST(Logging, PanicThrowsUnderGuard)
{
    ScopedThrowOnError guard;
    EXPECT_THROW(FAMSIM_PANIC("boom ", 42), SimError);
    EXPECT_THROW(FAMSIM_FATAL("bad config"), SimError);
}

TEST(Logging, AssertPassesAndFails)
{
    ScopedThrowOnError guard;
    FAMSIM_ASSERT(1 + 1 == 2, "fine");
    EXPECT_THROW(FAMSIM_ASSERT(false, "nope"), SimError);
}

// ---------------------------------------------------------- simulation

TEST(Simulation, ComponentsRegisterPrefixedStats)
{
    Simulation sim;

    class Widget : public Component
    {
      public:
        Widget(Simulation& sim) : Component(sim, "widget")
        {
            statCounter("events", "count") += 3;
        }
    } widget(sim);

    EXPECT_DOUBLE_EQ(sim.stats().get("widget.events"), 3.0);
    EXPECT_EQ(widget.name(), "widget");
}

TEST(Simulation, RunAdvancesTime)
{
    Simulation sim;
    int fired = 0;
    sim.events().schedule(5 * kNanosecond, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.curTick(), 5 * kNanosecond);
}

// -------------------------------------------- kernel seam, serial half

TEST(KernelSeam, LayoutPlacesNodesThenMediaThenBroker)
{
    ScopedThrowOnError guard;
    Simulation sim;
    EXPECT_TRUE(sim.partitions().empty());
    sim.setPartitions(PartitionLayout(2, 3));
    const PartitionLayout& layout = sim.partitions();
    EXPECT_EQ(layout.node(1), 1u);
    EXPECT_EQ(layout.media(0), 2u);
    EXPECT_EQ(layout.media(2), 4u);
    EXPECT_EQ(layout.broker(), 5u);
    EXPECT_EQ(layout.count(), 6u);
    EXPECT_THROW(sim.setPartitions(PartitionLayout(1, 1)), SimError)
        << "the layout is set once";
}

/**
 * On the serial kernel a barrier op at now runs in place, a later one
 * runs as an ordinary event at its tick (after the events already
 * queued there), and deliver() from inside it runs in place.
 */
TEST(KernelSeam, SerialBarrierOpsAndDeliveriesRunInPlace)
{
    Simulation sim;
    std::vector<std::string> order;
    auto note = [&](const std::string& what) {
        order.push_back(what + "@" + std::to_string(sim.curTick()));
    };
    sim.events().schedule(20, [&] { note("queued"); });
    sim.events().schedule(10, [&] {
        sim.atBarrier(sim.curTick(), [&] { note("barrier-now"); });
        note("after-now");
        sim.atBarrier(20, [&] {
            note("barrier-later");
            sim.deliver(3, sim.curTick(), [&] { note("delivered"); });
            note("after-deliver");
        });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "barrier-now@10", "after-now@10", "queued@20",
                         "barrier-later@20", "delivered@20",
                         "after-deliver@20"}));
}

/** A serial deliver() off the barrier op's tick is a caller bug. */
TEST(KernelSeam, SerialDeliveryOffTheBarrierTickPanics)
{
    ScopedThrowOnError guard;
    Simulation sim;
    sim.events().schedule(10, [&] {
        EXPECT_THROW(sim.deliver(0, 20, [] {}), SimError);
    });
    sim.run();
}

/** On the serial kernel send() accounts the transmission at once and
 *  schedules the continuation at the tick the arbiter returns. */
TEST(KernelSeam, SerialSendSchedulesAtTheArbitersTick)
{
    struct Recorder : Arbiter {
        std::vector<std::pair<unsigned, Tick>> sends;
        Tick
        arbitrate(unsigned channel, Tick sent) override
        {
            sends.emplace_back(channel, sent);
            return sent + 40;
        }
    } arbiter;
    Simulation sim;
    Tick arrived = 0;
    sim.events().schedule(10, [&] {
        sim.send(arbiter, 1, /*dst=*/7, [&] { arrived = sim.curTick(); });
        EXPECT_EQ(arbiter.sends.size(), 1u) << "accounted at the send";
    });
    sim.run();
    EXPECT_EQ(arbiter.sends,
              (std::vector<std::pair<unsigned, Tick>>{{1, 10}}));
    EXPECT_EQ(arrived, 50u);
    // One thread runs every partition: it is on all of them.
    EXPECT_TRUE(sim.onPartition(0));
    EXPECT_TRUE(sim.onPartition(5));
}

} // namespace
} // namespace famsim
