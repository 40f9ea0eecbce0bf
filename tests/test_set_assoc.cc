/**
 * @file
 * Unit and property tests for the generic set-associative cache,
 * parameterized over every replacement policy.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "cache/set_assoc.hh"
#include "sim/rng.hh"

namespace famsim {
namespace {

/**
 * Naive reference model of the pre-SoA tag store: an explicit array of
 * fat lines with timestamps for recency and the same RNG draw
 * discipline (one below(ways) per replacement decision).
 * The SoA rewrite must match it decision-for-decision.
 */
class ReferenceCache
{
  public:
    struct Evicted {
        std::uint64_t key;
        int value;
    };

    ReferenceCache(std::size_t sets, std::size_t ways, ReplPolicy policy,
                   std::uint64_t seed)
        : sets_(sets), ways_(ways), policy_(policy), lines_(sets * ways),
          rng_(seed, 0x5e77)
    {
    }

    int*
    lookup(std::uint64_t key)
    {
        Line* line = find(key);
        if (!line)
            return nullptr;
        touch(line);
        return &line->value;
    }

    const int*
    probe(std::uint64_t key) const
    {
        const Line* line = const_cast<ReferenceCache*>(this)->find(key);
        return line ? &line->value : nullptr;
    }

    std::optional<Evicted>
    insert(std::uint64_t key, int value)
    {
        std::size_t set = key % sets_;
        std::uint64_t tag = key / sets_;
        Line* free_line = nullptr;
        for (std::size_t w = 0; w < ways_; ++w) {
            Line& line = lines_[set * ways_ + w];
            if (line.valid && line.tag == tag) {
                line.value = value;
                touch(&line);
                return std::nullopt;
            }
            if (!line.valid && !free_line)
                free_line = &line;
        }
        Line* victim = free_line ? free_line : pickVictim(set);
        std::optional<Evicted> evicted;
        if (victim->valid)
            evicted = Evicted{victim->tag * sets_ + set, victim->value};
        victim->valid = true;
        victim->tag = tag;
        victim->value = value;
        touch(victim);
        return evicted;
    }

    bool
    invalidate(std::uint64_t key)
    {
        Line* line = find(key);
        if (!line)
            return false;
        drop(*line);
        return true;
    }

    void
    invalidateAll()
    {
        for (auto& line : lines_)
            drop(line);
    }

    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t count = 0;
        for (auto& line : lines_) {
            if (line.valid && pred(line.value)) {
                drop(line);
                ++count;
            }
        }
        return count;
    }

    [[nodiscard]] std::size_t
    countValid() const
    {
        std::size_t n = 0;
        for (const auto& line : lines_)
            n += line.valid ? 1 : 0;
        return n;
    }

  private:
    struct Line {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        int value = 0;
    };

    Line*
    find(std::uint64_t key)
    {
        std::size_t set = key % sets_;
        std::uint64_t tag = key / sets_;
        for (std::size_t w = 0; w < ways_; ++w) {
            Line& line = lines_[set * ways_ + w];
            if (line.valid && line.tag == tag)
                return &line;
        }
        return nullptr;
    }

    void
    drop(Line& line)
    {
        line.valid = false;
        line.lastUse = 0;
    }

    void
    touch(Line* line)
    {
        line->lastUse = ++useClock_;
    }

    Line*
    pickVictim(std::size_t set)
    {
        Line* base = &lines_[set * ways_];
        switch (policy_) {
          case ReplPolicy::Random:
            return base + rng_.below(static_cast<std::uint32_t>(ways_));
          case ReplPolicy::Lru:
          default: {
            Line* victim = base;
            for (std::size_t w = 1; w < ways_; ++w) {
                if (base[w].lastUse < victim->lastUse)
                    victim = base + w;
            }
            return victim;
          }
        }
    }

    std::size_t sets_;
    std::size_t ways_;
    ReplPolicy policy_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    Rng rng_;
};

TEST(SetAssoc, HitAfterInsert)
{
    SetAssocCache<int> cache(4, 2);
    cache.insert(10, 99);
    ASSERT_NE(cache.lookup(10), nullptr);
    EXPECT_EQ(*cache.lookup(10), 99);
    EXPECT_EQ(cache.lookup(11), nullptr);
}

TEST(SetAssoc, InsertOverwritesExistingKey)
{
    SetAssocCache<int> cache(4, 2);
    cache.insert(10, 1);
    auto evicted = cache.insert(10, 2);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(*cache.lookup(10), 2);
    EXPECT_EQ(cache.countValid(), 1u);
}

TEST(SetAssoc, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache<int> cache(1, 2, ReplPolicy::Lru);
    cache.insert(1, 1);
    cache.insert(2, 2);
    cache.lookup(1); // make key 2 the LRU
    auto evicted = cache.insert(3, 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 2u);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(SetAssoc, ProbeDoesNotUpdateRecency)
{
    SetAssocCache<int> cache(1, 2, ReplPolicy::Lru);
    cache.insert(1, 1);
    cache.insert(2, 2);
    cache.probe(1); // must NOT refresh key 1
    auto evicted = cache.insert(3, 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 1u);
}

TEST(SetAssoc, InvalidateRemovesEntry)
{
    SetAssocCache<int> cache(4, 2);
    cache.insert(10, 1);
    EXPECT_TRUE(cache.invalidate(10));
    EXPECT_EQ(cache.lookup(10), nullptr);
    EXPECT_FALSE(cache.invalidate(10));
}

TEST(SetAssoc, InvalidateAllEmptiesCache)
{
    SetAssocCache<int> cache(4, 4);
    for (std::uint64_t k = 0; k < 16; ++k)
        cache.insert(k, 1);
    EXPECT_EQ(cache.countValid(), 16u);
    cache.invalidateAll();
    EXPECT_EQ(cache.countValid(), 0u);
}

TEST(SetAssoc, InvalidateIfSelectsByValue)
{
    SetAssocCache<int> cache(4, 4);
    for (std::uint64_t k = 0; k < 8; ++k)
        cache.insert(k, static_cast<int>(k % 2));
    EXPECT_EQ(cache.invalidateIf([](int v) { return v == 1; }), 4u);
    EXPECT_EQ(cache.countValid(), 4u);
}

TEST(SetAssoc, InvalidationStormLeavesNoReplacementResidue)
{
    // A cache that was filled and fully shot down must behave exactly
    // like a fresh cache from then on: identical eviction decisions
    // for an identical access sequence.
    SetAssocCache<int> fresh(1, 4, ReplPolicy::Lru);
    SetAssocCache<int> stormed(1, 4, ReplPolicy::Lru);
    for (std::uint64_t k = 100; k < 104; ++k)
        stormed.insert(k, 0);
    stormed.invalidateAll();

    for (std::uint64_t k = 0; k < 4; ++k) {
        fresh.insert(k, static_cast<int>(k));
        stormed.insert(k, static_cast<int>(k));
    }
    for (std::uint64_t k = 4; k < 12; ++k) {
        fresh.lookup(k % 3);
        stormed.lookup(k % 3);
        auto a = fresh.insert(k, static_cast<int>(k));
        auto b = stormed.insert(k, static_cast<int>(k));
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << k;
        if (a.has_value()) {
            EXPECT_EQ(a->key, b->key) << "step " << k;
        }
    }
}

TEST(SetAssoc, KeysMapToDistinctSets)
{
    // Keys differing only above the set bits must not evict each other
    // in different sets.
    SetAssocCache<int> cache(8, 1);
    for (std::uint64_t k = 0; k < 8; ++k)
        cache.insert(k, static_cast<int>(k));
    EXPECT_EQ(cache.countValid(), 8u);
}

TEST(SetAssoc, TranslationCacheReplacementAblation)
{
    // The §5 ablation: the in-DRAM FAM translation cache replaces a
    // random way, so a hit writes no recency state back to DRAM. On
    // that cache's geometry and a two-tier page stream (80 % of
    // accesses to 40k hot pages, the rest over 400k), random costs
    // about one point of hit rate against exact LRU.
    auto hitRate = [](ReplPolicy policy) {
        SetAssocCache<std::uint64_t> cache(16384, 4, policy, 1);
        Rng rng(7);
        const int total = 200000;
        int hits = 0;
        for (int i = 0; i < total; ++i) {
            std::uint64_t page = rng.chance(0.8) ? rng.below(40000)
                                                 : rng.below64(400000);
            if (cache.lookup(page))
                ++hits;
            else
                cache.insert(page, page);
        }
        return static_cast<double>(hits) / total;
    };
    EXPECT_DOUBLE_EQ(hitRate(ReplPolicy::Lru), 0.611925);
    EXPECT_DOUBLE_EQ(hitRate(ReplPolicy::Random), 0.602095);
}

class SetAssocPolicyTest : public ::testing::TestWithParam<ReplPolicy>
{
};

TEST_P(SetAssocPolicyTest, CapacityNeverExceeded)
{
    SetAssocCache<int> cache(8, 4, GetParam(), 1);
    for (std::uint64_t k = 0; k < 1000; ++k)
        cache.insert(k * 7919, 1);
    EXPECT_LE(cache.countValid(), cache.capacity());
}

TEST_P(SetAssocPolicyTest, ResidentSetBehavesUnderChurn)
{
    // A small resident set accessed every step must survive mostly
    // intact for LRU; random may evict it occasionally but the cache
    // must remain consistent.
    SetAssocCache<int> cache(4, 4, GetParam(), 1);
    std::set<std::uint64_t> resident{0, 1, 2, 3};
    for (std::uint64_t r : resident)
        cache.insert(r, 1);
    std::uint64_t hits = 0, total = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        for (std::uint64_t r : resident) {
            ++total;
            if (cache.lookup(r))
                ++hits;
            else
                cache.insert(r, 1);
        }
        cache.insert(1000 + i, 2); // churn
    }
    double hit_rate =
        static_cast<double>(hits) / static_cast<double>(total);
    if (GetParam() == ReplPolicy::Lru)
        EXPECT_GT(hit_rate, 0.95);
    else
        EXPECT_GT(hit_rate, 0.5);
}

TEST_P(SetAssocPolicyTest, EvictedEntriesReportTheirKey)
{
    SetAssocCache<int> cache(1, 2, GetParam(), 1);
    cache.insert(0, 10);
    cache.insert(1, 11);
    auto evicted = cache.insert(2, 12);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->key == 0 || evicted->key == 1);
    EXPECT_EQ(evicted->value, evicted->key == 0 ? 10 : 11);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SetAssocPolicyTest,
                         ::testing::Values(ReplPolicy::Lru,
                                           ReplPolicy::Random),
                         [](const auto& suite) {
                             return std::string(toString(suite.param));
                         });

class SetAssocGeometryTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(SetAssocGeometryTest, FullyPopulatedThenFullyHit)
{
    auto [sets, ways] = GetParam();
    SetAssocCache<std::uint64_t> cache(sets, ways);
    for (std::uint64_t k = 0; k < sets * ways; ++k)
        cache.insert(k, k * 2);
    EXPECT_EQ(cache.countValid(), sets * ways);
    for (std::uint64_t k = 0; k < sets * ways; ++k) {
        auto* v = cache.lookup(k);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k * 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocGeometryTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 32},
                      std::pair<std::size_t, std::size_t>{128, 8},
                      std::pair<std::size_t, std::size_t>{64, 4},
                      std::pair<std::size_t, std::size_t>{16384, 4},
                      // > 64 ways: DeACT-N expands assoc by pairsPerWay
                      // (e.g. --stu-assoc 32 --pairs 3 = 96 ways); the
                      // mask words must span multiple 64-bit words.
                      std::pair<std::size_t, std::size_t>{4, 96},
                      std::pair<std::size_t, std::size_t>{2, 128}));

/**
 * The SoA store must match the fat-line reference model
 * decision-for-decision — hits, values, evicted keys, invalidation
 * results and valid counts — over long random op sequences, for every
 * policy and for pow2/non-pow2/single-set geometries. This is what
 * keeps the golden files bit-identical across the layout rewrite.
 */
class SetAssocEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<ReplPolicy, std::pair<std::size_t, std::size_t>>>
{
};

TEST_P(SetAssocEquivalenceTest, MatchesReferenceModelDecisionForDecision)
{
    auto [policy, shape] = GetParam();
    auto [sets, ways] = shape;
    const std::uint64_t seed = 99;
    SetAssocCache<int> cache(sets, ways, policy, seed);
    ReferenceCache ref(sets, ways, policy, seed);

    Rng driver(1234, sets * 131 + ways);
    std::uint64_t keyspace = sets * ways * 4 + 3;
    for (int step = 0; step < 100000; ++step) {
        std::uint64_t key = driver.below64(keyspace);
        std::uint32_t op = driver.below(100);
        if (op < 50) {
            int* got = cache.lookup(key);
            int* want = ref.lookup(key);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
            if (got) {
                ASSERT_EQ(*got, *want) << "step " << step;
            }
        } else if (op < 75) {
            int value = static_cast<int>(driver.below(1000));
            auto got = cache.insert(key, value);
            auto want = ref.insert(key, value);
            ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
            if (got) {
                ASSERT_EQ(got->key, want->key) << "step " << step;
                ASSERT_EQ(got->value, want->value) << "step " << step;
            }
        } else if (op < 85) {
            const int* got = cache.probe(key);
            const int* want = ref.probe(key);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
        } else if (op < 93) {
            ASSERT_EQ(cache.invalidate(key), ref.invalidate(key))
                << "step " << step;
        } else if (op < 97) {
            auto pred = [](int v) { return v % 3 == 0; };
            ASSERT_EQ(cache.invalidateIf(pred), ref.invalidateIf(pred))
                << "step " << step;
        } else if (op < 99) {
            ASSERT_EQ(cache.countValid(), ref.countValid())
                << "step " << step;
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
    }
    EXPECT_EQ(cache.countValid(), ref.countValid());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndShapes, SetAssocEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(ReplPolicy::Lru, ReplPolicy::Random),
        ::testing::Values(std::pair<std::size_t, std::size_t>{1, 4},
                          std::pair<std::size_t, std::size_t>{12, 3},
                          std::pair<std::size_t, std::size_t>{64, 4},
                          std::pair<std::size_t, std::size_t>{128, 8},
                          std::pair<std::size_t, std::size_t>{2, 96})),
    [](const auto& suite) {
        ReplPolicy policy = std::get<0>(suite.param);
        auto shape = std::get<1>(suite.param);
        return std::string(toString(policy)) + "_" +
               std::to_string(shape.first) + "x" +
               std::to_string(shape.second);
    });

} // namespace
} // namespace famsim
