/**
 * @file
 * Tests for the virtual-memory substrate: hierarchical page tables,
 * TLBs, PTW caches, the node walker and the node OS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hh"
#include "test_util.hh"
#include "vm/node_os.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace famsim {
namespace {

using test::StubMemory;

// ------------------------------------------------------------ page table

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest()
        : table_([this] { return nextPage_ += kPageSize; })
    {
    }

    std::uint64_t nextPage_ = 0;
    HierarchicalPageTable table_;
};

TEST_F(PageTableTest, LookupAfterMap)
{
    table_.map(0x1234, 0x9999, Perms{true, false, false});
    auto leaf = table_.lookup(0x1234);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->valuePage, 0x9999u);
    EXPECT_TRUE(leaf->perms.r);
    EXPECT_FALSE(leaf->perms.w);
    EXPECT_FALSE(table_.lookup(0x1235).has_value());
}

TEST_F(PageTableTest, WalkTouchesFourLevelsWhenMapped)
{
    table_.map(0x1234, 0x9999, Perms{});
    auto result = table_.walk(0x1234);
    ASSERT_EQ(result.steps.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(result.steps[i].level, i);
    ASSERT_TRUE(result.leaf.has_value());
    EXPECT_EQ(result.leaf->valuePage, 0x9999u);
}

TEST_F(PageTableTest, WalkStopsAtNonPresentLevel)
{
    auto result = table_.walk(0x5555);
    EXPECT_EQ(result.steps.size(), 1u); // only the root entry read
    EXPECT_FALSE(result.leaf.has_value());
}

TEST_F(PageTableTest, NeighbouringPagesShareTables)
{
    table_.map(0x1000, 1, Perms{});
    std::size_t pages_before = table_.tablePages();
    table_.map(0x1001, 2, Perms{});
    EXPECT_EQ(table_.tablePages(), pages_before); // same PTE table
    table_.map(0x1000 + 512, 3, Perms{});
    EXPECT_EQ(table_.tablePages(), pages_before + 1); // new PTE table
}

TEST_F(PageTableTest, UnmapRemovesLeafOnly)
{
    table_.map(0x42, 7, Perms{});
    EXPECT_EQ(table_.mappings(), 1u);
    EXPECT_TRUE(table_.unmap(0x42));
    EXPECT_EQ(table_.mappings(), 0u);
    EXPECT_FALSE(table_.unmap(0x42));
    EXPECT_FALSE(table_.lookup(0x42).has_value());
}

TEST_F(PageTableTest, EntryAddrMatchesWalkSteps)
{
    table_.map(0xABCDE, 11, Perms{});
    auto result = table_.walk(0xABCDE);
    for (const auto& step : result.steps) {
        auto addr = table_.entryAddr(0xABCDE, step.level);
        ASSERT_TRUE(addr.has_value());
        EXPECT_EQ(*addr, step.addr);
    }
}

TEST_F(PageTableTest, LevelIndexAndPrefixMath)
{
    std::uint64_t page = (3ull << 27) | (5ull << 18) | (7ull << 9) | 9;
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 0), 3u);
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 1), 5u);
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 2), 7u);
    EXPECT_EQ(HierarchicalPageTable::levelIndex(page, 3), 9u);
    EXPECT_EQ(HierarchicalPageTable::levelPrefix(page, 3), page);
}

TEST_F(PageTableTest, ManyMappingsRoundTrip)
{
    for (std::uint64_t i = 0; i < 5000; ++i)
        table_.map(i * 977, i, Perms{});
    for (std::uint64_t i = 0; i < 5000; ++i) {
        auto leaf = table_.lookup(i * 977);
        ASSERT_TRUE(leaf.has_value());
        EXPECT_EQ(leaf->valuePage, i);
    }
}

TEST_F(PageTableTest, UnmapErasesLeafAndKeepsNeighbours)
{
    // Leaves are packed by rank: erasing one shifts every later slot
    // of the same leaf table, and a remap must not resurrect the old
    // value from behind the cleared present bit.
    for (std::uint64_t k = 0x1000; k < 0x1004; ++k)
        table_.map(k, k + 100, Perms{});
    EXPECT_TRUE(table_.unmap(0x1001));
    EXPECT_FALSE(table_.lookup(0x1001).has_value());
    EXPECT_FALSE(table_.walk(0x1001).leaf.has_value());
    EXPECT_EQ(table_.lookup(0x1000)->valuePage, 0x1000u + 100);
    EXPECT_EQ(table_.lookup(0x1002)->valuePage, 0x1002u + 100);
    EXPECT_EQ(table_.walk(0x1003).leaf->valuePage, 0x1003u + 100);

    HierarchicalPageTable::BulkMapper mapper(table_);
    EXPECT_TRUE(mapper.mapIfAbsent(0x1001, Perms{true, false, false},
                                   [] { return std::uint64_t{7}; }));
    auto leaf = table_.lookup(0x1001);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->valuePage, 7u);
    EXPECT_FALSE(leaf->perms.w);
    EXPECT_EQ(table_.lookup(0x1002)->valuePage, 0x1002u + 100);
    EXPECT_EQ(table_.mappings(), 4u);
}

TEST_F(PageTableTest, LoneLeafCostsOneElementNotATablePage)
{
    std::size_t empty = table_.hostBytes();
    table_.map(0x1000, 1, Perms{});
    std::size_t one = table_.hostBytes();
    // Three new table structs, three children arrays (the root's
    // included) and one packed leaf — no 512-slot leaf array.
    EXPECT_LT(one - empty, 3 * HierarchicalPageTable::kEntries *
                               sizeof(void*) + 1024);
    for (std::uint64_t k = 0x1000; k < 0x1000 + 512; ++k)
        table_.map(k, k, Perms{});
    EXPECT_GE(table_.hostBytes() - one,
              511 * sizeof(HierarchicalPageTable::Leaf));
}

// ----------------------------------------- page table vs reference model

/** Key streams the two tables see in the simulator. */
enum class KeyStream { Dense, Scatter, Uniform };

const char*
toString(KeyStream kind)
{
    switch (kind) {
      case KeyStream::Dense: return "Dense";
      case KeyStream::Scatter: return "Scatter";
      default: return "Uniform";
    }
}

/**
 * Seeded random operation sequences against a std::map model. Table A
 * takes every operation; table B is fed the same installs in the same
 * order through the classic unbatched `if (!lookup) map` path, so its
 * table-page allocation order is the one the goldens pin. Both tables
 * draw values and table pages from one shared cursor each (as the
 * broker does), which also pins BulkMapper's value-before-table order.
 */
class PageTableModelTest : public ::testing::TestWithParam<KeyStream>
{
  protected:
    using Leaf = HierarchicalPageTable::Leaf;

    /** The @p i-th key of the parameter's stream. */
    std::uint64_t
    streamKey(std::uint64_t i)
    {
        switch (GetParam()) {
          case KeyStream::Dense:
            return 0x40000 + i;
          case KeyStream::Scatter:
            // NodeOs's FAM-zone scatter over a 16M-page (64 GiB) zone.
            return (1ull << 22) + (i * 1000003) % (1ull << 24);
          default:
            return rng_.below64(1ull << 36);
        }
    }

    /** A key the model holds, or a fresh one if it holds none. */
    std::uint64_t
    liveKey()
    {
        if (live_.empty())
            return streamKey(cursor_++);
        return live_[rng_.below(static_cast<std::uint32_t>(live_.size()))];
    }

    /** Any key: live, previously unmapped, or never seen. */
    std::uint64_t
    anyKey()
    {
        switch (rng_.below(3)) {
          case 0: return liveKey();
          case 1:
            if (!dead_.empty())
                return dead_[rng_.below(
                    static_cast<std::uint32_t>(dead_.size()))];
            [[fallthrough]];
          default: return streamKey(cursor_++);
        }
    }

    Perms
    randomPerms()
    {
        return Perms::decode2b(static_cast<std::uint8_t>(rng_.below(4)));
    }

    void
    modelSet(std::uint64_t key, Leaf leaf)
    {
        if (model_.emplace(key, leaf).second)
            live_.push_back(key);
        else
            model_[key] = leaf;
    }

    void
    modelErase(std::uint64_t key)
    {
        model_.erase(key);
        live_.erase(std::find(live_.begin(), live_.end(), key));
        dead_.push_back(key);
    }

    /** A maps (key, leaf); B installs it through the classic path. */
    void
    mapBoth(std::uint64_t key, Leaf leaf)
    {
        a_.map(key, leaf.valuePage, leaf.perms);
        b_.map(key, leaf.valuePage, leaf.perms);
        modelSet(key, leaf);
    }

    void
    expectMatchesModel(std::uint64_t key)
    {
        auto it = model_.find(key);
        std::optional<Leaf> want;
        if (it != model_.end())
            want = it->second;
        EXPECT_EQ(a_.lookup(key), want) << std::hex << key;
        auto wa = a_.walk(key);
        auto wb = b_.walk(key);
        EXPECT_EQ(wa.leaf, want) << std::hex << key;
        ASSERT_EQ(wa.steps.size(), wb.steps.size()) << std::hex << key;
        for (std::size_t i = 0; i < wa.steps.size(); ++i) {
            EXPECT_EQ(wa.steps[i].addr, wb.steps[i].addr);
            EXPECT_EQ(wa.steps[i].level, wb.steps[i].level);
            EXPECT_EQ(a_.entryAddr(key, wa.steps[i].level),
                      std::optional<std::uint64_t>(wa.steps[i].addr));
        }
        for (unsigned level = 0; level < HierarchicalPageTable::kLevels;
             ++level)
            EXPECT_EQ(a_.entryAddr(key, level), b_.entryAddr(key, level));
    }

    Rng rng_{0x5eed};
    std::uint64_t cursor_ = 0;
    std::uint64_t nextA_ = 0;
    std::uint64_t nextB_ = 0;
    HierarchicalPageTable a_{[this] { return ++nextA_ * kPageSize; }};
    HierarchicalPageTable b_{[this] { return ++nextB_ * kPageSize; }};
    std::map<std::uint64_t, Leaf> model_;
    std::vector<std::uint64_t> live_;
    std::vector<std::uint64_t> dead_;
};

TEST_P(PageTableModelTest, RandomOpsMatchReferenceModel)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        rng_ = Rng(seed * 0x9e3779b97f4a7c15ULL + 1);
        HierarchicalPageTable::BulkMapper mapper(a_);
        for (int op = 0; op < 6000; ++op) {
            switch (rng_.below(8)) {
              case 0: // map a new key
                mapBoth(streamKey(cursor_++),
                        Leaf{rng_.below64(1ull << 40), randomPerms()});
                break;
              case 1: // remap a live key
                mapBoth(liveKey(),
                        Leaf{rng_.below64(1ull << 40), randomPerms()});
                break;
              case 2: { // unmap any key
                std::uint64_t key = anyKey();
                bool present = model_.count(key) != 0;
                EXPECT_EQ(a_.unmap(key), present) << std::hex << key;
                EXPECT_EQ(b_.unmap(key), present);
                if (present)
                    modelErase(key);
                break;
              }
              case 3: { // unmap then remap: no stale leaf may survive
                std::uint64_t key = liveKey();
                if (model_.count(key)) {
                    EXPECT_TRUE(a_.unmap(key));
                    EXPECT_TRUE(b_.unmap(key));
                    modelErase(key);
                    expectMatchesModel(key);
                    dead_.pop_back();
                }
                mapBoth(key, Leaf{rng_.below64(1ull << 40), randomPerms()});
                break;
              }
              case 4: { // BulkMapper map-if-absent (A) vs classic (B)
                std::uint64_t key = rng_.below(2) ? liveKey() : anyKey();
                Perms perms = randomPerms();
                bool absent = model_.count(key) == 0;
                std::optional<std::uint64_t> value;
                bool installed = mapper.mapIfAbsent(key, perms, [&] {
                    value = ++nextA_ * kPageSize;
                    return *value;
                });
                EXPECT_EQ(installed, absent) << std::hex << key;
                EXPECT_EQ(value.has_value(), absent);
                if (!b_.lookup(key))
                    b_.map(key, ++nextB_ * kPageSize, perms);
                if (installed)
                    modelSet(key, Leaf{*value, perms});
                break;
              }
              default: // lookup / walk / entryAddr of any key
                expectMatchesModel(anyKey());
                break;
            }
            ASSERT_EQ(a_.mappings(), model_.size()) << "op " << op;
        }
    }
    for (const auto& [key, leaf] : model_)
        expectMatchesModel(key);
    for (std::uint64_t key : dead_)
        expectMatchesModel(key);
    EXPECT_EQ(a_.mappings(), model_.size());
    EXPECT_EQ(b_.mappings(), model_.size());
    EXPECT_EQ(a_.tablePages(), b_.tablePages());
    EXPECT_EQ(nextA_, nextB_);
}

INSTANTIATE_TEST_SUITE_P(KeyStreams, PageTableModelTest,
                         ::testing::Values(KeyStream::Dense,
                                           KeyStream::Scatter,
                                           KeyStream::Uniform),
                         [](const auto& suite) {
                             return std::string(toString(suite.param));
                         });

TEST(Perms, TwoBitEncodingRoundTrips)
{
    for (std::uint8_t bits = 0; bits < 4; ++bits) {
        Perms p = Perms::decode2b(bits);
        EXPECT_EQ(p.encode2b(), bits);
    }
    EXPECT_TRUE((Perms{true, true, false}.allows(false)));
    EXPECT_TRUE((Perms{true, true, false}.allows(true)));
    EXPECT_FALSE((Perms{true, false, false}.allows(true)));
    EXPECT_FALSE((Perms{false, false, false}.allows(false)));
    EXPECT_TRUE((Perms{true, true, true}.allows(false, true)));
    EXPECT_FALSE((Perms{true, true, false}.allows(false, true)));
}

// ------------------------------------------------------------------- tlb

TEST(Tlb, HitMissAndStats)
{
    Simulation sim;
    Tlb tlb(sim, "tlb", 4, 4, 500);
    EXPECT_FALSE(tlb.lookup(1).has_value());
    tlb.insert(1, TlbEntry{100, Perms{}});
    auto entry = tlb.lookup(1);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->valuePage, 100u);
    EXPECT_DOUBLE_EQ(sim.stats().get("tlb.hits"), 1.0);
    EXPECT_DOUBLE_EQ(sim.stats().get("tlb.misses"), 1.0);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(Tlb, CapacityEviction)
{
    Simulation sim;
    Tlb tlb(sim, "tlb", 4, 4, 500); // fully associative, 4 entries
    for (std::uint64_t p = 0; p < 5; ++p)
        tlb.insert(p, TlbEntry{p, Perms{}});
    int present = 0;
    for (std::uint64_t p = 0; p < 5; ++p)
        present += tlb.lookup(p).has_value() ? 1 : 0;
    EXPECT_EQ(present, 4);
}

TEST(TwoLevelTlb, PromotesFromL2)
{
    Simulation sim;
    TwoLevelTlb::Params params;
    params.l1Entries = 2;
    params.l2Entries = 8;
    params.l2Ways = 2;
    TwoLevelTlb tlb(sim, "tlb", params);

    tlb.insert(1, TlbEntry{10, Perms{}});
    tlb.insert(2, TlbEntry{20, Perms{}});
    tlb.insert(3, TlbEntry{30, Perms{}}); // evicts 1 from tiny L1
    auto result = tlb.lookup(1);
    ASSERT_TRUE(result.entry.has_value());
    // L1 miss + L2 hit latency
    EXPECT_EQ(result.latency, params.l1Latency + params.l2Latency);
    // Now promoted: next lookup is an L1 hit.
    auto again = tlb.lookup(1);
    EXPECT_EQ(again.latency, params.l1Latency);
}

TEST(TwoLevelTlb, MissReturnsFullLatency)
{
    Simulation sim;
    TwoLevelTlb tlb(sim, "tlb", {});
    auto result = tlb.lookup(0x123);
    EXPECT_FALSE(result.entry.has_value());
    EXPECT_GT(result.latency, 0u);
}

TEST(TwoLevelTlb, InvalidateBothLevels)
{
    Simulation sim;
    TwoLevelTlb tlb(sim, "tlb", {});
    tlb.insert(5, TlbEntry{50, Perms{}});
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.lookup(5).entry.has_value());
}

TEST(PtwCache, DeepestLevelWins)
{
    Simulation sim;
    PtwCache cache(sim, "ptw", 32, 4);
    std::uint64_t page = 0x12345678;
    EXPECT_EQ(cache.deepestCachedLevel(page), -1);
    cache.insert(page, 0);
    EXPECT_EQ(cache.deepestCachedLevel(page), 0);
    cache.insert(page, 2);
    EXPECT_EQ(cache.deepestCachedLevel(page), 2);
}

TEST(PtwCache, PrefixSharingAcrossNeighbours)
{
    Simulation sim;
    PtwCache cache(sim, "ptw", 32, 4);
    cache.insert(0x1000, 2); // PMD entry covers 512 pages
    EXPECT_EQ(cache.deepestCachedLevel(0x1001), 2);
    EXPECT_EQ(cache.deepestCachedLevel(0x1000 + 512), -1);
}

// ---------------------------------------------------------------- walker

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest()
        : table_([this] { return nextPage_ += kPageSize; }),
          stub_(sim_, 10 * kNanosecond),
          ptwCache_(sim_, "ptw", 32, 4),
          walker_(sim_, "walker", table_, ptwCache_, stub_, 0, 0)
    {
    }

    Simulation sim_;
    std::uint64_t nextPage_ = 0;
    HierarchicalPageTable table_;
    StubMemory stub_;
    PtwCache ptwCache_;
    NodePtWalker walker_;
};

TEST_F(WalkerTest, ColdWalkIssuesFourAccesses)
{
    table_.map(0x42, 7, Perms{});
    std::optional<HierarchicalPageTable::Leaf> got;
    walker_.walk(0x42, [&](auto leaf) { got = leaf; });
    sim_.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->valuePage, 7u);
    EXPECT_EQ(stub_.accesses, 4u);
    for (auto kind : stub_.kinds)
        EXPECT_EQ(kind, PacketKind::NodePtw);
}

TEST_F(WalkerTest, WarmWalkSkipsUpperLevels)
{
    table_.map(0x42, 7, Perms{});
    walker_.walk(0x42, [](auto) {});
    sim_.run();
    std::uint64_t cold_accesses = stub_.accesses;
    // Second walk to a neighbouring page: PTW cache covers PGD..PMD.
    table_.map(0x43, 8, Perms{});
    walker_.walk(0x43, [](auto) {});
    sim_.run();
    EXPECT_EQ(stub_.accesses - cold_accesses, 1u); // only the PTE read
}

TEST_F(WalkerTest, UnmappedWalkReportsFault)
{
    bool called = false;
    walker_.walk(0x999, [&](auto leaf) {
        called = true;
        EXPECT_FALSE(leaf.has_value());
    });
    sim_.run();
    EXPECT_TRUE(called);
    EXPECT_DOUBLE_EQ(sim_.stats().get("walker.faults"), 1.0);
}

// --------------------------------------------------------------- node OS

class NodeOsTest : public ::testing::Test
{
  protected:
    NodeOsTest()
    {
        params_.localBytes = 1ull << 24;        // 16 MB
        params_.reservedLocalBytes = 1ull << 20; // 1 MB
        params_.famZoneBytes = 1ull << 28;      // 256 MB
        params_.localFraction = 0.2;
    }

    Simulation sim_;
    NodeOsParams params_;
};

TEST_F(NodeOsTest, FaultMapsThePage)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    Tick latency = os.handleFault(0x1000);
    EXPECT_EQ(latency, params_.faultLatency);
    EXPECT_TRUE(os.pageTable().lookup(0x1000).has_value());
}

TEST_F(NodeOsTest, LocalFractionIsRespected)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    for (std::uint64_t p = 0; p < 1000; ++p)
        os.handleFault(p);
    double total = static_cast<double>(os.localPagesAllocated() +
                                       os.famPagesAllocated());
    double local_frac =
        static_cast<double>(os.localPagesAllocated()) / total;
    EXPECT_NEAR(local_frac, 0.2, 0.02);
}

TEST_F(NodeOsTest, ZoneClassificationIsConsistent)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    for (std::uint64_t p = 0; p < 500; ++p)
        os.handleFault(p);
    for (std::uint64_t p = 0; p < 500; ++p) {
        auto leaf = os.pageTable().lookup(p);
        ASSERT_TRUE(leaf.has_value());
        NPAddr addr(leaf->valuePage * kPageSize);
        if (os.isLocal(addr)) {
            EXPECT_LT(addr.value(),
                      params_.localBytes - params_.reservedLocalBytes);
        } else {
            EXPECT_GE(addr.value(), params_.localBytes);
        }
    }
}

TEST_F(NodeOsTest, ScatteredZonePagesAreUniqueAndInZone)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    for (std::uint64_t p = 0; p < 2000; ++p)
        os.handleFault(p);
    std::set<std::uint64_t> seen;
    std::uint64_t zone_base = params_.localBytes / kPageSize;
    std::uint64_t zone_pages = params_.famZoneBytes / kPageSize;
    for (std::uint64_t page : os.famZonePages()) {
        EXPECT_TRUE(seen.insert(page).second) << "duplicate NPA page";
        EXPECT_GE(page, zone_base);
        EXPECT_LT(page, zone_base + zone_pages);
    }
}

TEST_F(NodeOsTest, FamDirectEncodingRoundTrips)
{
    std::uint64_t fam_page = 0x1234;
    NPAddr npa((fam_page | kFamDirectPageBit) * kPageSize + 0x88);
    EXPECT_TRUE(NodeOs::isFamDirect(npa));
    FamAddr fam = NodeOs::famDirectAddr(npa);
    EXPECT_EQ(fam.value(), fam_page * kPageSize + 0x88);
    EXPECT_FALSE(NodeOs::isFamDirect(NPAddr(0x5000)));
}

TEST_F(NodeOsTest, ExplicitMappingWorks)
{
    NodeOs os(sim_, "os", params_, FamMode::Indirect, 0, nullptr);
    std::uint64_t npa_page = os.allocFamZonePage();
    os.mapExplicit(0x7777, npa_page, Perms{true, false, false});
    auto leaf = os.pageTable().lookup(0x7777);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->valuePage, npa_page);
    EXPECT_FALSE(leaf->perms.w);
}

} // namespace
} // namespace famsim
