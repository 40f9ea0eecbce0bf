/**
 * @file
 * Tests for the FAM substrate: layout geometry, ACM codec (across the
 * 8/16/32-bit widths of Fig. 14), shared-region bitmaps, media routing
 * and the memory broker.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fabric/fabric_link.hh"
#include "fam/acm.hh"
#include "fam/broker.hh"
#include "fam/fam_media.hh"
#include "sim/logging.hh"
#include "test_util.hh"

namespace famsim {
namespace {

// ---------------------------------------------------------------- layout

TEST(FamLayout, RegionsArePagedAndOrdered)
{
    FamLayout layout(16ull << 30, 16);
    EXPECT_EQ(layout.usableBytes() % kPageSize, 0u);
    EXPECT_LT(layout.usableBytes(), layout.capacityBytes());
    EXPECT_EQ(layout.acmBase(), layout.usableBytes());
    EXPECT_GT(layout.bitmapBase(), layout.acmBase());
    // < 0.1 % metadata overhead for 16-bit ACM (paper claim).
    double overhead =
        1.0 - static_cast<double>(layout.usableBytes()) /
                  static_cast<double>(layout.capacityBytes());
    EXPECT_LT(overhead, 0.001 + 16.0 / (8 * 4096.0));
}

TEST(FamLayout, AcmAddressDerivesFromPageAlone)
{
    // The paper's key property: ACM of page X lives at
    // MTAdd + X * entryBytes (Fig. 5), derivable from X only.
    FamLayout layout(16ull << 30, 16);
    EXPECT_EQ(layout.acmAddrForPage(0).value(), layout.acmBase());
    EXPECT_EQ(layout.acmAddrForPage(100).value(),
              layout.acmBase() + 200);
    // One 64 B block covers 32 pages of 16-bit metadata.
    EXPECT_EQ(layout.pagesPerAcmBlock(), 32u);
    EXPECT_EQ(layout.acmBlockForPage(0), layout.acmBlockForPage(31));
    EXPECT_NE(layout.acmBlockForPage(0), layout.acmBlockForPage(32));
}

class FamLayoutWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FamLayoutWidthTest, PagesPerBlockMatchesWidth)
{
    FamLayout layout(16ull << 30, GetParam());
    EXPECT_EQ(layout.pagesPerAcmBlock(), 64u * 8 / GetParam());
}

TEST_P(FamLayoutWidthTest, BitmapAddressesPerRegion)
{
    FamLayout layout(16ull << 30, GetParam());
    // 8 KB of bitmap per 1 GB region; node bit addressing.
    EXPECT_EQ(layout.bitmapAddrFor(0, 0).value(), layout.bitmapBase());
    EXPECT_EQ(layout.bitmapAddrFor(1, 0).value(),
              layout.bitmapBase() + FamLayout::kBitmapBytesPerRegion);
    EXPECT_EQ(layout.bitmapAddrFor(0, 16).value(),
              layout.bitmapBase() + 2);
}

INSTANTIATE_TEST_SUITE_P(Widths, FamLayoutWidthTest,
                         ::testing::Values(8u, 16u, 32u));

TEST(FamLayout, RegionOfPage)
{
    std::uint64_t pages_per_gb = kLargePageSize / kPageSize;
    EXPECT_EQ(FamLayout::regionOf(0), 0u);
    EXPECT_EQ(FamLayout::regionOf(pages_per_gb - 1), 0u);
    EXPECT_EQ(FamLayout::regionOf(pages_per_gb), 1u);
}

// ------------------------------------------------------------------- acm

class AcmWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AcmWidthTest, EncodeDecodeRoundTrips)
{
    AcmStore acm(GetParam());
    for (std::uint32_t owner :
         {0u, 1u, acm.maxNodes() / 2, acm.maxNodes()}) {
        for (std::uint8_t perms = 0; perms < 4; ++perms) {
            AcmEntry entry{owner, perms};
            EXPECT_EQ(acm.decode(acm.encode(entry)), entry);
        }
    }
}

TEST_P(AcmWidthTest, NodeIdCapacityMatchesWidth)
{
    AcmStore acm(GetParam());
    EXPECT_EQ(acm.nodeIdBits(), GetParam() - 2);
    EXPECT_EQ(acm.sharedMarker(), (1u << (GetParam() - 2)) - 1);
    // 16-bit ACM supports 16383 nodes (paper: shared marker reserved).
    if (GetParam() == 16) {
        EXPECT_EQ(acm.sharedMarker(), 16383u);
    }
}

TEST_P(AcmWidthTest, OverflowingNodeIdPanics)
{
    ScopedThrowOnError guard;
    AcmStore acm(GetParam());
    EXPECT_THROW(acm.set(0, AcmEntry{acm.sharedMarker() + 1, 0}),
                 SimError);
}

INSTANTIATE_TEST_SUITE_P(Widths, AcmWidthTest,
                         ::testing::Values(8u, 16u, 32u));

TEST(AcmStore, SetGetClear)
{
    AcmStore acm(16);
    acm.set(42, AcmEntry{7, 2});
    EXPECT_EQ(acm.get(42), (AcmEntry{7, 2}));
    EXPECT_EQ(acm.get(43), (AcmEntry{0, 0})); // default: node 0, none
    acm.clear(42);
    EXPECT_EQ(acm.get(42), (AcmEntry{0, 0}));
}

TEST(AcmStore, SharedMarkerAndBitmap)
{
    AcmStore acm(16);
    acm.markShared(100, Perms{true, false, false}.encode2b());
    EXPECT_EQ(acm.get(100).owner, acm.sharedMarker());

    acm.grantRegion(0, 3, Perms{true, true, false});
    acm.grantRegion(0, 5, Perms{true, false, false});
    EXPECT_TRUE(acm.regionAllows(0, 3));
    EXPECT_TRUE(acm.regionAllows(0, 5));
    EXPECT_FALSE(acm.regionAllows(0, 4));
    EXPECT_TRUE(acm.regionPerms(0, 3).w);
    EXPECT_FALSE(acm.regionPerms(0, 5).w);
    acm.revokeRegion(0, 3);
    EXPECT_FALSE(acm.regionAllows(0, 3));
}

TEST(AcmStore, OwnershipQueriesAndReassign)
{
    AcmStore acm(16);
    acm.set(1, AcmEntry{7, 3});
    acm.set(2, AcmEntry{7, 3});
    acm.set(3, AcmEntry{8, 3});
    auto owned = acm.pagesOwnedBy(7);
    EXPECT_EQ(owned.size(), 2u);
    EXPECT_EQ(acm.reassignOwner(7, 9), 2u);
    EXPECT_TRUE(acm.pagesOwnedBy(7).empty());
    EXPECT_EQ(acm.pagesOwnedBy(9).size(), 2u);
    EXPECT_EQ(acm.get(3).owner, 8u);
}

// ----------------------------------------------------------------- media

TEST(FamMedia, RoutesByInterleaveAndCountsKinds)
{
    Simulation sim;
    FamMediaParams params;
    params.modules = 4;
    params.capacityBytes = 4ull << 30;
    FamMedia media(sim, "fam", params);

    auto mk = [&](std::uint64_t addr, PacketKind kind) {
        auto pkt = makePacket(0, 0, MemOp::Read, kind);
        pkt->fam = FamAddr(addr);
        pkt->hasFam = true;
        pkt->onDone = [](Packet&) {};
        media.access(pkt);
    };
    mk(0, PacketKind::Data);
    mk(kPageSize, PacketKind::FamPtw);
    mk(2 * kPageSize, PacketKind::Acm);
    mk(3 * kPageSize, PacketKind::Bitmap);
    sim.run();

    EXPECT_EQ(media.totalRequests(), 4u);
    EXPECT_EQ(media.atRequests(), 3u);
    for (unsigned m = 0; m < 4; ++m) {
        EXPECT_DOUBLE_EQ(sim.stats().get("fam.module" + std::to_string(m) +
                                         ".reads"),
                         1.0);
    }
}

TEST(FamMedia, UnmappedDataPacketPanics)
{
    ScopedThrowOnError guard;
    Simulation sim;
    FamMedia media(sim, "fam", {});
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    pkt->hasFam = false;
    EXPECT_THROW(media.access(pkt), SimError);
}

// ---------------------------------------------------------------- broker

class BrokerTest : public ::testing::Test
{
  protected:
    BrokerTest()
        : layout_(16ull << 30, 16, 2ull << 30),
          acm_(16),
          broker_(sim_, "broker", BrokerParams{}, layout_, acm_, nullptr)
    {
        broker_.registerNode(0);
        broker_.registerNode(1);
    }

    Simulation sim_;
    FamLayout layout_;
    AcmStore acm_;
    MemoryBroker broker_;
};

TEST_F(BrokerTest, LogicalIdsAreDistinct)
{
    EXPECT_NE(broker_.logicalIdOf(0), broker_.logicalIdOf(1));
}

TEST_F(BrokerTest, AllocationsAreUniqueAndScattered)
{
    std::set<std::uint64_t> pages;
    std::uint64_t max_page = 0;
    for (int i = 0; i < 4096; ++i) {
        std::uint64_t page = broker_.allocPage(0, Perms{});
        EXPECT_TRUE(pages.insert(page).second) << "double allocation";
        max_page = std::max(max_page, page);
    }
    // Scattered: the pages span far more than 4096 consecutive slots.
    EXPECT_GT(max_page, 100000u);
    // And stay out of the shared reserve at the top.
    std::uint64_t reserve_base =
        layout_.usablePages() - layout_.sharedReservePages();
    EXPECT_LT(max_page, reserve_base);
}

TEST_F(BrokerTest, AllocSetsAcmOwnership)
{
    std::uint64_t page = broker_.allocPage(broker_.logicalIdOf(1),
                                           Perms{true, true, false});
    AcmEntry entry = acm_.get(page);
    EXPECT_EQ(entry.owner, broker_.logicalIdOf(1));
    EXPECT_EQ(entry.permBits, 2);
}

TEST_F(BrokerTest, HandleUnmappedMapsAfterServiceLatency)
{
    std::uint64_t got = ~0ull;
    Tick done_at = 0;
    broker_.handleUnmapped(0, 0x42, [&](std::uint64_t page) {
        got = page;
        done_at = sim_.curTick();
    });
    sim_.run();
    EXPECT_NE(got, ~0ull);
    EXPECT_GE(done_at, broker_.params().serviceLatency);
    auto leaf = broker_.famTableOf(0).lookup(0x42);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->valuePage, got);
    EXPECT_EQ(acm_.get(got).owner, broker_.logicalIdOf(0));
}

TEST_F(BrokerTest, SharedRegionGrantsAndMapping)
{
    std::uint64_t region = broker_.createSharedRegion(
        {{0, Perms{true, true, false}}, {1, Perms{true, false, false}}});
    std::uint64_t fam_page = broker_.mapSharedPage(region, 0, 0x100);
    broker_.attachSharedPage(fam_page, 1, 0x200);

    EXPECT_EQ(acm_.get(fam_page).owner, acm_.sharedMarker());
    EXPECT_TRUE(acm_.regionAllows(region, broker_.logicalIdOf(0)));
    EXPECT_TRUE(acm_.regionAllows(region, broker_.logicalIdOf(1)));
    EXPECT_TRUE(acm_.regionPerms(region, broker_.logicalIdOf(0)).w);
    EXPECT_FALSE(acm_.regionPerms(region, broker_.logicalIdOf(1)).w);
    EXPECT_EQ(broker_.famTableOf(0).lookup(0x100)->valuePage, fam_page);
    EXPECT_EQ(broker_.famTableOf(1).lookup(0x200)->valuePage, fam_page);
}

TEST_F(BrokerTest, MigrationWithAcmRewrite)
{
    NodeId logical0 = broker_.logicalIdOf(0);
    for (int i = 0; i < 10; ++i) {
        std::uint64_t page = broker_.allocPage(logical0, Perms{});
        broker_.famTableOf(0).map(0x1000 + static_cast<unsigned>(i),
                                  page, Perms{});
    }
    int invalidations = 0;
    broker_.addInvalidateListener([&](NodeId) { ++invalidations; });

    auto report = broker_.migrateJob(0, 1, /*use_logical_ids=*/false);
    EXPECT_EQ(report.pagesMoved, 10u);
    EXPECT_EQ(report.acmWrites, 10u);
    EXPECT_FALSE(report.usedLogicalIds);
    EXPECT_EQ(invalidations, 2); // both nodes shot down
    // The destination now owns the pages under *its* logical id.
    EXPECT_EQ(acm_.pagesOwnedBy(broker_.logicalIdOf(1)).size(), 10u);
    EXPECT_TRUE(acm_.pagesOwnedBy(logical0).empty());
    // Mappings moved wholesale to node 1's table.
    EXPECT_TRUE(broker_.famTableOf(1).lookup(0x1000).has_value());
}

TEST_F(BrokerTest, MigrationWithLogicalIdsTouchesNoAcm)
{
    NodeId logical0 = broker_.logicalIdOf(0);
    for (int i = 0; i < 10; ++i)
        broker_.allocPage(logical0, Perms{});

    auto report = broker_.migrateJob(0, 1, /*use_logical_ids=*/true);
    EXPECT_EQ(report.acmWrites, 0u);
    EXPECT_TRUE(report.usedLogicalIds);
    // The logical id followed the job to node 1.
    EXPECT_EQ(broker_.logicalIdOf(1), logical0);
    EXPECT_NE(broker_.logicalIdOf(0), logical0);
    EXPECT_EQ(acm_.pagesOwnedBy(logical0).size(), 10u);
}

TEST_F(BrokerTest, MigrationToUnregisteredNodeRegistersIt)
{
    // Regression: migrating onto a node that never faulted used to
    // default-construct a null table in the famTables_ swap, which
    // famTableOf() then dereferenced.
    NodeId logical0 = broker_.logicalIdOf(0);
    broker_.allocPage(logical0, Perms{});
    broker_.famTableOf(0).map(0x1000, 0x42, Perms{});

    auto report = broker_.migrateJob(0, 7, /*use_logical_ids=*/true);
    EXPECT_EQ(report.pagesMoved, 1u);
    EXPECT_EQ(broker_.logicalIdOf(7), logical0);
    // The table followed the job and is usable on the new node.
    EXPECT_TRUE(broker_.famTableOf(7).lookup(0x1000).has_value());
    EXPECT_EQ(broker_.famTableOf(7).lookup(0x1000)->valuePage, 0x42u);
    EXPECT_EQ(broker_.famTableOf(0).mappings(), 0u);
}

TEST_F(BrokerTest, MigrationWithAcmRewriteToUnregisteredNode)
{
    NodeId logical0 = broker_.logicalIdOf(0);
    for (int i = 0; i < 3; ++i)
        broker_.allocPage(logical0, Perms{});

    auto report = broker_.migrateJob(0, 9, /*use_logical_ids=*/false);
    EXPECT_EQ(report.pagesMoved, 3u);
    EXPECT_EQ(report.acmWrites, 3u);
    // The target got a fresh logical id and now owns the pages.
    EXPECT_EQ(acm_.pagesOwnedBy(broker_.logicalIdOf(9)).size(), 3u);
    EXPECT_TRUE(acm_.pagesOwnedBy(logical0).empty());
}

TEST_F(BrokerTest, RepeatedMigrationsBounceAndSettle)
{
    // The migration-storm pattern: a logical bounce there and back,
    // then a physical-id move. Ownership, logical ids and the
    // system-level table must stay coherent through the whole chain.
    NodeId logical0 = broker_.logicalIdOf(0);
    for (int i = 0; i < 5; ++i) {
        std::uint64_t page = broker_.allocPage(logical0, Perms{});
        broker_.famTableOf(0).map(0x2000 + static_cast<unsigned>(i),
                                  page, Perms{});
    }

    auto bounce_out = broker_.migrateJob(0, 1, /*use_logical_ids=*/true);
    EXPECT_EQ(bounce_out.pagesMoved, 5u);
    EXPECT_EQ(broker_.logicalIdOf(1), logical0);
    EXPECT_TRUE(broker_.famTableOf(1).lookup(0x2000).has_value());

    auto bounce_back = broker_.migrateJob(1, 0, /*use_logical_ids=*/true);
    EXPECT_EQ(bounce_back.pagesMoved, 5u);
    EXPECT_EQ(bounce_back.acmWrites, 0u);
    // The job's logical id came home; the ACM never moved.
    EXPECT_EQ(broker_.logicalIdOf(0), logical0);
    EXPECT_EQ(acm_.pagesOwnedBy(logical0).size(), 5u);
    EXPECT_TRUE(broker_.famTableOf(0).lookup(0x2004).has_value());
    EXPECT_EQ(broker_.famTableOf(1).mappings(), 0u);

    auto physical = broker_.migrateJob(0, 1, /*use_logical_ids=*/false);
    EXPECT_EQ(physical.pagesMoved, 5u);
    EXPECT_EQ(physical.acmWrites, 5u);
    // Now the ACM entries really were rewritten to node 1's id.
    EXPECT_TRUE(acm_.pagesOwnedBy(logical0).empty());
    EXPECT_EQ(acm_.pagesOwnedBy(broker_.logicalIdOf(1)).size(), 5u);
    EXPECT_TRUE(broker_.famTableOf(1).lookup(0x2000).has_value());
}

TEST(BrokerMedia, MigrationEmitsAcmTrafficAmidInFlightRequests)
{
    // A physical migration while data requests are in flight at the
    // media: the ACM rewrite traffic lands on top of the outstanding
    // accesses and everything completes.
    Simulation sim;
    FamLayout layout(16ull << 30, 16, 2ull << 30);
    AcmStore acm(16);
    FamMediaParams media_params;
    media_params.capacityBytes = 16ull << 30;
    FamMedia media(sim, "fam", media_params);
    MemoryBroker broker(sim, "broker", BrokerParams{}, layout, acm,
                        &media);
    broker.registerNode(0);
    broker.registerNode(1);

    NodeId logical0 = broker.logicalIdOf(0);
    std::vector<std::uint64_t> pages;
    for (int i = 0; i < 4; ++i)
        pages.push_back(broker.allocPage(logical0, Perms{}));

    int completed = 0;
    for (std::uint64_t page : pages) {
        auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
        pkt->fam = FamAddr(page * kPageSize);
        pkt->hasFam = true;
        pkt->onDone = [&](Packet&) { ++completed; };
        media.access(pkt);
    }

    MemoryBroker::MigrationReport report;
    sim.events().schedule(1 * kNanosecond, [&] {
        report = broker.migrateJob(0, 1, /*use_logical_ids=*/false);
    });
    sim.run();

    EXPECT_EQ(completed, 4);
    EXPECT_EQ(report.acmWrites, 4u);
    // The media served the in-flight data plus one bookkeeping write
    // per rewritten ACM entry.
    EXPECT_EQ(media.totalRequests(), 4u + report.acmWrites);
    EXPECT_EQ(acm.pagesOwnedBy(broker.logicalIdOf(1)).size(), 4u);
}

TEST(BrokerJobs, UnmappedFaultsAttributePerJob)
{
    Simulation sim;
    FamLayout layout(16ull << 30, 16, 2ull << 30);
    AcmStore acm(16);
    BrokerParams params;
    params.jobs = 4;
    MemoryBroker broker(sim, "broker", params, layout, acm, nullptr);
    broker.registerNode(0);

    int done = 0;
    broker.handleUnmapped(0, 0x10, [&](std::uint64_t) { ++done; }, 2);
    broker.handleUnmapped(0, 0x11, [&](std::uint64_t) { ++done; }, 2);
    broker.handleUnmapped(0, 0x12, [&](std::uint64_t) { ++done; }, 0);
    sim.run();

    EXPECT_EQ(done, 3);
    auto faults = sim.stats().sumJobTables(".job_faults");
    ASSERT_EQ(faults.size(), 4u);
    EXPECT_EQ(faults[0], 1u);
    EXPECT_EQ(faults[1], 0u);
    EXPECT_EQ(faults[2], 2u);
    EXPECT_EQ(faults[3], 0u);
    EXPECT_DOUBLE_EQ(sim.stats().get("broker.faults"), 3.0);
}

// ---------------------------------------------------------------- fabric

TEST(FabricLink, PropagationAndSerialization)
{
    Simulation sim;
    FabricParams params;
    params.latency = 100 * kNanosecond;
    params.serialization = 10 * kNanosecond;
    FabricLink link(sim, "fabric", params);

    std::vector<Tick> arrivals;
    for (int i = 0; i < 3; ++i) {
        link.sendRequest(0, [&] { arrivals.push_back(sim.curTick()); });
    }
    sim.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], 100 * kNanosecond);
    EXPECT_EQ(arrivals[1], 110 * kNanosecond);
    EXPECT_EQ(arrivals[2], 120 * kNanosecond);
}

TEST(FabricLink, ChannelsAreIndependent)
{
    Simulation sim;
    FabricParams params;
    params.latency = 100 * kNanosecond;
    params.serialization = 50 * kNanosecond;
    FabricLink link(sim, "fabric", params);

    Tick req = 0, resp = 0;
    link.sendRequest(0, [&] { req = sim.curTick(); });
    link.sendResponse(0, [&] { resp = sim.curTick(); });
    sim.run();
    EXPECT_EQ(req, 100 * kNanosecond);
    EXPECT_EQ(resp, 100 * kNanosecond); // no cross-channel queueing
}

} // namespace
} // namespace famsim
