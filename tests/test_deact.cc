/**
 * @file
 * Tests for the DeACT FAM translator: DRAM-cached translation lookup,
 * the V flag, miss coalescing, the update read-modify-write, the
 * outstanding mapping list and migration shootdown.
 */

#include <gtest/gtest.h>

#include "deact/fam_translator.hh"
#include "fam/broker.hh"
#include "test_util.hh"

namespace famsim {
namespace {

class TranslatorTest : public ::testing::Test
{
  protected:
    static constexpr NodeId kNode = 0;

    void
    build(unsigned max_outstanding = 128)
    {
        layout_ = std::make_unique<FamLayout>(16ull << 30, 16, 0);
        acm_ = std::make_unique<AcmStore>(16);
        media_ = std::make_unique<FamMedia>(sim_, "fam", FamMediaParams{});
        FabricParams fp;
        fp.latency = 100 * kNanosecond;
        fp.serialization = 0;
        fabric_ = std::make_unique<FabricLink>(sim_, "fabric", fp);
        broker_ = std::make_unique<MemoryBroker>(sim_, "broker",
                                                 BrokerParams{}, *layout_,
                                                 *acm_, media_.get());
        broker_->registerNode(kNode);

        StuParams sp;
        sp.org = StuOrg::DeactN;
        sp.nodeLinkLatency = 10 * kNanosecond;
        stu_ = std::make_unique<Stu>(sim_, "stu", sp, kNode, *layout_,
                                     *acm_, *broker_, *fabric_, *media_);

        BankedMemoryParams dp;
        dp.readLatency = 40 * kNanosecond;
        dp.writeLatency = 40 * kNanosecond;
        dp.frontendLatency = 0;
        dram_ = std::make_unique<BankedMemory>(sim_, "dram", dp);

        FamTranslatorParams tp;
        tp.cacheBytes = 64 * 1024;
        tp.maxOutstanding = max_outstanding;
        tp.dramCacheBase = 0x10000000;
        translator_ = std::make_unique<FamTranslator>(
            sim_, "translator", tp, *dram_, *stu_);
    }

    std::uint64_t
    mapPage(std::uint64_t npa_page)
    {
        std::uint64_t fam_page =
            broker_->allocPage(broker_->logicalIdOf(kNode), Perms{});
        broker_->famTableOf(kNode).map(npa_page, fam_page, Perms{});
        return fam_page;
    }

    PktPtr
    request(std::uint64_t npa, MemOp op = MemOp::Read)
    {
        auto pkt = makePacket(kNode, 0, op, PacketKind::Data);
        pkt->logicalNode = broker_->logicalIdOf(kNode);
        pkt->npa = NPAddr(npa);
        pkt->onDone = [this](Packet& p) {
            ++completed_;
            lastGranted_ = p.accessGranted;
        };
        return pkt;
    }

    Simulation sim_;
    std::unique_ptr<FamLayout> layout_;
    std::unique_ptr<AcmStore> acm_;
    std::unique_ptr<FamMedia> media_;
    std::unique_ptr<FabricLink> fabric_;
    std::unique_ptr<MemoryBroker> broker_;
    std::unique_ptr<Stu> stu_;
    std::unique_ptr<BankedMemory> dram_;
    std::unique_ptr<FamTranslator> translator_;

    int completed_ = 0;
    bool lastGranted_ = false;
};

TEST_F(TranslatorTest, MissThenHitPath)
{
    build();
    mapPage(0x1234);

    // Cold access: translation miss -> V=0 -> STU walk -> mapping
    // response updates the DRAM cache.
    translator_->access(request(0x1234ull * kPageSize));
    test::drain(sim_);
    EXPECT_EQ(completed_, 1);
    EXPECT_TRUE(lastGranted_);
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.misses"), 1.0);
    EXPECT_DOUBLE_EQ(sim_.stats().get("stu.walks"), 1.0);
    // Update path: lookup read + RMW read + RMW write.
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.dram_writes"), 1.0);

    // Warm access: hit, V=1, no STU walk.
    translator_->access(request(0x1234ull * kPageSize + 64));
    test::drain(sim_);
    EXPECT_EQ(completed_, 2);
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.hits"), 1.0);
    EXPECT_DOUBLE_EQ(sim_.stats().get("stu.walks"), 1.0); // unchanged
    EXPECT_GT(translator_->hitRate(), 0.4);
}

TEST_F(TranslatorTest, EveryLookupCostsOneDramRead)
{
    build();
    mapPage(0x42);
    translator_->access(request(0x42ull * kPageSize));
    test::drain(sim_);
    translator_->access(request(0x42ull * kPageSize));
    test::drain(sim_);
    // 2 lookups + 1 update RMW read = 3 DRAM reads.
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.dram_reads"), 3.0);
    EXPECT_DOUBLE_EQ(sim_.stats().get("dram.reads"), 3.0);
}

TEST_F(TranslatorTest, ConcurrentMissesCoalesce)
{
    build();
    mapPage(0x55);
    translator_->access(request(0x55ull * kPageSize));
    translator_->access(request(0x55ull * kPageSize + 8));
    translator_->access(request(0x55ull * kPageSize + 16));
    test::drain(sim_);
    EXPECT_EQ(completed_, 3);
    EXPECT_DOUBLE_EQ(sim_.stats().get("stu.walks"), 1.0);
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.coalesced"), 2.0);
}

TEST_F(TranslatorTest, OutstandingListLimitsReads)
{
    build(/*max_outstanding=*/2);
    for (std::uint64_t p = 0; p < 4; ++p)
        mapPage(0x100 + p);
    // Warm the cache first.
    for (std::uint64_t p = 0; p < 4; ++p) {
        translator_->access(request((0x100 + p) * kPageSize));
        test::drain(sim_);
    }
    completed_ = 0;
    // Burst of 4 reads with only 2 outstanding slots.
    for (std::uint64_t p = 0; p < 4; ++p)
        translator_->access(request((0x100 + p) * kPageSize));
    EXPECT_GT(sim_.stats().get("translator.stalls"), 0.0);
    test::drain(sim_);
    EXPECT_EQ(completed_, 4); // all eventually complete
}

TEST_F(TranslatorTest, WritesBypassTheOutstandingList)
{
    build(/*max_outstanding=*/1);
    mapPage(0x200);
    translator_->access(request(0x200ull * kPageSize, MemOp::Write));
    translator_->access(request(0x200ull * kPageSize + 8, MemOp::Write));
    test::drain(sim_);
    EXPECT_EQ(completed_, 2);
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.stalls"), 0.0);
}

TEST_F(TranslatorTest, InvalidateAllForcesRewalk)
{
    build();
    mapPage(0x300);
    translator_->access(request(0x300ull * kPageSize));
    test::drain(sim_);
    EXPECT_DOUBLE_EQ(sim_.stats().get("stu.walks"), 1.0);

    translator_->invalidateAll();
    translator_->access(request(0x300ull * kPageSize));
    test::drain(sim_);
    EXPECT_DOUBLE_EQ(sim_.stats().get("stu.walks"), 2.0);
    EXPECT_DOUBLE_EQ(sim_.stats().get("translator.invalidations"), 1.0);
    // Shootdown cost: one DRAM write per line was accounted.
    EXPECT_GE(sim_.stats().get("translator.dram_writes"),
              static_cast<double>(translator_->cacheSets()));
}

TEST_F(TranslatorTest, VerifiedFlagTravelsWithHits)
{
    build();
    std::uint64_t fam_page = mapPage(0x400);
    translator_->access(request(0x400ull * kPageSize));
    test::drain(sim_);

    bool saw_verified = false;
    auto pkt = request(0x400ull * kPageSize + 32);
    auto orig = std::move(pkt->onDone);
    pkt->onDone = [&](Packet& p) {
        saw_verified = p.verified;
        EXPECT_EQ(p.fam.pageNumber(), fam_page);
        orig(p);
    };
    translator_->access(std::move(pkt));
    test::drain(sim_);
    EXPECT_TRUE(saw_verified);
}

} // namespace
} // namespace famsim
