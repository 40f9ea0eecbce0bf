/**
 * @file
 * Tests for the memory substrate: packets, banked memory timing,
 * outstanding-request limits, cache levels and MSHR behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_level.hh"
#include "mem/banked_memory.hh"
#include "mem/packet.hh"
#include "test_util.hh"

namespace famsim {
namespace {

using test::StubMemory;
using test::dataRead;

// --------------------------------------------------------------- packet

TEST(Packet, KindsClassifyTranslation)
{
    EXPECT_FALSE(isTranslationKind(PacketKind::Data));
    EXPECT_TRUE(isTranslationKind(PacketKind::NodePtw));
    EXPECT_TRUE(isTranslationKind(PacketKind::FamPtw));
    EXPECT_TRUE(isTranslationKind(PacketKind::Acm));
    EXPECT_TRUE(isTranslationKind(PacketKind::Bitmap));
    EXPECT_TRUE(isTranslationKind(PacketKind::Broker));
}

TEST(Packet, IdsAreUnique)
{
    auto a = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    auto b = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    EXPECT_NE(a->id, b->id);
}

TEST(Packet, CompleteRunsCallbackExactlyOnce)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    int calls = 0;
    pkt->onDone = [&](Packet&) { ++calls; };
    pkt->complete();
    pkt->complete(); // second call must be a no-op
    EXPECT_EQ(calls, 1);
}

TEST(Packet, HopsRunLastInFirstOutEachOnce)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    std::vector<int> order;
    std::vector<int>* log = &order; // hop captures are plain values
    pkt->onDone = [log](Packet&) { log->push_back(0); };
    for (int hop = 1; hop <= 3; ++hop) {
        pkt->pushHop([log, hop](Packet& p) {
            log->push_back(hop);
            p.complete();
        });
    }
    pkt->complete();
    pkt->complete(); // the chain is spent: nothing runs twice
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Packet, HopThatDoesNotContinueEndsTheChain)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    int base = 0;
    int lower = 0;
    int top = 0;
    pkt->onDone = [&base](Packet&) { ++base; };
    int* lower_runs = &lower;
    int* top_runs = &top;
    pkt->pushHop([lower_runs](Packet& p) {
        ++*lower_runs;
        p.complete();
    });
    pkt->pushHop([top_runs](Packet&) { ++*top_runs; });
    pkt->complete();
    EXPECT_EQ(top, 1);
    EXPECT_EQ(lower, 0);
    EXPECT_EQ(base, 0);
}

TEST(Packet, PushingPastMaxHopsPanics)
{
    ScopedThrowOnError guard;
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    for (unsigned i = 0; i < Packet::kMaxHops; ++i)
        pkt->pushHop([](Packet& p) { p.complete(); });
    EXPECT_THROW(pkt->pushHop([](Packet& p) { p.complete(); }), SimError);
}

TEST(Packet, KindNamesArePrintable)
{
    EXPECT_STREQ(toString(PacketKind::Data), "Data");
    EXPECT_STREQ(toString(PacketKind::Acm), "Acm");
}

// -------------------------------------------------------- banked memory

TEST(BankedMemory, ReadCompletesAfterLatency)
{
    Simulation sim;
    BankedMemoryParams params;
    params.banks = 2;
    params.readLatency = 50 * kNanosecond;
    params.writeLatency = 100 * kNanosecond;
    params.frontendLatency = 10 * kNanosecond;
    BankedMemory mem(sim, "mem", params);

    Tick done_at = 0;
    auto pkt = dataRead(0);
    pkt->onDone = [&](Packet&) { done_at = sim.curTick(); };
    mem.access(pkt, 0);
    sim.run();
    EXPECT_EQ(done_at, 60 * kNanosecond);
}

TEST(BankedMemory, WritesAreSlowerThanReads)
{
    Simulation sim;
    BankedMemoryParams params;
    params.readLatency = 60 * kNanosecond;
    params.writeLatency = 150 * kNanosecond;
    params.frontendLatency = 0;
    BankedMemory mem(sim, "mem", params);

    Tick read_done = 0, write_done = 0;
    auto rd = dataRead(0);
    rd->onDone = [&](Packet&) { read_done = sim.curTick(); };
    auto wr = makePacket(0, 0, MemOp::Write, PacketKind::Data);
    wr->npa = NPAddr(kBlockSize); // different bank
    wr->onDone = [&](Packet&) { write_done = sim.curTick(); };
    mem.access(rd, 0);
    mem.access(wr, kBlockSize);
    sim.run();
    EXPECT_EQ(read_done, 60 * kNanosecond);
    EXPECT_EQ(write_done, 150 * kNanosecond);
}

TEST(BankedMemory, SameBankSerializes)
{
    Simulation sim;
    BankedMemoryParams params;
    params.banks = 4;
    params.readLatency = 100 * kNanosecond;
    params.frontendLatency = 0;
    BankedMemory mem(sim, "mem", params);

    // Two accesses to the same bank (same block-interleave residue).
    Tick first = 0, second = 0;
    auto a = dataRead(0);
    a->onDone = [&](Packet&) { first = sim.curTick(); };
    auto b = dataRead(4 * kBlockSize); // (4*64/64) % 4 == 0: same bank
    b->onDone = [&](Packet&) { second = sim.curTick(); };
    mem.access(a, 0);
    mem.access(b, 4 * kBlockSize);
    sim.run();
    EXPECT_EQ(first, 100 * kNanosecond);
    EXPECT_EQ(second, 200 * kNanosecond);
}

TEST(BankedMemory, DifferentBanksProceedInParallel)
{
    Simulation sim;
    BankedMemoryParams params;
    params.banks = 4;
    params.readLatency = 100 * kNanosecond;
    params.frontendLatency = 0;
    BankedMemory mem(sim, "mem", params);

    Tick first = 0, second = 0;
    auto a = dataRead(0);
    a->onDone = [&](Packet&) { first = sim.curTick(); };
    auto b = dataRead(kBlockSize); // bank 1
    b->onDone = [&](Packet&) { second = sim.curTick(); };
    mem.access(a, 0);
    mem.access(b, kBlockSize);
    sim.run();
    EXPECT_EQ(first, 100 * kNanosecond);
    EXPECT_EQ(second, 100 * kNanosecond);
}

TEST(BankedMemory, OutstandingLimitQueuesExcess)
{
    Simulation sim;
    BankedMemoryParams params;
    params.banks = 8;
    params.readLatency = 100 * kNanosecond;
    params.frontendLatency = 0;
    params.maxOutstanding = 2;
    BankedMemory mem(sim, "mem", params);

    int completed = 0;
    for (int i = 0; i < 4; ++i) {
        auto pkt = dataRead(static_cast<std::uint64_t>(i) * kBlockSize);
        pkt->onDone = [&](Packet&) { ++completed; };
        mem.access(pkt, static_cast<std::uint64_t>(i) * kBlockSize);
    }
    EXPECT_EQ(mem.inFlight(), 2u);
    sim.run();
    EXPECT_EQ(completed, 4);
    EXPECT_DOUBLE_EQ(sim.stats().get("mem.queued"), 2.0);
}

// ----------------------------------------------------------- cache level

class CacheLevelTest : public ::testing::Test
{
  protected:
    CacheLevelTest()
        : stub_(sim_, 100 * kNanosecond),
          cache_(sim_, "l1",
                 CacheParams{1024, 2, 1 * kNanosecond, ReplPolicy::Lru},
                 stub_)
    {
    }

    Simulation sim_;
    StubMemory stub_;
    CacheLevel cache_; // 1 KB, 2-way: 8 sets of 2
};

TEST_F(CacheLevelTest, MissFillsThenHits)
{
    int completed = 0;
    auto miss = dataRead(0);
    miss->onDone = [&](Packet&) { ++completed; };
    cache_.access(miss);
    sim_.run();
    EXPECT_EQ(completed, 1);
    EXPECT_EQ(stub_.accesses, 1u);

    auto hit = dataRead(8); // same block
    Tick done_at = 0;
    hit->onDone = [&](Packet&) { done_at = sim_.curTick(); };
    Tick start = sim_.curTick();
    cache_.access(hit);
    sim_.run();
    EXPECT_EQ(stub_.accesses, 1u); // no new fill
    EXPECT_EQ(done_at - start, 1 * kNanosecond);
}

TEST_F(CacheLevelTest, HandedOffMissCompletesOnceAndFreesItsPacket)
{
    int completed = 0;
    Packet* request = nullptr;
    {
        PktPtr pkt = dataRead(0x40);
        request = pkt.get();
        pkt->onDone = [&](Packet&) { ++completed; };
        cache_.access(std::move(pkt));
        EXPECT_FALSE(pkt); // the cache owns the only handle now
    }
    sim_.run();
    EXPECT_EQ(completed, 1);
    EXPECT_EQ(stub_.accesses, 1u);
    // No handle outlived the access: the request and its fill went
    // back to this thread's pool, so the next two packets reuse them.
    PktPtr a = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    PktPtr b = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    EXPECT_TRUE(a.get() == request || b.get() == request);
}

TEST_F(CacheLevelTest, MshrMergesConcurrentMisses)
{
    int completed = 0;
    for (int i = 0; i < 3; ++i) {
        auto pkt = dataRead(static_cast<std::uint64_t>(i) * 8);
        pkt->onDone = [&](Packet&) { ++completed; };
        cache_.access(pkt);
    }
    sim_.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(stub_.accesses, 1u); // one fill serves all three
    EXPECT_DOUBLE_EQ(sim_.stats().get("l1.mshr_merges"), 2.0);
}

TEST_F(CacheLevelTest, DirtyEvictionWritesBack)
{
    // Fill both ways of set 0, dirtying the first, then force an
    // eviction with a third block in the same set.
    auto w = makePacket(0, 0, MemOp::Write, PacketKind::Data);
    w->npa = NPAddr(0);
    w->onDone = [](Packet&) {};
    cache_.access(w);
    sim_.run();

    std::uint64_t set_stride = 8 * kBlockSize; // 8 sets
    for (int i = 1; i <= 2; ++i) {
        auto pkt = dataRead(static_cast<std::uint64_t>(i) * set_stride);
        pkt->onDone = [](Packet&) {};
        cache_.access(pkt);
        sim_.run();
    }
    EXPECT_DOUBLE_EQ(sim_.stats().get("l1.writebacks"), 1.0);
    // The stub saw: fill(0), fill(1), fill(2) + writeback(0).
    EXPECT_EQ(stub_.accesses, 4u);
}

TEST_F(CacheLevelTest, WritebackPacketsDoNotAllocate)
{
    auto wb = makePacket(0, 0, MemOp::Write, PacketKind::Data);
    wb->npa = NPAddr(0x4000);
    wb->writeback = true;
    wb->onDone = [](Packet&) {};
    cache_.access(wb);
    sim_.run();
    // Forwarded to the stub, not filled into the cache.
    EXPECT_EQ(stub_.accesses, 1u);
    auto rd = dataRead(0x4000);
    rd->onDone = [](Packet&) {};
    cache_.access(rd);
    sim_.run();
    EXPECT_EQ(stub_.accesses, 2u); // still a miss
}

TEST_F(CacheLevelTest, FillInheritsRequestKind)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::NodePtw);
    pkt->npa = NPAddr(0x100);
    pkt->onDone = [](Packet&) {};
    cache_.access(pkt);
    sim_.run();
    ASSERT_EQ(stub_.kinds.size(), 1u);
    EXPECT_EQ(stub_.kinds[0], PacketKind::NodePtw);
}

TEST_F(CacheLevelTest, InvalidateAllForcesRefills)
{
    auto pkt = dataRead(0);
    pkt->onDone = [](Packet&) {};
    cache_.access(pkt);
    sim_.run();
    cache_.invalidateAll();
    auto again = dataRead(0);
    again->onDone = [](Packet&) {};
    cache_.access(again);
    sim_.run();
    EXPECT_EQ(stub_.accesses, 2u);
}

TEST(CacheLevelParams, BadGeometryPanics)
{
    ScopedThrowOnError guard;
    Simulation sim;
    StubMemory stub(sim, 1);
    EXPECT_THROW(CacheLevel(sim, "bad", CacheParams{100, 3, 1}, stub),
                 SimError);
}

} // namespace
} // namespace famsim
