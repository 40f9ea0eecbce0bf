/**
 * @file
 * Tests for the memory substrate: packets, banked memory timing,
 * outstanding-request limits, cache levels and MSHR behaviour.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
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

// A packet has one owner: handles and the closures that hold them
// move, and a copy is a compile error.
static_assert(!std::is_copy_constructible_v<PktPtr> &&
              !std::is_copy_assignable_v<PktPtr>);
static_assert(std::is_nothrow_move_constructible_v<PktPtr>);
static_assert(!std::is_copy_constructible_v<InlineFunction<void()>> &&
              !std::is_copy_assignable_v<InlineFunction<void()>>);

TEST(Packet, CompleteRunsCallbackExactlyOnce)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    int calls = 0;
    pkt->onDone = [&](Packet&) { ++calls; };
    complete(std::move(pkt));
    EXPECT_FALSE(pkt); // complete() consumed the only handle
    EXPECT_EQ(calls, 1);
}

TEST(Packet, HopsRunLastInFirstOutEachOnce)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    std::vector<int> order;
    std::vector<int>* log = &order; // hop captures are plain values
    pkt->onDone = [log](Packet&) { log->push_back(0); };
    for (int hop = 1; hop <= 3; ++hop) {
        pkt->pushHop([log, hop](PktPtr p) {
            log->push_back(hop);
            complete(std::move(p));
        });
    }
    complete(std::move(pkt));
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Packet, HopThatDoesNotContinueEndsTheChain)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    Packet* storage = pkt.get();
    int base = 0;
    int lower = 0;
    int top = 0;
    pkt->onDone = [&base](Packet&) { ++base; };
    int* lower_runs = &lower;
    int* top_runs = &top;
    pkt->pushHop([lower_runs](PktPtr p) {
        ++*lower_runs;
        complete(std::move(p));
    });
    pkt->pushHop([top_runs](PktPtr) { ++*top_runs; });
    complete(std::move(pkt));
    EXPECT_EQ(top, 1);
    EXPECT_EQ(lower, 0);
    EXPECT_EQ(base, 0);
    // Dropping the handle recycled the packet, hops and all: the next
    // packet reuses its storage and carries no leftover hop.
    PktPtr next = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    EXPECT_EQ(next.get(), storage);
    complete(std::move(next));
    EXPECT_EQ(lower, 0);
}

TEST(Packet, HopCarriesTheHandleIntoALaterEvent)
{
    Simulation sim;
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    Packet* storage = pkt.get();
    int calls = 0;
    Tick done_at = 0;
    pkt->onDone = [&](Packet&) {
        ++calls;
        done_at = sim.curTick();
    };
    Simulation* s = &sim;
    pkt->pushHop([s](PktPtr p) {
        s->events().scheduleAfter(
            30 * kNanosecond,
            [p = std::move(p)]() mutable { complete(std::move(p)); });
    });
    sim.events().scheduleAfter(
        10 * kNanosecond,
        [pkt = std::move(pkt)]() mutable { complete(std::move(pkt)); });
    sim.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(done_at, 40 * kNanosecond);
    // The last event's handle was the only one: the packet is back in
    // this thread's pool, and the next packet reuses its storage.
    PktPtr next = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    EXPECT_EQ(next.get(), storage);
}

TEST(Packet, PushingPastMaxHopsPanics)
{
    ScopedThrowOnError guard;
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::Data);
    for (unsigned i = 0; i < Packet::kMaxHops; ++i)
        pkt->pushHop([](PktPtr p) { complete(std::move(p)); });
    EXPECT_THROW(pkt->pushHop([](PktPtr p) { complete(std::move(p)); }),
                 SimError);
}

TEST(Packet, WaitersKeepArrivalOrderAndReleaseAnUndrainedChain)
{
    // Merged waiters chain through their packets: forEach reads them in
    // arrival order, drain hands each handle on in that order, and a
    // list dropped before it drains recycles every packet in its chain
    // (their completions' captures die with them).
    auto token = std::make_shared<int>(0);
    std::vector<CoreId> seen;
    {
        PktWaiters waiters;
        for (CoreId c = 0; c < 4; ++c) {
            PktPtr pkt = makePacket(0, c, MemOp::Read, PacketKind::Data);
            pkt->onDone = [token](Packet&) {};
            waiters.push_back(std::move(pkt));
        }
        EXPECT_EQ(token.use_count(), 5);
        EXPECT_EQ(waiters.front()->core, 0u);
        waiters.forEach([&seen](const Packet& p) { seen.push_back(p.core); });
        EXPECT_EQ(seen, (std::vector<CoreId>{0, 1, 2, 3}));
        seen.clear();
        waiters.drain([&seen](PktPtr p) { seen.push_back(p->core); });
        EXPECT_EQ(seen, (std::vector<CoreId>{0, 1, 2, 3}));
        EXPECT_TRUE(waiters.empty());
        EXPECT_EQ(token.use_count(), 1);

        for (CoreId c = 0; c < 3; ++c) {
            PktPtr pkt = makePacket(0, c, MemOp::Read, PacketKind::Data);
            pkt->onDone = [token](Packet&) {};
            waiters.push_back(std::move(pkt));
        }
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 1);
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
    mem.access(std::move(pkt), 0);
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
    mem.access(std::move(rd), 0);
    mem.access(std::move(wr), kBlockSize);
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
    mem.access(std::move(a), 0);
    mem.access(std::move(b), 4 * kBlockSize);
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
    mem.access(std::move(a), 0);
    mem.access(std::move(b), kBlockSize);
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
        mem.access(std::move(pkt), static_cast<std::uint64_t>(i) * kBlockSize);
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
    cache_.access(std::move(miss));
    sim_.run();
    EXPECT_EQ(completed, 1);
    EXPECT_EQ(stub_.accesses, 1u);

    auto hit = dataRead(8); // same block
    Tick done_at = 0;
    hit->onDone = [&](Packet&) { done_at = sim_.curTick(); };
    Tick start = sim_.curTick();
    cache_.access(std::move(hit));
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
        cache_.access(std::move(pkt));
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
    cache_.access(std::move(w));
    sim_.run();

    std::uint64_t set_stride = 8 * kBlockSize; // 8 sets
    for (int i = 1; i <= 2; ++i) {
        auto pkt = dataRead(static_cast<std::uint64_t>(i) * set_stride);
        pkt->onDone = [](Packet&) {};
        cache_.access(std::move(pkt));
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
    cache_.access(std::move(wb));
    sim_.run();
    // Forwarded to the stub, not filled into the cache.
    EXPECT_EQ(stub_.accesses, 1u);
    auto rd = dataRead(0x4000);
    rd->onDone = [](Packet&) {};
    cache_.access(std::move(rd));
    sim_.run();
    EXPECT_EQ(stub_.accesses, 2u); // still a miss
}

TEST_F(CacheLevelTest, FillInheritsRequestKind)
{
    auto pkt = makePacket(0, 0, MemOp::Read, PacketKind::NodePtw);
    pkt->npa = NPAddr(0x100);
    pkt->onDone = [](Packet&) {};
    cache_.access(std::move(pkt));
    sim_.run();
    ASSERT_EQ(stub_.kinds.size(), 1u);
    EXPECT_EQ(stub_.kinds[0], PacketKind::NodePtw);
}

TEST_F(CacheLevelTest, InvalidateAllForcesRefills)
{
    auto pkt = dataRead(0);
    pkt->onDone = [](Packet&) {};
    cache_.access(std::move(pkt));
    sim_.run();
    cache_.invalidateAll();
    auto again = dataRead(0);
    again->onDone = [](Packet&) {};
    cache_.access(std::move(again));
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
