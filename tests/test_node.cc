/**
 * @file
 * Tests for the node substrate: the trace-driven core (instruction
 * accounting, outstanding window, blocking loads, TLB-walk and
 * page-fault paths) and the memory controller's zone steering.
 */

#include <gtest/gtest.h>

#include <deque>

#include "node/core.hh"
#include "node/mem_ctrl.hh"
#include "test_util.hh"

namespace famsim {
namespace {

using test::StubMemory;

/** A scripted workload: plays back a fixed list of ops, then repeats. */
class ScriptedGen : public WorkloadGen
{
  public:
    explicit ScriptedGen(std::vector<MemOpDesc> ops)
        : ops_(std::move(ops))
    {
    }

    MemOpDesc
    next() override
    {
        MemOpDesc op = ops_[index_ % ops_.size()];
        ++index_;
        return op;
    }

    [[nodiscard]] std::vector<std::uint64_t>
    footprintPages() const override
    {
        std::vector<std::uint64_t> pages;
        for (const auto& op : ops_)
            pages.push_back(op.vaddr / kPageSize);
        return pages;
    }

  private:
    std::vector<MemOpDesc> ops_;
    std::size_t index_ = 0;
};

class CoreTest : public ::testing::Test
{
  protected:
    void
    build(std::vector<MemOpDesc> ops, CoreParams params = {})
    {
        NodeOsParams osp;
        osp.localBytes = 1ull << 24;
        osp.reservedLocalBytes = 1ull << 20;
        osp.famZoneBytes = 1ull << 28;
        osp.localFraction = 1.0; // keep everything local for unit tests
        osp.faultLatency = 100 * kNanosecond;
        os_ = std::make_unique<NodeOs>(sim_, "os", osp,
                                       FamMode::Indirect, 0, nullptr);
        gen_ = std::make_unique<ScriptedGen>(std::move(ops));
        tlb_ = std::make_unique<TwoLevelTlb>(sim_, "tlb",
                                             TwoLevelTlb::Params{});
        ptw_ = std::make_unique<PtwCache>(sim_, "ptw", 32, 4);
        mem_ = std::make_unique<StubMemory>(sim_, 20 * kNanosecond);
        walker_ = std::make_unique<NodePtWalker>(
            sim_, "walker", os_->pageTable(), *ptw_, *mem_, 0, 0);
        core_ = std::make_unique<Core>(sim_, "core", params, 0, 0, 0,
                                       *gen_, *tlb_, *walker_, *mem_,
                                       *os_);
    }

    Simulation sim_;
    std::unique_ptr<NodeOs> os_;
    std::unique_ptr<ScriptedGen> gen_;
    std::unique_ptr<TwoLevelTlb> tlb_;
    std::unique_ptr<PtwCache> ptw_;
    std::unique_ptr<StubMemory> mem_;
    std::unique_ptr<NodePtWalker> walker_;
    std::unique_ptr<Core> core_;
};

TEST_F(CoreTest, RetiresExactlyTheInstructionLimit)
{
    CoreParams params;
    params.instructionLimit = 1000;
    build({MemOpDesc{0x1000, false, 3, false}}, params);
    bool finished = false;
    core_->start([&] { finished = true; });
    sim_.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(core_->instructionsRetired(), 1000u);
}

TEST_F(CoreTest, FaultsOnceThenReusesTheMapping)
{
    CoreParams params;
    params.instructionLimit = 400;
    build({MemOpDesc{0x5000, false, 1, false}}, params);
    core_->start([] {});
    sim_.run();
    EXPECT_DOUBLE_EQ(sim_.stats().get("core.page_faults"), 1.0);
    // After the first touch the TLB holds the translation.
    EXPECT_DOUBLE_EQ(sim_.stats().get("core.tlb_walks"), 1.0);
}

TEST_F(CoreTest, DistinctPagesCauseDistinctWalks)
{
    CoreParams params;
    params.instructionLimit = 100;
    std::vector<MemOpDesc> ops;
    for (std::uint64_t p = 0; p < 8; ++p)
        ops.push_back(MemOpDesc{0x100000 + p * kPageSize, false, 2,
                                false});
    build(ops, params);
    core_->start([] {});
    sim_.run();
    EXPECT_DOUBLE_EQ(sim_.stats().get("core.page_faults"), 8.0);
}

TEST_F(CoreTest, BlockingLoadsSerializeTime)
{
    // Two scripts of equal length; the blocking one must take longer.
    CoreParams params;
    params.instructionLimit = 500;

    build({MemOpDesc{0x1000, false, 1, false}}, params);
    core_->start([] {});
    sim_.run();
    Tick nonblocking_time = core_->localTime();

    sim_.stats().resetAll();
    build({MemOpDesc{0x1000, false, 1, true}}, params);
    core_->start([] {});
    sim_.run();
    Tick blocking_time = core_->localTime();

    EXPECT_GT(blocking_time, nonblocking_time);
    EXPECT_GT(sim_.stats().get("core.blocking_stalls"), 0.0);
}

TEST_F(CoreTest, WindowLimitThrottlesOutstanding)
{
    CoreParams params;
    params.instructionLimit = 3000;
    params.maxOutstanding = 2;
    build({MemOpDesc{0x1000, false, 0, false}}, params);
    core_->start([] {});
    sim_.run();
    EXPECT_GT(sim_.stats().get("core.window_stalls"), 0.0);
}

TEST_F(CoreTest, IpcIsPositiveAndBounded)
{
    CoreParams params;
    params.instructionLimit = 2000;
    params.issueWidth = 2;
    build({MemOpDesc{0x1000, false, 9, false}}, params);
    core_->start([] {});
    sim_.run();
    EXPECT_GT(core_->ipc(), 0.0);
    EXPECT_LE(core_->ipc(), 2.0); // can never beat the issue width
}

TEST_F(CoreTest, PhaseCallbackFiresOnce)
{
    CoreParams params;
    params.instructionLimit = 1000;
    build({MemOpDesc{0x1000, false, 4, false}}, params);
    int fired = 0;
    core_->addPhaseCallback(500, [&] { ++fired; });
    core_->start([] {});
    sim_.run();
    EXPECT_EQ(fired, 1);
}

TEST_F(CoreTest, MarkWindowRestartsIpcAccounting)
{
    CoreParams params;
    params.instructionLimit = 1000;
    build({MemOpDesc{0x1000, false, 4, false}}, params);
    core_->addPhaseCallback(500, [this] { core_->markWindow(); });
    core_->start([] {});
    sim_.run();
    // IPC accounted over roughly the second half only.
    EXPECT_GT(core_->ipc(), 0.0);
}

// --------------------------------------------------------- mem controller

TEST(MemController, SteersByZoneAndFamDirect)
{
    Simulation sim;
    NodeOsParams osp;
    osp.localBytes = 1ull << 24;
    osp.reservedLocalBytes = 1ull << 20;
    osp.famZoneBytes = 1ull << 28;
    NodeOs os(sim, "os", osp, FamMode::Indirect, 0, nullptr);
    BankedMemoryParams dp;
    dp.frontendLatency = 0;
    BankedMemory dram(sim, "dram", dp);
    test::StubMemory fam_path(sim, 1);
    MemController ctrl(sim, "memctrl", os, dram, fam_path);

    // Local-zone access -> DRAM.
    auto local = test::dataRead(0x1000);
    local->onDone = [](Packet&) {};
    ctrl.access(std::move(local));
    sim.run();
    EXPECT_DOUBLE_EQ(sim.stats().get("dram.reads"), 1.0);
    EXPECT_EQ(fam_path.accesses, 0u);

    // FAM-zone access -> FAM path, untranslated.
    auto fam = test::dataRead(osp.localBytes + 0x2000);
    fam->onDone = [](Packet&) {};
    ctrl.access(std::move(fam));
    sim.run();
    EXPECT_EQ(fam_path.accesses, 1u);

    // E-FAM direct mapping -> FAM path with the FAM address unwrapped.
    auto direct = test::dataRead((0x77ull | kFamDirectPageBit) *
                                     kPageSize +
                                 0x10);
    bool has_fam = false;
    FamAddr fam_addr;
    direct->onDone = [&](Packet& p) {
        has_fam = p.hasFam;
        fam_addr = p.fam;
    };
    ctrl.access(std::move(direct));
    sim.run();
    EXPECT_EQ(fam_path.accesses, 2u);
    EXPECT_TRUE(has_fam);
    EXPECT_EQ(fam_addr.value(), 0x77ull * kPageSize + 0x10);
}

} // namespace
} // namespace famsim
