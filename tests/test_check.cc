/**
 * @file
 * Partition-ownership checker (FAMSIM_CHECK, src/sim/check.hh).
 *
 * The negative tests seed deliberate ownership violations — a
 * cross-partition stat write, a mid-exec mailbox bypass (direct
 * schedule onto a foreign queue), an inbox push inside a window, a
 * packet pool op during an inbox flush — and pin the
 * owner/accessor/phase diagnostic. They run the kernel with
 * threads = 1, where the worker pool degenerates to a plain caller
 * loop, so the panic-thrown SimError (ScopedThrowOnError) propagates
 * to the test without forking; the checker itself is
 * thread-count-independent, firing at the same event on every run.
 *
 * When the checker is compiled out the suite reduces to one skipped
 * placeholder, keeping the ctest inventory identical across builds.
 */

#include <gtest/gtest.h>

#include <string>

#include "mem/packet.hh"
#include "psim/node_queue.hh"
#include "psim/parallel_sim.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace famsim {
namespace {

#if FAMSIM_CHECK

/** Node 0, media module 1 and the broker (2); every edge 10 ticks. */
const PartitionLayout kLayout{1, 1};
constexpr ParallelSim::Topology kTopology{10, 10};

/** Expect @p msg to name the owner, the accessor and the phase. */
void
expectDiagnostic(const std::string& msg, const std::string& owner,
                 const std::string& accessor, const std::string& phase)
{
    EXPECT_NE(msg.find(owner), std::string::npos) << msg;
    EXPECT_NE(msg.find(accessor), std::string::npos) << msg;
    EXPECT_NE(msg.find("during the " + phase + " phase"),
              std::string::npos)
        << msg;
}

TEST(OwnershipCheck, CrossPartitionStatWriteFatals)
{
    Simulation sim;
    sim.setPartitions(kLayout);
    ParallelSim psim(sim, kTopology, 1);
    Counter* victim = nullptr;
    {
        check::WiringScope wire(1);
        victim = &sim.stats().counter("check.victim", "owned by 1");
    }
    // Seed the violation: an event on partition 0 bumps partition 1's
    // counter directly instead of routing through an arbitrated send.
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] { ++*victim; });
    });
    ScopedThrowOnError guard;
    try {
        psim.run();
        FAIL() << "expected the ownership checker to fire";
    } catch (const SimError& err) {
        const std::string msg = err.what();
        expectDiagnostic(msg, "owned by partition 1", "partition 0",
                         "exec");
        EXPECT_NE(msg.find("check.victim"), std::string::npos) << msg;
    }
}

TEST(OwnershipCheck, MidExecMailboxBypassFatals)
{
    Simulation sim;
    sim.setPartitions(kLayout);
    ParallelSim psim(sim, kTopology, 1);
    // Seed the bypass: mid-exec, partition 0 schedules straight onto
    // partition 1's queue instead of sending through the kernel.
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] {
            psim.queueOf(1).schedule(100, [] {});
        });
    });
    ScopedThrowOnError guard;
    try {
        psim.run();
        FAIL() << "expected the ownership checker to fire";
    } catch (const SimError& err) {
        expectDiagnostic(err.what(), "owned by partition 1",
                         "partition 0", "exec");
    }
}

TEST(OwnershipCheck, InboxPushInsideWindowFatals)
{
    // Unit-level: inboxes are written only between windows. Fake an
    // exec context for partition 1 and push into partition 0's inbox.
    NodeQueue nq(0);
    check::PhaseScope phase(1, check::Phase::Exec);
    ScopedThrowOnError guard;
    try {
        nq.deliver(50, makeDelivery([] {}));
        FAIL() << "expected the ownership checker to fire";
    } catch (const SimError& err) {
        expectDiagnostic(err.what(), "inbox of partition 0",
                         "partition 1", "exec");
    }
}

TEST(OwnershipCheck, PacketPoolOpDuringDrainFatals)
{
    check::PhaseScope phase(0, check::Phase::Drain);
    ScopedThrowOnError guard;
    try {
        (void)makePacket(0, 0, MemOp::Read, PacketKind::Data);
        FAIL() << "expected the ownership checker to fire";
    } catch (const SimError& err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("packet pool operation"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("drain phase"), std::string::npos) << msg;
    }
}

TEST(OwnershipCheck, FiresIdenticallyOnEveryRun)
{
    // Determinism of the checker itself: the same seeded violation
    // produces byte-identical diagnostics run after run.
    std::string first;
    for (int round = 0; round < 3; ++round) {
        Simulation sim;
        sim.setPartitions(kLayout);
        ParallelSim psim(sim, kTopology, 1);
        Counter* victim = nullptr;
        {
            check::WiringScope wire(1);
            victim = &sim.stats().counter("check.victim", "owned by 1");
        }
        psim.withPartition(0, [&] {
            sim.events().schedule(5, [&] { ++*victim; });
        });
        ScopedThrowOnError guard;
        std::string msg;
        try {
            psim.run();
        } catch (const SimError& err) {
            msg = err.what();
        }
        ASSERT_FALSE(msg.empty());
        if (round == 0)
            first = msg;
        else
            EXPECT_EQ(msg, first);
    }
}

TEST(OwnershipCheck, LegalTrafficIsNotFlagged)
{
    // The positive contract: partition-local bumps, an arbitrated send
    // and the delivered continuation's writes on the owning partition
    // all pass, and the run completes with the expected counts.
    struct TenTicks : Arbiter {
        Tick
        arbitrate(unsigned, Tick sent) override
        {
            return sent + 10;
        }
    } arbiter;
    Simulation sim;
    sim.setPartitions(kLayout);
    ParallelSim psim(sim, kTopology, 1);
    Counter* local = nullptr;
    Counter* remote = nullptr;
    {
        check::WiringScope wire(0);
        local = &sim.stats().counter("check.local", "owned by 0");
    }
    {
        check::WiringScope wire(1);
        remote = &sim.stats().counter("check.remote", "owned by 1");
    }
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] {
            ++*local;
            psim.postArbitrated(arbiter, 0, 1,
                                makeDelivery([&] { ++*remote; }));
        });
    });
    psim.run();
    EXPECT_EQ(local->value(), 1u);
    EXPECT_EQ(remote->value(), 1u);
}

TEST(OwnershipCheck, BarrierOpsMayTouchAnyPartition)
{
    // Global barrier ops run single-threaded between windows; the
    // Barrier phase deliberately exempts them, so a warmup-style
    // cross-partition stat reset/bump must not trip the checker.
    Simulation sim;
    sim.setPartitions(kLayout);
    ParallelSim psim(sim, kTopology, 1);
    Counter* owned = nullptr;
    {
        check::WiringScope wire(0);
        owned = &sim.stats().counter("check.owned", "owned by 0");
    }
    psim.withPartition(1, [&] {
        sim.events().schedule(5, [&] {
            psim.postGlobal(sim.curTick() + 10, [&] { ++*owned; });
        });
    });
    psim.run();
    EXPECT_EQ(owned->value(), 1u);
}

TEST(OwnershipCheck, UnstampedObjectsAreNeverChecked)
{
    // Serial-mode fixtures register stats with no WiringScope active:
    // unowned tags must stay permanently exempt.
    Simulation sim;
    sim.setPartitions(kLayout);
    Counter& c = sim.stats().counter("check.unowned", "no owner");
    ParallelSim psim(sim, kTopology, 1);
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] { ++c; });
    });
    psim.run();
    EXPECT_EQ(c.value(), 1u);
}

#else // !FAMSIM_CHECK

TEST(OwnershipCheck, RequiresFamsimCheckBuild)
{
    GTEST_SKIP() << "FAMSIM_CHECK is compiled out in this build "
                    "(configure with -DFAMSIM_CHECK=ON, or build Debug)";
}

#endif // FAMSIM_CHECK

} // namespace
} // namespace famsim
