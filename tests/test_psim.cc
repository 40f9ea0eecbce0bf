/**
 * @file
 * Parallel kernel (src/psim/) tests.
 *
 * The headline property: for every registered paper scenario (and the
 * 16-node fig16 scaling point), the parallel kernel exports
 * byte-identical stats JSON for one worker thread and for many — the
 * schedule is deterministic by construction, so thread count must be
 * unobservable. The unit tests pin the mechanisms that property rests
 * on: arbitration order and edge floors at window barriers,
 * worker-pool epoch semantics (one epoch per window), sync-window
 * bounds, the queue-id handle and the psim half of Simulation's
 * kernel seam. ParallelGolden pins the schedule itself across builds.
 *
 * FAMSIM_THREADS (when set and >= 2) selects the "many threads" side
 * of the determinism comparisons, so CI can re-run the suite at
 * different widths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/system.hh"
#include "golden.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "psim/parallel_sim.hh"
#include "psim/worker_pool.hh"
#include "sim/logging.hh"

namespace famsim {
namespace {

/**
 * The wide side of every 1-vs-N comparison (>= 2). Defaults to 2 so
 * the FAMSIM_THREADS=4 CI pass genuinely covers a second width
 * instead of repeating the default run.
 */
unsigned
wideThreads()
{
    unsigned threads = threadsFromEnv(2);
    return threads >= 2 ? threads : 2;
}

// ------------------------------------------------- scenario property

/**
 * Every registered scenario (headline + golden sweep points, incl. the
 * 16-node fig16 scaling point) must export byte-identical JSON under
 * --threads 1 and --threads N.
 */
class ParallelDeterminism : public testing::TestWithParam<std::string>
{
};

TEST_P(ParallelDeterminism, ThreadCountIsUnobservable)
{
    const std::string& name = GetParam();
    const Scenario& scenario =
        ScenarioRegistry::paper().has(name)
            ? ScenarioRegistry::paper().byName(name)
            : SweepRegistry::paperPoints().byName(name);
    const std::string one = runScenarioJson(scenario, 1);
    const std::string many = runScenarioJson(scenario, wideThreads());
    EXPECT_EQ(one, many)
        << "scenario '" << name << "' diverged between 1 and "
        << wideThreads() << " worker threads";
}

std::string
testId(const testing::TestParamInfo<std::string>& info)
{
    std::string id = info.param;
    for (char& c : id) {
        if (c == '.' || c == '-')
            c = '_';
    }
    return id;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ParallelDeterminism,
    testing::ValuesIn(ScenarioRegistry::paper().names()), testId);

// The 16-node scaling point is the acceptance anchor; the other golden
// sweep points ride along for coverage of every swept dimension.
INSTANTIATE_TEST_SUITE_P(SweepPoints, ParallelDeterminism,
                         testing::ValuesIn(goldenSweepPointNames()),
                         testId);

// The 32/64-node scaling points exercise the sharded kernel at the
// partition counts the fig16 extension targets (64 nodes = 129
// partitions); they are not golden-pinned (no serial reference files),
// so they appear here, in the 1-vs-N matrix, only.
INSTANTIATE_TEST_SUITE_P(
    ScalingPoints, ParallelDeterminism,
    testing::Values(std::string("fig16_num_nodes.n32"),
                    std::string("fig16_num_nodes.n64")),
    testId);

/** Two mcf nodes with prefault off: runtime system-level faults. */
SystemConfig
runtimeFaultConfig()
{
    SystemConfig config =
        makeConfig(profiles::byName("mcf"), ArchKind::DeactN, 4000);
    config.nodes = 2;
    config.seed = 7;
    config.prefault = false;
    return config;
}

/** Runtime faults plus tenant churn and two broker migrations. */
SystemConfig
migrationUnderLoadConfig()
{
    SystemConfig config =
        makeConfig(profiles::byName("mcf"), ArchKind::DeactN, 8000);
    config.nodes = 2;
    config.seed = 7;
    config.prefault = false;
    config.tenancy.jobs = 3;
    config.tenancy.zipfSkew = 0.6;
    config.tenancy.churnMeanOps = 1500;
    config.migrations.push_back({3000, 0, 1, /*useLogicalIds=*/true});
    config.migrations.push_back({5000, 1, 0, /*useLogicalIds=*/false});
    return config;
}

/** Runtime system-level faults (prefault off) take the barrier-op
 *  path through the broker; it must be just as deterministic. */
TEST(ParallelDeterminismExtra, RuntimeBrokerFaultsAreDeterministic)
{
    const SystemConfig config = runtimeFaultConfig();
    auto stats_json = [&](unsigned threads) {
        System system(config);
        system.run(threads);
        EXPECT_GT(system.sim().stats().get("broker.faults"), 0.0)
            << "config did not exercise the runtime fault path";
        return system.sim().stats().jsonString();
    };
    EXPECT_EQ(stats_json(1), stats_json(wideThreads()));
}

/**
 * The worst-case multi-tenant mix on the parallel kernel: runtime
 * faults (prefault off), tenant churn and broker migrations — logical
 * and physical — while every core keeps issuing. The migrations take
 * the barrier-op path (System posts them at the broker edge lookahead
 * and the ACM rewrite traffic is scheduled onto the owning media
 * partitions), so the whole mix must stay thread-count invariant.
 */
TEST(ParallelDeterminismExtra, MigrationUnderLoadIsDeterministic)
{
    const SystemConfig config = migrationUnderLoadConfig();
    auto stats_json = [&](unsigned threads) {
        System system(config);
        system.run(threads);
        EXPECT_DOUBLE_EQ(system.sim().stats().get("broker.migrations"),
                         2.0);
        EXPECT_GT(system.sim().stats().get("broker.faults"), 0.0)
            << "config did not exercise the runtime fault path";
        return system.sim().stats().jsonString();
    };
    const std::string one = stats_json(1);
    EXPECT_EQ(one, stats_json(2));
    EXPECT_EQ(one, stats_json(wideThreads()));
}

/**
 * Trace replay on the parallel kernel: a recorded scenario must replay
 * byte-identically at any worker count, and identically to the
 * synthetic run it was recorded from. (The registered *.selfreplay
 * scenarios already go through the 1-vs-N matrix above; this pins the
 * full record -> replay chain under both kernels explicitly.)
 */
TEST(ParallelDeterminismExtra, TraceReplayIsThreadCountInvariant)
{
    Scenario scenario;
    scenario.name = "test.trace_replay_threads";
    scenario.figure = "test";
    scenario.headlineMetric = "ipc";
    scenario.config = makeConfig(profiles::uniformTest(4ull << 20),
                                 ArchKind::DeactN, 4000);
    scenario.config.nodes = 2;
    scenario.config.coresPerNode = 2;
    scenario.config.seed = 5;

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("famsim_psim_replay_" +
          std::to_string(::testing::UnitTest::GetInstance()
                             ->random_seed())))
            .string();
    const std::string synthetic = runScenarioJson(scenario, 1);
    const std::string recorded = recordScenarioTraces(
        scenario, dir, TraceFormat::Binary, /*threads=*/1);
    EXPECT_EQ(synthetic, recorded);
    EXPECT_EQ(synthetic, replayScenarioJson(scenario, dir, 1));
    EXPECT_EQ(synthetic,
              replayScenarioJson(scenario, dir, wideThreads()));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// ----------------------------------------------- parallel goldens

/** Stats JSON of one System run on the partitioned kernel. */
std::string
parallelStatsJson(const SystemConfig& config, unsigned threads)
{
    System system(config);
    system.run(threads);
    return system.sim().stats().jsonString();
}

/*
 * The partitioned kernel's own schedule, pinned at two threads. The
 * serial goldens never run it and the 1-vs-N matrix compares thread
 * counts within one build, so only these files notice a kernel change
 * that reorders a same-tick fabric delivery against a barrier op's
 * events: fig16 n4 carries fabric contention, the other two runtime
 * broker faults and migrations under load.
 */
TEST(ParallelGolden, Fig16FourNodes)
{
    test::expectGolden(
        "parallel.fig16_num_nodes.n4",
        runScenarioJson(
            SweepRegistry::paperPoints().byName("fig16_num_nodes.n4"), 2));
}

TEST(ParallelGolden, RuntimeBrokerFaults)
{
    test::expectGolden("parallel.runtime_faults",
                       parallelStatsJson(runtimeFaultConfig(), 2));
}

TEST(ParallelGolden, MigrationUnderLoad)
{
    test::expectGolden("parallel.migration_under_load",
                       parallelStatsJson(migrationUnderLoadConfig(), 2));
}

// --------------------------------------------- arbitrated deliveries

/**
 * Lay @p sim out as one node (partition 0), @p media media modules
 * (partitions 1..media) and the broker (last); @return a topology with
 * every edge @p lookahead wide.
 */
ParallelSim::Topology
uniformTopology(Simulation& sim, std::uint32_t media, Tick lookahead)
{
    sim.setPartitions(PartitionLayout(1, media));
    return ParallelSim::Topology{lookahead, lookahead};
}

/**
 * Test arbiter: delivers every send a fixed @p delay after it left,
 * recording (sendTick, channel) in arbitration order.
 */
class DelayArbiter : public Arbiter
{
  public:
    explicit DelayArbiter(Tick delay) : delay_(delay) {}

    Tick
    arbitrate(unsigned channel, Tick sent) override
    {
        order.emplace_back(sent, channel);
        return sent + delay_;
    }

    std::vector<std::pair<Tick, unsigned>> order;

  private:
    Tick delay_;
};

/** Arbitration runs in (sendTick, src, seq) order on the sender's
 *  tick, not the barrier's, and the deliveries reach the destination
 *  at the returned ticks in that same order. */
TEST(Mailbox, ArbitratedDrainUsesSenderTickOrder)
{
    Simulation sim;
    ParallelSim psim(sim, uniformTopology(sim, /*media=*/2, /*lookahead=*/50),
                     2);
    DelayArbiter arbiter(50);

    // The channel carries the source id, so the arbiter's record
    // shows which source each send came from.
    std::vector<std::pair<Tick, unsigned>> delivered;
    auto send = [&](unsigned src) {
        return [&psim, &sim, &arbiter, &delivered, src] {
            psim.postArbitrated(arbiter, src, 0, makeDelivery([&, src] {
                delivered.emplace_back(sim.curTick(), src);
            }));
        };
    };
    psim.withPartition(2, [&] { sim.events().schedule(7, send(2)); });
    psim.withPartition(1, [&] {
        sim.events().schedule(7, send(1));
        sim.events().schedule(3, send(1));
    });
    psim.run();

    EXPECT_EQ(arbiter.order, (std::vector<std::pair<Tick, unsigned>>{
                                 {3, 1}, {7, 1}, {7, 2}}));
    EXPECT_EQ(delivered, (std::vector<std::pair<Tick, unsigned>>{
                             {53, 1}, {57, 1}, {57, 2}}));
}

/** Lookahead violations are simulator bugs and must be caught. */
TEST(Mailbox, PostBelowLookaheadPanics)
{
    ScopedThrowOnError throw_on_error;
    Simulation sim;
    ParallelSim psim(sim, uniformTopology(sim, 1, /*lookahead=*/100), 1);
    DelayArbiter arbiter(50);
    psim.withPartition(0, [&] {
        sim.events().schedule(10, [&] {
            psim.postArbitrated(arbiter, 0, 1, makeDelivery([] {}));
        });
    });
    EXPECT_THROW(psim.run(), SimError);
}

// ---------------------------------------------------- global barrier ops

TEST(GlobalOps, RunAtBarriersInDueSourceOrder)
{
    Simulation sim;
    ParallelSim psim(sim, uniformTopology(sim, 1, /*lookahead=*/100), 2);

    std::vector<std::pair<Tick, unsigned>> order;
    psim.withPartition(1, [&] {
        sim.events().schedule(5, [&] {
            psim.postGlobal(205, [&] { order.emplace_back(205, 1u); });
        });
    });
    psim.withPartition(0, [&] {
        sim.events().schedule(5, [&] {
            psim.postGlobal(205, [&] { order.emplace_back(205, 0u); });
            psim.postGlobal(110, [&] { order.emplace_back(110, 0u); });
        });
    });
    psim.run();

    std::vector<std::pair<Tick, unsigned>> expected{
        {110, 0u}, {205, 0u}, {205, 1u}};
    EXPECT_EQ(order, expected);
}

/** Global ops come from inside a partition (an event or a barrier
 *  op); a post from outside every partition is a caller bug. */
TEST(GlobalOps, PostFromOutsideAPartitionPanics)
{
    ScopedThrowOnError throw_on_error;
    Simulation sim;
    ParallelSim psim(sim, uniformTopology(sim, 1, /*lookahead=*/100), 1);
    EXPECT_THROW(psim.postGlobal(10, [] {}), SimError);
}

// ------------------------------------------------------- worker pool

TEST(WorkerPool, EveryTaskRunsExactlyOncePerEpoch)
{
    WorkerPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    for (int epoch = 0; epoch < 50; ++epoch) {
        constexpr std::size_t kTasks = 17; // more tasks than workers
        std::vector<std::atomic<int>> counts(kTasks);
        pool.runEpoch(kTasks, [&](std::size_t task) {
            counts[task].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t t = 0; t < kTasks; ++t)
            EXPECT_EQ(counts[t].load(), 1) << "task " << t;
    }
    EXPECT_EQ(pool.epochs(), 50u);
}

TEST(WorkerPool, SingleThreadRunsInline)
{
    WorkerPool pool(1);
    std::vector<std::size_t> ran;
    pool.runEpoch(4, [&](std::size_t task) { ran.push_back(task); });
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
    pool.runEpoch(0, [&](std::size_t) { FAIL() << "no tasks expected"; });
    EXPECT_EQ(pool.epochs(), 1u) << "an empty epoch is not counted";
}

/**
 * Many short epochs with varying task counts (zero included). Tasks
 * write plain, non-atomic slots that the caller reads right after
 * runEpoch and the next epoch overwrites, so a missing release/acquire
 * edge in the barrier shows up as a stale value here and as a data
 * race under TSan.
 */
TEST(WorkerPool, ManyShortEpochsPublishPlainWrites)
{
    WorkerPool pool(4);
    constexpr std::size_t kMaxTasks = 37;
    constexpr std::uint64_t kRounds = 12000;
    std::vector<std::uint64_t> slots(kMaxTasks, 0);
    std::uint64_t nonEmpty = 0;
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
        const std::size_t tasks = round % kMaxTasks;
        pool.runEpoch(tasks, [&](std::size_t task) {
            slots[task] = round * kMaxTasks + task;
        });
        nonEmpty += tasks > 0 ? 1 : 0;
        for (std::size_t t = 0; t < tasks; ++t)
            ASSERT_EQ(slots[t], round * kMaxTasks + t) << "round " << round;
    }
    EXPECT_EQ(pool.epochs(), nonEmpty);
}

/** Workers idle past the spin budget park; an epoch and the shutdown
 *  must still wake them promptly. */
TEST(WorkerPool, ParkedWorkersWakeAndShutDownPromptly)
{
    using std::chrono::steady_clock;
    auto pool = std::make_unique<WorkerPool>(4);
    std::atomic<int> ran{0};
    auto count = [&](std::size_t) { ran.fetch_add(1); };
    // kSpinBudget pause instructions take well under a millisecond.
    const auto park = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    park();
    pool->runEpoch(8, count);
    EXPECT_EQ(ran.load(), 8);
    park();
    const auto start = steady_clock::now();
    pool.reset();
    EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(1));
}

/**
 * Every window is exactly one pool epoch: the inbox flush and the
 * window's execution share one task. The window counts themselves are
 * pinned too — the host-independent cadence of the kernel. fig16 n4
 * steps at the fabric edge (450 ns < the 2 us broker edge); fig15
 * ns3000 steps at the broker edge (2 us < the 2.95 us fabric leg).
 */
TEST(WorkerPool, OneEpochPerWindow)
{
    const std::pair<const char*, std::uint64_t> pinned[] = {
        {"fig16_num_nodes.n4", 1425},
        {"fig15_fabric_latency.ns3000", 1300},
    };
    for (const auto& [name, windows] : pinned) {
        const Scenario& scenario = SweepRegistry::paperPoints().byName(name);
        for (unsigned threads : {2u, 4u}) {
            System system(scenario.config);
            system.run(threads);
            EXPECT_EQ(system.parallelWindows(), windows)
                << name << " at " << threads << " threads";
            EXPECT_EQ(system.parallelPoolEpochs(), system.parallelWindows())
                << name << " at " << threads << " threads";
        }
    }
}

// -------------------------------------------------- per-edge lookahead

/** The famSystem topology used by the sharded-kernel units: lay
 *  @p sim out as two nodes, two media modules and a broker; fabric edge
 *  100, broker edge 1000. */
ParallelSim::Topology
famTopology(Simulation& sim)
{
    sim.setPartitions(PartitionLayout(2, 2));
    ParallelSim::Topology topo;
    topo.fabricLookahead = 100;
    topo.brokerLookahead = 1000;
    return topo;
}

TEST(PerEdgeLookahead, TopologyLaysOutNodesMediaBroker)
{
    Simulation sim;
    ParallelSim psim(sim, famTopology(sim), 1);
    const PartitionLayout& layout = sim.partitions();
    EXPECT_EQ(layout.count(), 5u);
    EXPECT_EQ(layout.node(1), 1u);
    EXPECT_EQ(layout.media(0), 2u);
    EXPECT_EQ(layout.media(1), 3u);
    EXPECT_EQ(layout.broker(), 4u);
    for (std::uint32_t p = 0; p < layout.count(); ++p)
        EXPECT_EQ(psim.queueOf(p).id(), p);
    EXPECT_EQ(psim.kindOf(0), ParallelSim::Kind::Node);
    EXPECT_EQ(psim.kindOf(2), ParallelSim::Kind::Media);
    EXPECT_EQ(psim.kindOf(4), ParallelSim::Kind::Broker);
    // The matrix: node<->media at the fabric latency, broker edges at
    // the service latency, same-kind pairs edgeless.
    EXPECT_EQ(psim.lookaheadBetween(0, 2), 100u);
    EXPECT_EQ(psim.lookaheadBetween(3, 1), 100u);
    EXPECT_EQ(psim.lookaheadBetween(0, 4), 1000u);
    EXPECT_EQ(psim.lookaheadBetween(4, 2), 1000u);
    EXPECT_EQ(psim.lookaheadBetween(0, 1), ParallelSim::kNever);
    EXPECT_EQ(psim.lookaheadBetween(2, 3), ParallelSim::kNever);
    // The base window width is the smallest finite edge.
    EXPECT_EQ(psim.lookahead(), 100u);
    psim.run();
}

/**
 * Run one arbitrated send (Simulation::send, whose psim half is
 * postArbitrated) on famTopology() from partition @p src to @p dst at
 * tick 10, delivered @p delay later. @return true when the kernel
 * rejected it (edgeless pair at the send, or a delivery under the edge
 * lookahead at the barrier).
 */
bool
arbitratedSendFails(std::uint32_t src, std::uint32_t dst, Tick delay)
{
    ScopedThrowOnError throw_on_error;
    Simulation sim;
    ParallelSim psim(sim, famTopology(sim), 1);
    DelayArbiter arbiter(delay);
    psim.withPartition(src, [&] {
        sim.events().schedule(10,
                              [&] { sim.send(arbiter, 0, dst, [] {}); });
    });
    try {
        psim.run();
    } catch (const SimError&) {
        return true;
    }
    return false;
}

/** Arbitrated deliveries must clear the (src, dst) edge floor, not a
 *  single global lookahead — and edgeless pairs are rejected at the
 *  send. */
TEST(PerEdgeLookahead, PostsEnforceTheEdgeFloors)
{
    // node -> media rides the fabric edge (100)...
    EXPECT_TRUE(arbitratedSendFails(0, 2, 99));
    EXPECT_FALSE(arbitratedSendFails(0, 2, 100));
    // ...node -> broker the service edge (1000)...
    EXPECT_TRUE(arbitratedSendFails(0, 4, 999));
    EXPECT_FALSE(arbitratedSendFails(0, 4, 1000));
    // ...and node -> node has no edge at all.
    EXPECT_TRUE(arbitratedSendFails(0, 1, 100000));
}

// ------------------------------------------------- kernel seam, psim half

/**
 * With psim bound, the seam's calls go through the kernel: atBarrier
 * (even at now) becomes a global op run at the next barrier on the
 * broker partition, deliver() from it lands in the destination's
 * inbox, and send() waits in the arbitration lane until the barrier.
 * Two nodes (0, 1), one media module (2), the broker (3).
 */
TEST(KernelSeam, ParallelCallsGoThroughTheKernel)
{
    Simulation sim;
    sim.setPartitions(PartitionLayout(2, 1));
    ParallelSim psim(sim, ParallelSim::Topology{100, 1000}, 2);
    DelayArbiter arbiter(100);
    // (what, partition, tick), in the order things ran.
    std::vector<std::tuple<std::string, std::uint32_t, Tick>> ran;
    auto note = [&](const std::string& what) {
        ran.emplace_back(what, ParallelSim::currentPartition(),
                         sim.curTick());
    };
    psim.withPartition(0, [&] {
        sim.events().schedule(10, [&] {
            sim.atBarrier(sim.curTick(), [&] { note("barrier-now"); });
            sim.atBarrier(1010, [&] {
                note("barrier-later");
                sim.deliver(1, 1010, [&] { note("delivered"); });
            });
            sim.send(arbiter, 0, sim.partitions().media(0),
                     [&] { note("sent"); });
            EXPECT_TRUE(ran.empty()) << "nothing runs in place";
            EXPECT_TRUE(arbiter.order.empty()) << "arbitrated at the barrier";
            EXPECT_TRUE(sim.onPartition(0));
            EXPECT_FALSE(sim.onPartition(1));
        });
    });
    psim.run();
    ASSERT_EQ(ran.size(), 4u);
    EXPECT_EQ(std::get<0>(ran[0]), "barrier-now");
    EXPECT_EQ(std::get<1>(ran[0]), sim.partitions().broker());
    EXPECT_EQ(ran[1], std::make_tuple(std::string("sent"), 2u, Tick{110}));
    EXPECT_EQ(std::get<0>(ran[2]), "barrier-later");
    EXPECT_EQ(std::get<1>(ran[2]), sim.partitions().broker());
    EXPECT_EQ(ran[3],
              std::make_tuple(std::string("delivered"), 1u, Tick{1010}));
    EXPECT_EQ(arbiter.order,
              (std::vector<std::pair<Tick, unsigned>>{{10, 0}}));
}

/**
 * FabricLink names its destinations through the layout: on two nodes
 * and two media modules (partitions 0-1 and 2-3), a request for module
 * 1 arrives on partition 3 and a response for node 1 on partition 1.
 */
TEST(KernelSeam, FabricLinkRoutesThroughTheLayout)
{
    Simulation sim;
    sim.setPartitions(PartitionLayout(2, 2));
    FabricLink fabric(sim, "fabric", FabricParams{100, 2});
    ParallelSim psim(sim, ParallelSim::Topology{100, 1000}, 1);
    std::vector<std::pair<std::uint32_t, Tick>> arrived;
    auto record = [&] {
        arrived.emplace_back(ParallelSim::currentPartition(),
                             sim.curTick());
    };
    psim.withPartition(0, [&] {
        sim.events().schedule(10, [&] { fabric.sendRequest(1, record); });
    });
    psim.withPartition(2, [&] {
        sim.events().schedule(10, [&] { fabric.sendResponse(1, record); });
    });
    psim.run();
    std::sort(arrived.begin(), arrived.end());
    EXPECT_EQ(arrived, (std::vector<std::pair<std::uint32_t, Tick>>{
                           {1, 110}, {3, 110}}));
    EXPECT_DOUBLE_EQ(sim.stats().get("fabric.packets"), 2.0);
}

/**
 * Every window is one base lookahead (the fabric edge, 100) wide,
 * whichever partition anchors it: broker-partition work, whose own
 * cheapest outgoing edge is the 1000-tick broker edge, still steps
 * 100 ticks at a time. The idle gap before the node event is skipped
 * in one hop: [10, 110), [110, 210), ..., [510, 610), [900, 1000).
 */
TEST(PerEdgeLookahead, WindowsAreOneBaseLookaheadWide)
{
    Simulation sim;
    ParallelSim psim(sim, famTopology(sim), 1);
    std::uint64_t broker_events = 0;
    psim.withPartition(sim.partitions().broker(), [&] {
        for (Tick t = 10; t <= 510; t += 100)
            sim.events().schedule(t, [&broker_events] { ++broker_events; });
    });
    bool node_ran = false;
    psim.withPartition(0, [&] {
        sim.events().schedule(900, [&node_ran] { node_ran = true; });
    });
    psim.run();
    EXPECT_EQ(broker_events, 6u);
    EXPECT_TRUE(node_ran);
    EXPECT_EQ(psim.epoch(), 7u);
    EXPECT_EQ(psim.queueOf(sim.partitions().broker()).curTick(), 999u);
}

// ------------------------------------------------------- sync window

TEST(SyncWindow, OpensAtMinPendingAndTracksEpochs)
{
    SyncWindow window(450);
    EXPECT_EQ(window.lookahead(), 450u);
    EXPECT_EQ(window.epoch(), 0u);
    auto bounds = window.open(1000);
    EXPECT_EQ(bounds.start, 1000u);
    EXPECT_EQ(bounds.end, 1450u);
    bounds = window.open(5000); // idle gap skipped in one hop
    EXPECT_EQ(bounds.start, 5000u);
    EXPECT_EQ(bounds.end, 5450u);
    EXPECT_EQ(window.epoch(), 2u);
}

TEST(SyncWindow, RejectsZeroLookaheadAndBackwardWindows)
{
    ScopedThrowOnError throw_on_error;
    EXPECT_THROW(SyncWindow bad(0), SimError);
    SyncWindow window(10);
    (void)window.open(100);
    EXPECT_THROW((void)window.open(50), SimError);
}

/** A cap below the base width ends the window early; a cap above it
 *  changes nothing, so no window is ever wider than the lookahead. */
TEST(SyncWindow, CapOnlyShortensTheWindow)
{
    SyncWindow window(100);
    auto bounds = window.open(10, /*cap=*/60);
    EXPECT_EQ(bounds.start, 10u);
    EXPECT_EQ(bounds.end, 60u);
    bounds = window.open(200, /*cap=*/1000);
    EXPECT_EQ(bounds.start, 200u);
    EXPECT_EQ(bounds.end, 300u);
    EXPECT_EQ(window.epoch(), 2u);
}

/** Near the Tick horizon the window end saturates instead of
 *  wrapping (a wrapped end would open a backwards, empty window). */
TEST(SyncWindow, WindowEndSaturatesAtTheTickHorizon)
{
    ScopedThrowOnError throw_on_error;
    EXPECT_EQ(SyncWindow::satAdd(SyncWindow::kTickMax - 5, 100),
              SyncWindow::kTickMax);
    EXPECT_EQ(SyncWindow::satAdd(7, SyncWindow::kTickMax),
              SyncWindow::kTickMax);
    EXPECT_EQ(SyncWindow::satAdd(7, 100), 107u);

    SyncWindow window(100);
    auto bounds = window.open(SyncWindow::kTickMax - 5);
    EXPECT_EQ(bounds.end, SyncWindow::kTickMax);
    // An empty (or wrapped) window is a kernel bug and must be caught.
    EXPECT_THROW((void)window.open(SyncWindow::kTickMax,
                                   SyncWindow::kTickMax),
                 SimError);
}

// ------------------------------------------------- queue-id handle

TEST(QueueHandle, PartitionQueuesCarryTheirIdAndNextTick)
{
    Simulation sim;
    ParallelSim psim(sim, uniformTopology(sim, 1, /*lookahead=*/10), 1);
    EXPECT_EQ(sim.partitions().broker(), 2u);
    for (std::uint32_t p = 0; p < 3; ++p)
        EXPECT_EQ(psim.queueOf(p).id(), p);

    EXPECT_EQ(psim.queueOf(1).nextTick(), EventQueue::kForever);
    psim.withPartition(1, [&] {
        EXPECT_EQ(&sim.events(), &psim.queueOf(1))
            << "events() must resolve to the entered partition";
        sim.events().schedule(42, [] {});
    });
    EXPECT_EQ(psim.queueOf(1).nextTick(), 42u);
    EXPECT_EQ(sim.serialEvents().id(), 0u);
    psim.run();
    // The window [42, 52) ran every partition through the horizon.
    EXPECT_EQ(psim.queueOf(1).curTick(), 51u);
    EXPECT_EQ(psim.queueOf(1).executed(), 1u);
}

} // namespace
} // namespace famsim
