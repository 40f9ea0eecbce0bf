/**
 * @file
 * End-to-end integration tests: every architecture boots and runs a
 * workload to completion; the paper's qualitative relations hold on a
 * small configuration; runs are deterministic; multi-node systems and
 * job migration work; the AT/non-AT accounting is consistent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/figure_report.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"

namespace famsim {
namespace {

SystemConfig
smallConfig(ArchKind arch, const std::string& bench = "mcf",
            std::uint64_t instr = 30000)
{
    StreamProfile profile = profiles::byName(bench);
    // Scale the footprint down so integration tests stay fast.
    profile.footprintBytes = 8 << 20;
    profile.hot1Pages = 128;
    profile.hot2Pages = 512;
    SystemConfig config = makeConfig(profile, arch, instr);
    config.coresPerNode = 2;
    return config;
}

class ArchTest : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(ArchTest, RunsToCompletion)
{
    ScopedQuietLogs quiet;
    System system(smallConfig(GetParam()));
    system.run();
    EXPECT_GT(system.ipc(), 0.0);
    // Every core retired its instructions.
    double instructions = system.sim().stats().sumMatching(".instructions");
    EXPECT_GT(instructions, 0.0);
}

TEST_P(ArchTest, DeterministicAcrossRuns)
{
    ScopedQuietLogs quiet;
    System a(smallConfig(GetParam()));
    a.run();
    System b(smallConfig(GetParam()));
    b.run();
    EXPECT_DOUBLE_EQ(a.ipc(), b.ipc());
    EXPECT_EQ(a.media().totalRequests(), b.media().totalRequests());
    EXPECT_EQ(a.sim().curTick(), b.sim().curTick());
}

TEST_P(ArchTest, NoDenialsInNormalOperation)
{
    ScopedQuietLogs quiet;
    System system(smallConfig(GetParam()));
    system.run();
    if (GetParam() != ArchKind::EFam) {
        EXPECT_DOUBLE_EQ(system.sim().stats().get("node0.stu.denials"),
                         0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, ArchTest,
                         ::testing::Values(ArchKind::EFam, ArchKind::IFam,
                                           ArchKind::DeactW,
                                           ArchKind::DeactN),
                         [](const auto& suite) {
                             std::string name = toString(suite.param);
                             name.erase(
                                 std::remove(name.begin(), name.end(), '-'),
                                 name.end());
                             return name;
                         });

TEST(SystemShape, EFamIsFastestAndDeactBeatsIFam)
{
    ScopedQuietLogs quiet;
    // The paper's headline relation on an AT-sensitive profile. This
    // needs the *full* canl footprint — on a scaled-down working set
    // the STU stops thrashing and DeACT's advantage vanishes (which is
    // itself the paper's observation about insensitive benchmarks).
    // A longer window with generous warmup approximates the paper's
    // steady state: the 64K-entry in-DRAM translation cache needs far
    // more accesses to warm up than the 1K-entry STU.
    auto run = [](ArchKind arch) {
        SystemConfig config =
            makeConfig(profiles::byName("canl"), arch, 150000);
        config.coresPerNode = 2;
        config.warmupFraction = 0.4;
        System s(config);
        s.run();
        return s.ipc();
    };
    double efam = run(ArchKind::EFam);
    double ifam = run(ArchKind::IFam);
    double deactn = run(ArchKind::DeactN);
    EXPECT_GT(efam, ifam);
    EXPECT_GT(efam, deactn);
    EXPECT_GT(deactn, ifam);
}

TEST(SystemShape, IFamHasMoreAtTrafficThanEFam)
{
    ScopedQuietLogs quiet;
    System efam(smallConfig(ArchKind::EFam, "canl", 40000));
    efam.run();
    System ifam(smallConfig(ArchKind::IFam, "canl", 40000));
    ifam.run();
    EXPECT_GT(ifam.famAtPercent(), efam.famAtPercent());
}

TEST(SystemShape, DeactTranslationHitRateExceedsIFamStu)
{
    ScopedQuietLogs quiet;
    System ifam(smallConfig(ArchKind::IFam, "canl", 40000));
    ifam.run();
    System deact(smallConfig(ArchKind::DeactN, "canl", 40000));
    deact.run();
    // The in-DRAM cache holds vastly more entries than the STU (Fig 10).
    EXPECT_GT(deact.translationHitRate(), ifam.translationHitRate());
}

TEST(SystemInvariants, EveryFamDataAccessWasVerified)
{
    ScopedQuietLogs quiet;
    for (ArchKind arch : {ArchKind::IFam, ArchKind::DeactN}) {
        System system(smallConfig(arch));
        system.run();
        const auto& stats = system.sim().stats();
        // All data requests at FAM must have passed verification:
        // data_requests <= verifications (ACM checks) per node.
        double data = stats.get("fam.data_requests");
        double verifications = stats.get("node0.stu.verifications");
        EXPECT_LE(data, verifications) << toString(arch);
    }
}

TEST(SystemInvariants, MpkiIsInACredibleRange)
{
    ScopedQuietLogs quiet;
    System system(smallConfig(ArchKind::EFam, "mcf", 60000));
    system.run();
    EXPECT_GT(system.mpki(), 10.0);
    EXPECT_LT(system.mpki(), 400.0);
}

TEST(SystemInvariants, StatsResetMakesWindowConsistent)
{
    ScopedQuietLogs quiet;
    SystemConfig config = smallConfig(ArchKind::DeactN);
    config.warmupFraction = 0.5;
    System system(config);
    system.run();
    // Post-warmup instruction count is at most ~half the limit (plus
    // the batch the leader finished before resetting).
    double instructions =
        system.sim().stats().get("node0.core0.instructions");
    EXPECT_LE(instructions,
              0.6 * static_cast<double>(config.core.instructionLimit));
}

TEST(MultiNode, TwoNodesShareFabricAndFam)
{
    ScopedQuietLogs quiet;
    SystemConfig config = smallConfig(ArchKind::DeactN, "mcf", 20000);
    config.nodes = 2;
    System system(config);
    system.run();
    EXPECT_GT(system.sim().stats().get("node0.core0.instructions"), 0.0);
    EXPECT_GT(system.sim().stats().get("node1.core0.instructions"), 0.0);
    // Both nodes' pages coexist in the shared FAM with distinct owners.
    EXPECT_NE(system.broker().logicalIdOf(0),
              system.broker().logicalIdOf(1));
}

TEST(MultiNode, ContentionSlowsSharedFabric)
{
    ScopedQuietLogs quiet;
    SystemConfig one = smallConfig(ArchKind::IFam, "mcf", 20000);
    one.fabric.serialization = 20 * kNanosecond; // exaggerate contention
    System s1(one);
    s1.run();

    SystemConfig four = one;
    four.nodes = 4;
    System s4(four);
    s4.run();

    double ipc1 = s1.sim().stats().has("node0.core0.instructions")
                      ? s1.ipc() / (1 * one.coresPerNode)
                      : 0.0;
    double ipc4 = s4.ipc() / (4 * four.coresPerNode);
    EXPECT_LT(ipc4, ipc1); // per-core slowdown under sharing
}

TEST(Migration, ShootdownForcesRetranslation)
{
    ScopedQuietLogs quiet;
    SystemConfig config = smallConfig(ArchKind::DeactN, "mcf", 20000);
    config.nodes = 2;
    System system(config);
    system.run();

    double walks_before =
        system.sim().stats().get("node0.stu.walks");
    (void)walks_before;
    auto report = system.broker().migrateJob(0, 1, /*logical=*/false);
    EXPECT_GT(report.pagesMoved, 0u);
    EXPECT_EQ(report.acmWrites, report.pagesMoved);

    auto report2 = system.broker().migrateJob(1, 0, /*logical=*/true);
    EXPECT_EQ(report2.acmWrites, 0u); // logical ids: no ACM rewrite
}

TEST(Footprint, FamTableHostBytesPerMappedPageStaySmall)
{
    // The node OS scatters FAM-zone pages across a 64 GiB zone, so
    // nearly every page sits alone in its broker leaf table; a dense
    // 512-slot leaf array would cost ~8 KiB per mapped page here.
    // hostBytes() is deterministic, so this is an exact gate.
    ScopedQuietLogs quiet;
    const Scenario* points[] = {
        &ScenarioRegistry::paper().byName("fig12_performance.mcf.deactn"),
        &SweepRegistry::paperPoints().byName("fig16_num_nodes.n16"),
    };
    for (const Scenario* scenario : points) {
        System system(scenario->config);
        for (unsigned n = 0; n < scenario->config.nodes; ++n) {
            const auto& table =
                system.broker().famTableOf(static_cast<NodeId>(n));
            ASSERT_GT(table.mappings(), 0u) << scenario->name;
            double per_page = static_cast<double>(table.hostBytes()) /
                              static_cast<double>(table.mappings());
            EXPECT_LE(per_page, 256.0)
                << scenario->name << " node " << n;
        }
    }
}

TEST(Harness, GeomeanAndConfigHelpers)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({0.0, 3.0, 3.0}), 3.0, 1e-12); // ignores zeros

    SystemConfig config = makeConfig(profiles::byName("pf"),
                                     ArchKind::DeactW, 1234);
    EXPECT_EQ(config.core.instructionLimit, 1234u);
    EXPECT_EQ(config.arch, ArchKind::DeactW);
    config.finalize();
    EXPECT_EQ(config.stu.org, StuOrg::DeactW);
}

TEST(Harness, SensitivityGroupsMatchPaper)
{
    auto groups = sensitivityGroups();
    ASSERT_EQ(groups.size(), 5u); // SPEC, PARSEC, GAP, pf, dc
    EXPECT_EQ(groups["SPEC"].size(), 3u);
    EXPECT_EQ(groups["PARSEC"].size(), 2u);
    EXPECT_EQ(groups["GAP"].size(), 4u);
    EXPECT_EQ(groups["pf"].size(), 1u);
    EXPECT_EQ(groups["dc"].size(), 1u);
}

TEST(Harness, FigureReportPrintsAllRows)
{
    FigureReport report("figx", "Fig X", "bench", {"a", "b"});
    report.addRow("mcf", {1.0, 2.0});
    report.addRow("canl", {3.0, 4.0});
    report.addSummary("geomean", 2.5);
    report.addNote("shape");
    std::ostringstream os;
    report.printTable(os);
    EXPECT_NE(os.str().find("mcf"), std::string::npos);
    EXPECT_NE(os.str().find("canl"), std::string::npos);
    EXPECT_NE(os.str().find("4.00"), std::string::npos);
    EXPECT_NE(os.str().find("geomean"), std::string::npos);
}

TEST(Harness, FigureReportRejectsBadRow)
{
    ScopedThrowOnError guard;
    FigureReport report("t", "t", "r", {"a"});
    EXPECT_THROW(report.addRow("x", {1.0, 2.0}), SimError);
}

TEST(Harness, FigureReportJsonIsWellFormedAndDeterministic)
{
    FigureReport report("figx", "Fig X", "bench", {"a", "b"});
    report.addRow("mcf", {1.0, 2.5});
    report.addSummary("geomean", 1.581);
    report.addMeta("best", "mcf");
    report.addNote("a \"quoted\" note");
    std::ostringstream first, second;
    report.writeJson(first);
    report.writeJson(second);
    EXPECT_EQ(first.str(), second.str());
    const std::string json = first.str();
    EXPECT_NE(json.find("\"figure\": \"figx\""), std::string::npos);
    EXPECT_NE(json.find("\"columns\": [\"a\", \"b\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"values\": [1, 2.5]"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

} // namespace
} // namespace famsim
