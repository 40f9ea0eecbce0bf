/**
 * @file
 * Scenario regression tests: every registered paper scenario must
 * reproduce its committed golden JSON byte-for-byte, and simulation
 * must be deterministic under a fixed seed.
 *
 * Regenerate goldens after an intentional behaviour change with
 *   FAMSIM_UPDATE_GOLDEN=1 ctest -R Scenario
 * and review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "golden.hh"
#include "harness/executor.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"

namespace famsim {
namespace {

using test::goldenPath;
using test::readFile;
using test::updateRequested;

/** Headline scenarios and sweep points share one golden machinery. */
const Scenario&
findScenario(const std::string& name)
{
    if (ScenarioRegistry::paper().has(name))
        return ScenarioRegistry::paper().byName(name);
    return SweepRegistry::paperPoints().byName(name);
}

class ScenarioGolden : public testing::TestWithParam<std::string>
{
};

TEST_P(ScenarioGolden, MatchesGoldenJson)
{
    const Scenario& scenario = findScenario(GetParam());
    test::expectGolden(scenario.name, runScenarioJson(scenario));
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
    Paper, ScenarioGolden,
    testing::ValuesIn(ScenarioRegistry::paper().names()), testId);

// One pinned point per sensitivity sweep (Fig. 13-16); the full
// expansions run via famsim_cli --sweep and the CI artifact export.
INSTANTIATE_TEST_SUITE_P(Sweeps, ScenarioGolden,
                         testing::ValuesIn(goldenSweepPointNames()),
                         testId);

/**
 * The whole golden suite again, but fanned out through the
 * SweepExecutor in one process (FAMSIM_SWEEP_JOBS workers, default 2).
 * The per-scenario TEST_P cases above each run in their own process,
 * so only this test can catch cross-point interference: worker-pooled
 * scenarios sharing thread-local packet pools or the process-wide
 * logging state must still export the exact golden bytes. Skipped in
 * FAMSIM_UPDATE_GOLDEN runs — the serial cases own regeneration.
 */
TEST(PooledGoldenRunner, WholeSuiteMatchesGoldensViaExecutor)
{
    if (updateRequested())
        GTEST_SKIP() << "goldens are regenerated by the serial cases";

    std::vector<std::string> names = ScenarioRegistry::paper().names();
    for (const std::string& name : goldenSweepPointNames())
        names.push_back(name);
    std::vector<Scenario> points;
    points.reserve(names.size());
    for (const std::string& name : names)
        points.push_back(findScenario(name));

    SweepExecutor executor(sweepJobsFromEnv(2));
    const std::vector<std::string> exports =
        executor.runScenarioJsons(points, 0);
    ASSERT_EQ(exports.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string expected = readFile(goldenPath(names[i]));
        ASSERT_FALSE(expected.empty()) << "missing golden for "
                                       << names[i];
        // runScenarioJson appends the trailing newline the raw
        // writeScenarioJson stream (and thus the executor) omits.
        EXPECT_EQ(exports[i] + "\n", expected)
            << names[i] << " diverged under the pooled runner (jobs="
            << executor.jobs() << ")";
    }
}

// ------------------------------------------------------------ registry

TEST(ScenarioRegistry, PaperCoversHeadlineFigures)
{
    const ScenarioRegistry& reg = ScenarioRegistry::paper();
    EXPECT_GE(reg.byFigure("fig09_acm_hit_rate").size(), 3u);
    EXPECT_GE(reg.byFigure("fig10_at_hit_rate").size(), 2u);
    EXPECT_GE(reg.byFigure("fig12_performance").size(), 4u);
    EXPECT_EQ(reg.byFigure("multitenant").size(), 3u);
    EXPECT_GE(reg.size(), 9u);
}

TEST(ScenarioRegistry, MultiTenantFamilyShapesAreDistinct)
{
    const ScenarioRegistry& reg = ScenarioRegistry::paper();
    const Scenario& contention =
        reg.byName("multitenant.contention.deactn");
    EXPECT_GT(contention.config.tenancy.jobs, 1u);
    EXPECT_EQ(contention.config.tenancy.churnMeanOps, 0u);
    EXPECT_TRUE(contention.config.migrations.empty());

    const Scenario& churn = reg.byName("multitenant.churn.deactn");
    EXPECT_GT(churn.config.tenancy.churnMeanOps, 0u);

    const Scenario& storm =
        reg.byName("multitenant.migration_storm.deactn");
    ASSERT_EQ(storm.config.migrations.size(), 3u);
    // Logical bounce plus one physical-id move, all inside the budget.
    EXPECT_TRUE(storm.config.migrations[0].useLogicalIds);
    EXPECT_FALSE(storm.config.migrations[2].useLogicalIds);
    for (const MigrationEvent& ev : storm.config.migrations) {
        EXPECT_LT(ev.atInstruction,
                  storm.config.core.instructionLimit);
    }
}

TEST(ScenarioRegistry, LookupAndNamesAgree)
{
    const ScenarioRegistry& reg = ScenarioRegistry::paper();
    for (const std::string& name : reg.names()) {
        ASSERT_TRUE(reg.has(name));
        const Scenario& s = reg.byName(name);
        EXPECT_EQ(s.name, name);
        EXPECT_FALSE(s.figure.empty());
        EXPECT_FALSE(s.headlineMetric.empty());
        // Scenario budgets must not depend on the environment.
        EXPECT_GT(s.config.core.instructionLimit, 0u);
    }
}

TEST(ScenarioRegistry, RejectsDuplicateNames)
{
    ScenarioRegistry reg;
    Scenario s = ScenarioRegistry::paper().byName(
        ScenarioRegistry::paper().names().front());
    reg.add(s);
    ScopedThrowOnError throw_on_error;
    EXPECT_THROW(reg.add(s), SimError);
}

// ------------------------------------------------------------- sweeps

TEST(SweepRegistry, PaperCoversSensitivityFigures)
{
    const SweepRegistry& reg = SweepRegistry::paper();
    ASSERT_TRUE(reg.has("fig13_stu_entries"));
    ASSERT_TRUE(reg.has("fig14_acm_size"));
    ASSERT_TRUE(reg.has("fig15_fabric_latency"));
    ASSERT_TRUE(reg.has("fig16_num_nodes"));
    EXPECT_EQ(reg.size(), 4u);
    for (const std::string& name : reg.names())
        EXPECT_GE(reg.byName(name).axis.points.size(), 3u);
}

TEST(SweepRegistry, Fig16CoversPaperNodeCounts)
{
    const Sweep& sweep =
        SweepRegistry::paper().byName("fig16_num_nodes");
    std::vector<double> values;
    for (const auto& p : sweep.axis.points)
        values.push_back(p.value);
    // 1-8 is the paper's range; 16/32/64 is the parallel-kernel
    // scaling extension.
    EXPECT_EQ(values, (std::vector<double>{1, 2, 4, 8, 16, 32, 64}));
    // The mutator actually reconfigures the node count.
    const std::vector<Scenario> points = sweep.expand();
    ASSERT_EQ(points.size(), values.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].figure, "fig16_num_nodes");
        EXPECT_EQ(static_cast<double>(points[i].config.nodes),
                  values[i]);
    }
}

TEST(SweepRegistry, ExpansionNamesAreRegisteredPoints)
{
    const ScenarioRegistry& points = SweepRegistry::paperPoints();
    std::size_t total = 0;
    for (const std::string& name : SweepRegistry::paper().names()) {
        const Sweep& sweep = SweepRegistry::paper().byName(name);
        total += sweep.axis.points.size();
        for (const Scenario& point : sweep.expand()) {
            ASSERT_TRUE(points.has(point.name)) << point.name;
            EXPECT_EQ(point.name.rfind(name + ".", 0), 0u)
                << "point name must be '<sweep>.<label>'";
            // Sweep budgets must not depend on the environment.
            EXPECT_GT(point.config.core.instructionLimit, 0u);
        }
    }
    EXPECT_EQ(points.size(), total);
}

TEST(SweepRegistry, GoldenPointsCoverEverySweep)
{
    const ScenarioRegistry& points = SweepRegistry::paperPoints();
    std::set<std::string> figures;
    for (const std::string& name : goldenSweepPointNames()) {
        ASSERT_TRUE(points.has(name)) << name;
        figures.insert(points.byName(name).figure);
    }
    EXPECT_EQ(figures.size(), SweepRegistry::paper().size())
        << "every sweep needs at least one golden-pinned point";
}

TEST(SweepRegistry, RejectsDuplicatesAndEmptySweeps)
{
    ScopedThrowOnError throw_on_error;
    SweepRegistry reg;
    Sweep empty;
    empty.name = "empty";
    EXPECT_THROW(reg.add(empty), SimError);

    Sweep sweep;
    sweep.name = "s";
    sweep.axis.points.push_back({"p1", 1.0, [](SystemConfig&) {}});
    reg.add(sweep);
    EXPECT_THROW(reg.add(sweep), SimError);
}

TEST(SweepJson, SameSeedSameBytes)
{
    // The famsim_cli --sweep export must be byte-stable, golden-style.
    const Sweep& sweep = SweepRegistry::paper().byName("fig14_acm_size");
    const std::string first = runSweepJson(sweep);
    const std::string second = runSweepJson(sweep);
    EXPECT_EQ(first, second);
    // And it must cover every axis point.
    for (const auto& p : sweep.axis.points) {
        EXPECT_NE(first.find("\"" + sweep.name + "." + p.label + "\""),
                  std::string::npos)
            << p.label;
    }
}

// ---------------------------------------------------------- curve gate

/**
 * Relative tolerance of the curve gates. The byte-exact goldens above
 * catch *any* behaviour change; these gates instead bound how far a
 * deliberate change may move a sensitivity curve before someone must
 * re-baseline it consciously.
 */
constexpr double kCurveTolerance = 0.05;

/**
 * Curve gate shared by every sensitivity sweep: the @p labels points
 * of @p sweep_name must stay within a per-point relative tolerance of
 * the committed baseline tests/golden/<sweep_name>.curve.json.
 * Regenerate with FAMSIM_UPDATE_GOLDEN=1 like the byte-exact goldens.
 * The points fan out through the SweepExecutor (FAMSIM_SWEEP_JOBS
 * workers), so the gate doubles as coverage of the pooled bench path.
 */
void
checkCurveGate(const std::string& sweep_name,
               const std::vector<std::string>& labels)
{
    const ScenarioRegistry& points = SweepRegistry::paperPoints();
    std::vector<SystemConfig> configs;
    configs.reserve(labels.size());
    for (const std::string& label : labels)
        configs.push_back(
            points.byName(sweep_name + "." + label).config);
    std::vector<double> actual;
    {
        ScopedQuietLogs quiet;
        SweepExecutor executor(sweepJobsFromEnv(1));
        for (const RunResult& r : executor.runResults(configs, 0))
            actual.push_back(r.ipc);
    }

    const std::string path = goldenPath(sweep_name + ".curve");
    if (updateRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write baseline " << path;
        out << "{\n  \"sweep\": \"" << sweep_name << "\",\n"
               "  \"metric\": \"ipc\",\n  \"points\": {";
        for (std::size_t i = 0; i < labels.size(); ++i) {
            out << (i ? "," : "") << "\n    \"" << labels[i] << "\": ";
            json::writeNumber(out, actual[i]);
        }
        out << "\n  }\n}\n";
        GTEST_SKIP() << "curve baseline updated: " << path;
    }

    const std::string baseline = readFile(path);
    ASSERT_FALSE(baseline.empty())
        << "missing curve baseline " << path
        << " (regenerate with FAMSIM_UPDATE_GOLDEN=1)";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const std::string key = "\"" + labels[i] + "\": ";
        const std::size_t at = baseline.find(key);
        ASSERT_NE(at, std::string::npos)
            << "baseline lacks point " << labels[i];
        const double expected =
            std::strtod(baseline.c_str() + at + key.size(), nullptr);
        ASSERT_GT(expected, 0.0) << "degenerate baseline ipc";
        const double rel = std::abs(actual[i] - expected) / expected;
        EXPECT_LE(rel, kCurveTolerance)
            << sweep_name << "." << labels[i] << " ipc " << actual[i]
            << " drifted " << 100.0 * rel << "% from baseline "
            << expected << " (tolerance " << 100.0 * kCurveTolerance
            << "%); re-baseline with FAMSIM_UPDATE_GOLDEN=1 if "
               "intentional";
    }
}

TEST(CurveGate, Fig13StuSizeStaysOnBaseline)
{
    checkCurveGate("fig13_stu_entries",
                   {"e0256", "e0512", "e1024", "e2048", "e4096"});
}

TEST(CurveGate, Fig14AcmWidthStaysOnBaseline)
{
    checkCurveGate("fig14_acm_size", {"b08", "b16", "b32"});
}

TEST(CurveGate, Fig15FabricLatencyStaysOnBaseline)
{
    checkCurveGate("fig15_fabric_latency",
                   {"ns0100", "ns0500", "ns1000", "ns3000", "ns6000"});
}

// Points n1-n16 cover the paper's range plus the first
// scaling-extension point; n32/n64 are excluded to keep the gate
// cheap on every ctest run.
TEST(CurveGate, Fig16NodeScalingStaysOnBaseline)
{
    checkCurveGate("fig16_num_nodes", {"n1", "n2", "n4", "n8", "n16"});
}

// -------------------------------------------------------- determinism

TEST(Determinism, SameSeedSameJson)
{
    Scenario scenario =
        ScenarioRegistry::paper().byName("fig12_performance.mcf.deactn");
    const std::string first = runScenarioJson(scenario);
    const std::string second = runScenarioJson(scenario);
    EXPECT_EQ(first, second)
        << "two runs with the same seed must export byte-identical "
           "JSON stats";
}

TEST(Determinism, DifferentSeedDiverges)
{
    Scenario scenario =
        ScenarioRegistry::paper().byName("fig12_performance.mcf.deactn");
    const std::string base = runScenarioJson(scenario);
    scenario.config.seed = 0xD15EA5E;
    const std::string reseeded = runScenarioJson(scenario);
    EXPECT_NE(base, reseeded)
        << "changing the seed should perturb the exported stats";
}

} // namespace
} // namespace famsim
