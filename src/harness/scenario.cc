#include "harness/scenario.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "harness/runner.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace famsim {

namespace {

/**
 * Scenario runs are regression baselines: the budget is fixed here
 * (never via FAMSIM_INSTR) so the exported stats are reproducible on
 * every machine. Large enough for the translation structures to reach
 * steady state, small enough that the whole suite runs in seconds.
 */
constexpr std::uint64_t kScenarioInstructions = 60000;

Scenario
makeScenario(const std::string& figure, const std::string& description,
             const std::string& headline_metric, const std::string& bench,
             ArchKind arch)
{
    Scenario s;
    s.figure = figure;
    s.description = description;
    s.headlineMetric = headline_metric;
    s.config = makeConfig(profiles::byName(bench), arch,
                          kScenarioInstructions);
    // Pin the seed explicitly: goldens must not move if the
    // SystemConfig default seed ever changes.
    s.config.seed = 1;
    s.name = figure + "." + bench + "." + archTag(arch);
    return s;
}

/**
 * A multi-tenant scenario: the Table II system with several competing
 * jobs interleaved on every core (workload/multi_tenant.hh). All three
 * family members run mcf — the paper's canonical AT-sensitive
 * benchmark — on DeACT-N with two nodes, so the tenants contend for
 * the shared STU, ACM and FAM media paths that the per-job tables
 * attribute.
 */
Scenario
makeTenantScenario(const std::string& tag, const std::string& description,
                   const TenancyParams& tenancy,
                   std::vector<MigrationEvent> migrations = {})
{
    Scenario s = makeScenario("multitenant", description, "ipc", "mcf",
                              ArchKind::DeactN);
    s.name = "multitenant." + tag + ".deactn";
    s.config.nodes = 2;
    s.config.tenancy = tenancy;
    s.config.migrations = std::move(migrations);
    return s;
}

/**
 * A unique temp-file path for a self-replay capture. The pid + serial
 * keep concurrently running test binaries (ctest -j) and repeated
 * System constructions within one process from colliding.
 */
std::string
uniqueTempTracePath(unsigned node, unsigned core, TraceFormat format)
{
    static std::atomic<std::uint64_t> serial{0};
    std::ostringstream os;
    os << "famsim_selfreplay_" << ::getpid() << "_"
       << serial.fetch_add(1, std::memory_order_relaxed) << "_"
       << traceFileName(node, core, format);
    return (std::filesystem::temp_directory_path() / os.str()).string();
}

/**
 * A trace-replay scenario: every core records its synthetic stream to
 * a temporary trace file (budget + slack ops, more than a core can
 * consume, plus the generator's full prefault footprint), opens it
 * through the real TraceReader::open dispatch, unlinks it (the reader
 * keeps the file handle) and replays it. The golden pins the whole
 * frontend — writer, open dispatch, streaming reader, footprint
 * round-trip — and doubles as the replay == synthesis lock: the
 * replayed prefix is exactly what the synthetic generator produces,
 * so the stats must match a plain StreamGen run of the same config.
 * The registered pair drives the one binary decoder through a plain
 * file and through a gzip stream.
 */
Scenario
makeTraceScenario(const std::string& tag, const StreamProfile& profile,
                  TraceFormat format, const std::string& description)
{
    Scenario s;
    s.figure = "trace_replay";
    s.description = description;
    s.headlineMetric = "ipc";
    s.config = makeConfig(profile, ArchKind::DeactN,
                          kScenarioInstructions);
    s.config.seed = 1;
    const std::uint64_t budget = kScenarioInstructions + 16;
    StreamProfile p = profile;
    s.config.workloadFactory =
        [p, format, budget](unsigned node,
                            unsigned core) -> std::unique_ptr<WorkloadGen> {
        StreamGen gen(p, kWorkloadVaBase, 1, node * 64 + core);
        const std::string path = uniqueTempTracePath(node, core, format);
        {
            TraceWriter writer(path, format);
            writer.setFootprint(gen.footprintPages());
            writer.record(gen, budget);
        }
        auto reader = TraceReader::open(path);
        std::error_code ec;
        std::filesystem::remove(path, ec); // reader holds the handle
        return reader;
    };
    s.name = "trace_replay." + tag;
    return s;
}

ScenarioRegistry
buildPaperRegistry()
{
    ScenarioRegistry reg;

    // Fig. 9: ACM hit rate at the STU across the three translating
    // architectures. mcf is the paper's canonical AT-sensitive
    // benchmark; ccsv's sparse VA space stresses the cold tail.
    for (const char* bench : {"mcf", "ccsv"}) {
        for (ArchKind arch :
             {ArchKind::IFam, ArchKind::DeactW, ArchKind::DeactN}) {
            reg.add(makeScenario(
                "fig09_acm_hit_rate",
                "ACM hit rate at the STU (paper Fig. 9)",
                "acm_hit_rate", bench, arch));
        }
    }

    // Fig. 10: FAM-side address-translation hit rate. cactus has the
    // dense, cache-friendly page set that separates DeACT-W's
    // in-media cache from DeACT-N's node-side ACM cache.
    for (ArchKind arch : {ArchKind::DeactW, ArchKind::DeactN}) {
        reg.add(makeScenario(
            "fig10_at_hit_rate",
            "FAM address-translation hit rate (paper Fig. 10)",
            "translation_hit_rate", "cactus", arch));
    }

    // Fig. 12: end-to-end performance (IPC) of all four architectures
    // on one AT-sensitive benchmark.
    for (ArchKind arch : {ArchKind::EFam, ArchKind::IFam,
                          ArchKind::DeactW, ArchKind::DeactN}) {
        reg.add(makeScenario(
            "fig12_performance",
            "End-to-end performance, system IPC (paper Fig. 12)",
            "ipc", "mcf", arch));
    }

    // Observability-layer locks (no paper counterpart — the ROADMAP's
    // observability axis). `.base` pins the Chrome-trace substrate: no
    // warmup, so the serial and parallel kernels share one schedule
    // and the trace byte-identity test can include --threads 0
    // alongside {1, 4}. `.observed` turns the latency-breakdown
    // histograms on, pinning the percentile-capable stats JSON; every
    // other scenario keeps observability off, proving the layer is
    // inert by default.
    {
        Scenario s = makeScenario(
            "fig12_performance",
            "Fig. 12 DeACT-N point without warmup (trace-determinism "
            "substrate: serial == parallel schedule)",
            "ipc", "mcf", ArchKind::DeactN);
        s.name = "fig12_performance.base";
        s.config.warmupFraction = 0.0;
        reg.add(std::move(s));
    }
    {
        Scenario s = makeScenario(
            "fig12_performance",
            "Fig. 12 DeACT-N point with the latency-breakdown "
            "histograms registered (observability layer lock)",
            "ipc", "mcf", ArchKind::DeactN);
        s.name = "fig12_performance.observed";
        s.config.observability = true;
        reg.add(std::move(s));
    }

    // Trace-replay frontend locks (no paper counterpart — the
    // ROADMAP's trace-driven workload axis): one uniform self-replay
    // through a plain binary trace and one hot-skewed self-replay
    // through a gzip trace.
    reg.add(makeTraceScenario(
        "uniform.selfreplay", profiles::uniformTest(32ull << 20),
        TraceFormat::Binary,
        "Uniform stream recorded to a binary trace and self-replayed "
        "(trace frontend regression lock)"));
    reg.add(makeTraceScenario(
        "mcf.selfreplay",
        profiles::byName("mcf"),
        TraceFormat::Gzip,
        "Hot-skewed mcf stream recorded to a gzip trace and "
        "self-replayed (trace frontend regression lock)"));

    // Multi-tenant family (no paper counterpart — the ROADMAP's
    // multi-workload axis): steady-state contention, tenant churn and
    // data migration under tenant load. Each exports per-job
    // attribution tables plus fairness summaries; the goldens pin the
    // whole job dimension, and the churn scenario's parallel export is
    // byte-identical for every worker count (tested like every other
    // registered scenario).
    {
        TenancyParams tenancy;
        tenancy.jobs = 4;
        tenancy.zipfSkew = 0.8;
        reg.add(makeTenantScenario(
            "contention",
            "Four Zipf-skewed tenant jobs per core contending for the "
            "translation structures (steady state, no churn)",
            tenancy));

        tenancy.churnMeanOps = 6000;
        reg.add(makeTenantScenario(
            "churn",
            "Four Zipf-skewed tenant jobs with Poisson-ish arrival/"
            "departure churn (mean residency 6000 ops)",
            tenancy));
    }
    {
        TenancyParams tenancy;
        tenancy.jobs = 2;
        tenancy.zipfSkew = 0.5;
        // Three broker migrations while both tenants keep issuing:
        // bounce the hot node's data away and back through the logical
        // indirection, then force a physical-id move (the PR-2
        // unknown-target registration path).
        std::vector<MigrationEvent> storm;
        storm.push_back({20000, 0, 1, true});
        storm.push_back({30000, 1, 0, true});
        storm.push_back({40000, 0, 1, false});
        reg.add(makeTenantScenario(
            "migration_storm",
            "Two tenant jobs under a broker data-migration storm: "
            "logical bounce 0->1->0, then a physical-id move at full "
            "load",
            tenancy, std::move(storm)));
    }

    return reg;
}

} // namespace

const ScenarioRegistry&
ScenarioRegistry::paper()
{
    static const ScenarioRegistry registry = buildPaperRegistry();
    return registry;
}

void
ScenarioRegistry::add(Scenario scenario)
{
    FAMSIM_ASSERT(!scenario.name.empty(), "scenario needs a name");
    auto [it, inserted] =
        scenarios_.emplace(scenario.name, std::move(scenario));
    FAMSIM_ASSERT(inserted, "scenario '", it->first,
                  "' registered twice");
}

bool
ScenarioRegistry::has(const std::string& name) const
{
    return scenarios_.find(name) != scenarios_.end();
}

const Scenario&
ScenarioRegistry::byName(const std::string& name) const
{
    auto it = scenarios_.find(name);
    if (it == scenarios_.end())
        FAMSIM_PANIC("unknown scenario '", name, "'");
    return it->second;
}

std::vector<const Scenario*>
ScenarioRegistry::byFigure(const std::string& figure) const
{
    std::vector<const Scenario*> out;
    for (const auto& [name, scenario] : scenarios_) {
        if (scenario.figure == figure)
            out.push_back(&scenario);
    }
    return out;
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(scenarios_.size());
    for (const auto& [name, scenario] : scenarios_)
        out.push_back(name);
    return out;
}

namespace {

/** Write a per-job counter array, zero-padded to @p jobs slots. */
void
writeJobArray(std::ostream& os, const std::vector<std::uint64_t>& values,
              unsigned jobs)
{
    os << "[";
    for (unsigned j = 0; j < jobs; ++j)
        os << (j ? ", " : "") << (j < values.size() ? values[j] : 0);
    os << "]";
}

/** The solo (single-tenant) rerun's headline figures. */
struct SoloBaseline {
    double ops = 0.0;
    double ticks = 0.0;
};

SoloBaseline
computeSoloBaseline(const SystemConfig& solo_config, unsigned threads)
{
    System solo(solo_config);
    solo.run(threads);
    SoloBaseline out;
    out.ops = solo.sim().stats().sumMatching(".mem_ops");
    out.ticks = static_cast<double>(solo.elapsedTicks());
    return out;
}

/**
 * The "jobs" export block of a multi-tenant scenario: per-job
 * attribution tables (summed across components where a table is
 * per-node, like the STU's) plus fairness/isolation summaries.
 *
 * Throughput figures divide each tenant's post-warmup op count by the
 * run's final tick. The tick base includes warmup while the op counts
 * do not; the single-tenant baseline run shares exactly that bias, so
 * the slowdown ratios (fair share of the solo throughput over the
 * tenant's achieved throughput) stay meaningful. Tenants that issued
 * no post-warmup ops (churned out for the whole window) are excluded
 * from the spread and slowdown aggregates.
 */
void
writeJobFairness(std::ostream& os, const Scenario& scenario,
                 System& system, unsigned threads)
{
    const unsigned jobs = scenario.config.tenancy.jobs;
    const StatRegistry& stats = system.sim().stats();
    const std::vector<std::uint64_t> ops = stats.sumJobTables("jobs.mem_ops");

    os << ",\n  \"jobs\": {\n    \"count\": " << jobs;
    struct Table {
        const char* key;
        const char* suffix;
    };
    constexpr Table kTables[] = {
        {"mem_ops", "jobs.mem_ops"},
        {"fam_requests", ".job_requests"},
        {"fam_at_requests", ".job_at_requests"},
        {"acm_lookups", ".job_acm_lookups"},
        {"acm_hits", ".job_acm_hits"},
        {"denials", ".job_denials"},
        {"broker_faults", ".job_faults"},
    };
    for (const Table& table : kTables) {
        os << ",\n    \"" << table.key << "\": ";
        writeJobArray(os, stats.sumJobTables(table.suffix), jobs);
    }

    // Single-tenant baseline of the same configuration and kernel: its
    // whole-system throughput, split fairly across the tenant count,
    // is what a perfectly isolated tenant would achieve.
    SystemConfig solo_config = scenario.config;
    solo_config.tenancy = TenancyParams{};
    const SoloBaseline solo = computeSoloBaseline(solo_config, threads);
    const double solo_ops = solo.ops;
    const double solo_ticks = solo.ticks;
    const double fair_share =
        solo_ticks > 0.0 ? solo_ops / solo_ticks / jobs : 0.0;

    const double ticks = static_cast<double>(system.elapsedTicks());
    double sum = 0.0;
    double sum_sq = 0.0;
    std::uint64_t min_ops = 0;
    std::uint64_t max_ops = 0;
    double slow_min = 0.0;
    double slow_max = 0.0;
    bool any = false;
    for (unsigned j = 0; j < jobs; ++j) {
        const std::uint64_t count = j < ops.size() ? ops[j] : 0;
        const double x = static_cast<double>(count);
        sum += x;
        sum_sq += x * x;
        if (count == 0)
            continue;
        const double throughput = ticks > 0.0 ? x / ticks : 0.0;
        const double slowdown =
            throughput > 0.0 ? fair_share / throughput : 0.0;
        if (!any) {
            min_ops = max_ops = count;
            slow_min = slow_max = slowdown;
            any = true;
        } else {
            min_ops = std::min(min_ops, count);
            max_ops = std::max(max_ops, count);
            slow_min = std::min(slow_min, slowdown);
            slow_max = std::max(slow_max, slowdown);
        }
    }
    const double spread =
        min_ops > 0 ? static_cast<double>(max_ops) /
                          static_cast<double>(min_ops)
                    : 0.0;
    const double jain =
        sum_sq > 0.0 ? sum * sum / (jobs * sum_sq) : 0.0;

    os << ",\n    \"fairness\": {\n      \"throughput_spread\": ";
    json::writeNumber(os, spread);
    os << ",\n      \"jain_index\": ";
    json::writeNumber(os, jain);
    os << ",\n      \"solo_throughput\": ";
    json::writeNumber(os, solo_ticks > 0.0 ? solo_ops / solo_ticks : 0.0);
    os << ",\n      \"slowdown_min\": ";
    json::writeNumber(os, slow_min);
    os << ",\n      \"slowdown_max\": ";
    json::writeNumber(os, slow_max);
    os << "\n    }\n  }";
}

} // namespace

void
writeScenarioJson(std::ostream& os, const Scenario& scenario,
                  unsigned threads)
{
    ScopedQuietLogs quiet;
    System system(scenario.config);
    writeScenarioJson(os, scenario, system, threads);
}

void
writeScenarioJson(std::ostream& os, const Scenario& scenario,
                  System& system, unsigned threads)
{
    ScopedQuietLogs quiet;
    system.run(threads);
    const RunResult metrics = summarize(system);

    os << "{\n  \"scenario\": ";
    json::writeString(os, scenario.name);
    os << ",\n  \"figure\": ";
    json::writeString(os, scenario.figure);
    os << ",\n  \"description\": ";
    json::writeString(os, scenario.description);
    os << ",\n  \"headline_metric\": ";
    json::writeString(os, scenario.headlineMetric);

    const SystemConfig& config = scenario.config;
    os << ",\n  \"config\": {\n    \"arch\": ";
    json::writeString(os, toString(config.arch));
    os << ",\n    \"benchmark\": ";
    json::writeString(os, config.profile.name);
    os << ",\n    \"nodes\": " << config.nodes
       << ",\n    \"cores_per_node\": " << config.coresPerNode
       << ",\n    \"seed\": " << config.seed
       << ",\n    \"instructions\": " << config.core.instructionLimit
       << ",\n    \"warmup_fraction\": ";
    json::writeNumber(os, config.warmupFraction);
    os << "\n  }";

    os << ",\n  \"metrics\": {\n    \"ipc\": ";
    json::writeNumber(os, metrics.ipc);
    os << ",\n    \"fam_at_percent\": ";
    json::writeNumber(os, metrics.famAtPercent);
    os << ",\n    \"translation_hit_rate\": ";
    json::writeNumber(os, metrics.translationHitRate);
    os << ",\n    \"acm_hit_rate\": ";
    json::writeNumber(os, metrics.acmHitRate);
    os << ",\n    \"mpki\": ";
    json::writeNumber(os, metrics.mpki);
    os << ",\n    \"fam_requests\": " << metrics.famRequests
       << ",\n    \"fam_at_requests\": " << metrics.famAtRequests
       << "\n  }";

    if (config.tenancy.jobs > 1)
        writeJobFairness(os, scenario, system, threads);

    os << ",\n  \"stats\": ";
    system.sim().stats().dumpJson(os, 2);

    // Host wall-clock profile, only when the caller attached a
    // Profiler (famsim_cli --profile). Golden runs and the sweep
    // executor never attach one, so the deterministic export above is
    // byte-identical with or without this feature compiled in.
    if (const Profiler* prof = system.sim().profiler()) {
        os << ",\n  \"profile\": ";
        prof->writeJson(os, 2);
    }

    os << "\n}";
}

std::string
runScenarioJson(const Scenario& scenario, unsigned threads)
{
    std::ostringstream os;
    writeScenarioJson(os, scenario, threads);
    os << "\n";
    return os.str();
}

// ------------------------------------------------ trace capture/replay

std::string
traceFileName(unsigned node, unsigned core, TraceFormat format)
{
    std::string name = "node" + std::to_string(node) + ".core" +
                       std::to_string(core) + ".trace";
    switch (format) {
      case TraceFormat::Binary: break;
      case TraceFormat::Gzip: name += ".gz"; break;
      case TraceFormat::Text: name += ".txt"; break;
    }
    return name;
}

SystemConfig
withTraceRecording(const SystemConfig& config, const std::string& dir,
                   TraceFormat format)
{
    SystemConfig out = config;
    // Wrap whatever the configuration would have driven the core with
    // (its own factory's product, or the default synthetic stream —
    // mirroring System::buildNode's fallback).
    out.workloadFactory =
        [inner_factory = config.workloadFactory,
         profile = config.profile, seed = config.seed, dir,
         format](unsigned node,
                 unsigned core) -> std::unique_ptr<WorkloadGen> {
        std::unique_ptr<WorkloadGen> inner;
        if (inner_factory)
            inner = inner_factory(node, core);
        if (!inner) {
            inner = std::make_unique<StreamGen>(profile, kWorkloadVaBase,
                                                seed, node * 64 + core);
        }
        return std::make_unique<RecordingWorkload>(
            std::move(inner), dir + "/" + traceFileName(node, core, format),
            format);
    };
    return out;
}

SystemConfig
withTraceReplay(const SystemConfig& config, const std::string& dir)
{
    SystemConfig out = config;
    out.workloadFactory =
        [dir](unsigned node,
              unsigned core) -> std::unique_ptr<WorkloadGen> {
        for (TraceFormat format :
             {TraceFormat::Binary, TraceFormat::Gzip, TraceFormat::Text}) {
            const std::string path =
                dir + "/" + traceFileName(node, core, format);
            if (std::filesystem::exists(path))
                return TraceReader::open(path);
        }
        FAMSIM_FATAL("no trace for node ", node, " core ", core,
                     " under '", dir, "' (expected ",
                     traceFileName(node, core), "[.gz|.txt])");
    };
    return out;
}

std::string
recordScenarioTraces(const Scenario& scenario, const std::string& dir,
                     TraceFormat format, unsigned threads)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        FAMSIM_FATAL("cannot create trace directory '", dir,
                     "': ", ec.message());
    }
    Scenario copy = scenario;
    copy.config = withTraceRecording(scenario.config, dir, format);
    // The System (and with it every TraceWriter) is destroyed inside
    // runScenarioJson, so the traces are closed and complete on
    // return.
    return runScenarioJson(copy, threads);
}

std::string
replayScenarioJson(const Scenario& scenario, const std::string& dir,
                   unsigned threads)
{
    Scenario copy = scenario;
    copy.config = withTraceReplay(scenario.config, dir);
    return runScenarioJson(copy, threads);
}

} // namespace famsim
