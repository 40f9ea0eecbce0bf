/**
 * @file
 * famsim_cli — the general-purpose driver (like SST's `sst` binary).
 *
 * Runs one configuration and prints the headline metrics, optionally
 * the full statistics dump, and optionally records or replays a
 * workload trace.
 *
 * Usage:
 *   famsim_cli [options]
 *     --bench <name>       benchmark profile (default mcf; see --list)
 *     --arch <a>           efam | ifam | deactw | deactn (default deactn)
 *     --instr <n>          instructions per core, >= 1 (default 300000)
 *     --nodes <n>          compute nodes sharing the FAM (default 1)
 *     --cores <n>          cores per node (default 4)
 *     --stu-entries <n>    STU cache entries (default 1024)
 *     --stu-assoc <n>      STU associativity (default 8)
 *     --acm-bits <n>       ACM width: 8|16|32 (default 16)
 *     --pairs <n>          DeACT-N (tag,ACM) pairs per way (default 2)
 *     --fabric-ns <n>      one-way fabric latency in ns, >= 1 (default
 *                          450)
 *     --seed <n>           RNG seed (default 1)
 *     --warmup <f>         warmup fraction (default 0.3)
 *     --jobs <n>           tenant jobs interleaved on every core
 *                          (default 1 = single-tenant; max 64)
 *     --skew <f>           Zipfian tenant-popularity skew (default 0;
 *                          needs --jobs >= 2)
 *     --churn <n>          mean tenant residency in ops before a job
 *                          departs/arrives (default 0 = no churn;
 *                          needs --jobs >= 2)
 *     --threads <n>        simulation kernel: 0 = serial reference
 *                          (default), >= 1 = parallel conservative-
 *                          window kernel with n worker threads.
 *                          Results are byte-identical for every n >= 1;
 *                          the FAMSIM_THREADS environment variable
 *                          supplies the default
 *     --record <file>      record the workload to a trace file and exit
 *                          (.gz = gzip, .txt = text, else binary)
 *     --replay <file>      drive every core from a trace file (each
 *                          core replays its own cursor); restrict the
 *                          target with --replay-node / --replay-core,
 *                          the other cores keep the synthetic workload
 *     --replay-node <n>    only node n replays (default: all nodes)
 *     --replay-core <n>    only core n of each replaying node replays
 *     --record-scenario <name>  run a registered scenario with every
 *                          core recording its stream into the
 *                          directory given by --record (one trace per
 *                          core), print the scenario JSON
 *     --replay-scenario <name>  run a registered scenario with every
 *                          core replaying its trace from the directory
 *                          given by --replay, print the scenario JSON
 *                          (byte-identical to --scenario <name> when
 *                          the directory was written by
 *                          --record-scenario <name>)
 *     --trace-out <file>   write a Chrome trace_event JSON timeline of
 *                          the run (load in Perfetto / chrome://tracing;
 *                          byte-identical for every --threads value on
 *                          warmup-free configurations)
 *     --trace-filter <c>   packet | psim | all (default all): restrict
 *                          the trace to packet-lifecycle spans or
 *                          parallel-kernel window events
 *     --profile            attach the wall-clock profiler and export a
 *                          "profile" block (host timings, explicitly
 *                          nondeterministic) alongside the stats
 *     --stats              dump every statistic after the run
 *     --csv                dump statistics as CSV
 *     --json               dump statistics as JSON
 *     --list               list available benchmark profiles
 *     --scenario <name>    run a registered paper scenario, print JSON
 *     --list-scenarios     list registered paper scenarios, grouped by
 *                          figure/family (multitenant.* etc.)
 *     --sweep <name>       run a sensitivity sweep (Fig. 13-16); with
 *                          --json print the whole curve as one JSON
 *                          object, else a summary table
 *     --sweep-jobs <n>     host workers fanning the sweep's points out
 *                          in parallel (SweepExecutor; default 1; the
 *                          FAMSIM_SWEEP_JOBS environment variable
 *                          supplies the default). Output is
 *                          byte-identical for every n; ignored without
 *                          --sweep
 *     --list-sweeps        list registered sensitivity sweeps
 *     --help               print usage and exit 0
 */

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"
#include "workload/trace.hh"

using namespace famsim;

namespace {

void
printUsage(std::ostream& os, const char* argv0)
{
    os << "usage: " << argv0
       << " [--bench <name>] [--arch efam|ifam|deactw|deactn]\n"
          "  [--instr n] [--nodes n] [--cores n] [--stu-entries n]\n"
          "  [--stu-assoc n] [--acm-bits 8|16|32] [--pairs 1..3]\n"
          "  [--fabric-ns n] [--seed n] [--warmup f] [--threads n]\n"
          "  [--jobs n] [--skew f] [--churn n]\n"
          "  [--record file] [--replay file] [--replay-node n]\n"
          "  [--replay-core n] [--record-scenario name]\n"
          "  [--replay-scenario name] [--stats] [--csv] [--json]\n"
          "  [--list] [--scenario name] [--list-scenarios]\n"
          "  [--sweep name] [--sweep-jobs n] [--list-sweeps]\n"
          "  [--trace-out file] [--trace-filter packet|psim|all]\n"
          "  [--profile] [--help]\n";
}

[[noreturn]] void
usage(const char* argv0)
{
    printUsage(std::cerr, argv0);
    std::exit(2);
}

ArchKind
parseArch(const std::string& name)
{
    if (name == "efam") return ArchKind::EFam;
    if (name == "ifam") return ArchKind::IFam;
    if (name == "deactw") return ArchKind::DeactW;
    if (name == "deactn") return ArchKind::DeactN;
    FAMSIM_FATAL("unknown architecture '", name, "'");
}

/**
 * Checked numeric flag parsing. Bare std::stoul would abort with an
 * uncaught exception on `--threads x` and silently accept trailing
 * garbage (`--threads 4x`); these validate the whole token and exit
 * with the usage error (code 2) instead.
 */
[[noreturn]] void
badValue(const char* argv0, const char* flag, const std::string& text,
         const char* expected)
{
    std::cerr << "invalid value '" << text << "' for " << flag
              << " (expected " << expected << ")\n";
    usage(argv0);
}

std::uint64_t
parseUint(const char* argv0, const char* flag, const std::string& text,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::optional<std::uint64_t> v = parseUnsigned(text);
    if (!v)
        badValue(argv0, flag, text, "an unsigned integer");
    if (*v > max)
        badValue(argv0, flag, text, "an unsigned integer in range");
    return *v;
}

double
parseDouble(const char* argv0, const char* flag, const std::string& text,
            double min, double max)
{
    if (text.empty() ||
        (std::isspace(static_cast<unsigned char>(text.front())) != 0))
        badValue(argv0, flag, text, "a number");
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    // strtod happily parses "nan"/"inf"; a non-finite fraction would
    // silently disable warmup downstream, so reject it here.
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        !std::isfinite(v) || v < min || v > max)
        badValue(argv0, flag, text, "a number in range");
    return v;
}

unsigned
parseTraceFilter(const char* argv0, const std::string& text)
{
    if (text == "packet") return TraceSink::kPacket;
    if (text == "psim") return TraceSink::kPsim;
    if (text == "all") return TraceSink::kAll;
    badValue(argv0, "--trace-filter", text, "packet|psim|all");
}

/** Flush @p sink to @p path; exits 1 on any file-system failure. */
void
writeTraceFile(const TraceSink& sink, const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::cerr << "cannot open trace file '" << path << "'\n";
        std::exit(1);
    }
    sink.write(out);
    out.flush();
    if (!out) {
        std::cerr << "failed writing trace to '" << path << "'\n";
        std::exit(1);
    }
    std::cerr << "wrote " << sink.size() << " trace events to " << path
              << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::string bench = "mcf";
    std::string arch_name = "deactn";
    std::string record_path, replay_path;
    std::string record_scenario, replay_scenario;
    std::optional<unsigned> replay_node, replay_core;
    std::uint64_t instr = 300000;
    unsigned nodes = 1, cores = 4;
    std::size_t stu_entries = 1024, stu_assoc = 8;
    unsigned acm_bits = 16, pairs = 2;
    std::uint64_t fabric_ns = 450, seed = 1;
    double warmup = 0.3;
    unsigned jobs = 1;
    double skew = 0.0;
    std::uint64_t churn = 0;
    unsigned threads = threadsFromEnv(0);
    unsigned sweep_jobs = sweepJobsFromEnv(1);
    bool sweep_jobs_given = false;
    std::string trace_out;
    unsigned trace_filter = TraceSink::kAll;
    bool want_profile = false;
    bool dump_stats = false, dump_csv = false, dump_json = false;
    bool show_help = false, list_profiles = false, list_scenarios = false;
    bool list_sweeps = false;
    std::string scenario_name, sweep_name;

    // Parse every argument before dispatching any action, so a typo
    // after an action flag is still diagnosed.
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                usage(argv[0]);
            }
            return argv[++i];
        };
        constexpr std::uint64_t kUnsignedMax =
            std::numeric_limits<unsigned>::max();
        auto uintArg = [&](const char* flag,
                           std::uint64_t max =
                               std::numeric_limits<std::uint64_t>::max()) {
            return parseUint(argv[0], flag, need(flag), max);
        };
        std::string arg = argv[i];
        if (arg == "--bench") bench = need("--bench");
        else if (arg == "--arch") arch_name = need("--arch");
        else if (arg == "--instr") {
            instr = uintArg("--instr");
            if (instr == 0)
                badValue(argv[0], "--instr", "0",
                         "a positive instruction count");
        }
        else if (arg == "--nodes")
            nodes = static_cast<unsigned>(uintArg("--nodes", kUnsignedMax));
        else if (arg == "--cores")
            cores = static_cast<unsigned>(uintArg("--cores", kUnsignedMax));
        else if (arg == "--stu-entries")
            stu_entries = uintArg("--stu-entries");
        else if (arg == "--stu-assoc")
            stu_assoc = uintArg("--stu-assoc");
        else if (arg == "--acm-bits")
            acm_bits = static_cast<unsigned>(
                uintArg("--acm-bits", kUnsignedMax));
        else if (arg == "--pairs")
            pairs = static_cast<unsigned>(uintArg("--pairs", kUnsignedMax));
        else if (arg == "--fabric-ns") {
            fabric_ns = uintArg("--fabric-ns");
            if (fabric_ns == 0)
                badValue(argv[0], "--fabric-ns", "0",
                         "a positive latency in ns");
        }
        else if (arg == "--seed") seed = uintArg("--seed");
        else if (arg == "--warmup")
            warmup = parseDouble(argv[0], "--warmup", need("--warmup"),
                                 0.0, 1.0);
        else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(uintArg("--jobs", kMaxJobs));
            if (jobs == 0)
                badValue(argv[0], "--jobs", "0", "1 to 64 tenant jobs");
        }
        else if (arg == "--skew")
            skew = parseDouble(argv[0], "--skew", need("--skew"),
                               0.0, 10.0);
        else if (arg == "--churn") churn = uintArg("--churn");
        else if (arg == "--threads")
            threads = static_cast<unsigned>(
                uintArg("--threads", kUnsignedMax));
        else if (arg == "--record") record_path = need("--record");
        else if (arg == "--replay") replay_path = need("--replay");
        else if (arg == "--replay-node")
            replay_node = static_cast<unsigned>(
                uintArg("--replay-node", kUnsignedMax));
        else if (arg == "--replay-core")
            replay_core = static_cast<unsigned>(
                uintArg("--replay-core", kUnsignedMax));
        else if (arg == "--record-scenario")
            record_scenario = need("--record-scenario");
        else if (arg == "--replay-scenario")
            replay_scenario = need("--replay-scenario");
        else if (arg == "--stats") dump_stats = true;
        else if (arg == "--csv") dump_csv = true;
        else if (arg == "--json") dump_json = true;
        else if (arg == "--help" || arg == "-h") show_help = true;
        else if (arg == "--scenario")
            scenario_name = need("--scenario");
        else if (arg == "--list-scenarios") list_scenarios = true;
        else if (arg == "--sweep") sweep_name = need("--sweep");
        else if (arg == "--sweep-jobs") {
            // Same cap as FAMSIM_SWEEP_JOBS clamping; 0 workers is
            // meaningless (the caller always participates).
            sweep_jobs = static_cast<unsigned>(
                uintArg("--sweep-jobs", 1024));
            if (sweep_jobs == 0)
                badValue(argv[0], "--sweep-jobs", "0",
                         "1 to 1024 sweep workers");
            sweep_jobs_given = true;
        }
        else if (arg == "--trace-out") trace_out = need("--trace-out");
        else if (arg == "--trace-filter")
            trace_filter =
                parseTraceFilter(argv[0], need("--trace-filter"));
        else if (arg == "--profile") want_profile = true;
        else if (arg == "--list-sweeps") list_sweeps = true;
        else if (arg == "--list") list_profiles = true;
        else {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(argv[0]);
        }
    }

    if (show_help) {
        printUsage(std::cout, argv[0]);
        return 0;
    }
    if (list_scenarios) {
        // Grouped by figure/family ("fig09_acm_hit_rate", "multitenant",
        // "trace_replay", ...): names sort family-first, so one pass
        // with a header whenever the figure changes keeps each family's
        // members together.
        auto list_grouped = [](const ScenarioRegistry& reg) {
            std::string figure;
            for (const auto& name : reg.names()) {
                const Scenario& s = reg.byName(name);
                if (s.figure != figure) {
                    figure = s.figure;
                    std::cout << figure << ":\n";
                }
                std::cout << "  " << name << "\t" << s.description
                          << "\n";
            }
        };
        list_grouped(ScenarioRegistry::paper());
        // Sweep points are runnable scenarios too ("<sweep>.<label>").
        list_grouped(SweepRegistry::paperPoints());
        return 0;
    }
    if (list_sweeps) {
        for (const auto& name : SweepRegistry::paper().names()) {
            const Sweep& sweep = SweepRegistry::paper().byName(name);
            std::cout << name << "\t" << sweep.description << "\n";
        }
        return 0;
    }
    if (list_profiles) {
        for (const auto& p : profiles::all()) {
            std::cout << p.name << "\t" << p.suite << "\tMPKI "
                      << p.paperMpki << "\n";
        }
        return 0;
    }
    const int registry_modes =
        static_cast<int>(!scenario_name.empty()) +
        static_cast<int>(!sweep_name.empty()) +
        static_cast<int>(!record_scenario.empty()) +
        static_cast<int>(!replay_scenario.empty());
    if (registry_modes > 1) {
        std::cerr << "--scenario, --sweep, --record-scenario and "
                     "--replay-scenario are mutually exclusive\n";
        return 2;
    }
    if (!record_scenario.empty() && record_path.empty()) {
        std::cerr << "--record-scenario needs --record <dir> for the "
                     "per-core trace files\n";
        return 2;
    }
    if (!replay_scenario.empty() && replay_path.empty()) {
        std::cerr << "--replay-scenario needs --replay <dir> holding the "
                     "per-core trace files\n";
        return 2;
    }
    if (record_scenario.empty() && replay_scenario.empty() &&
        !record_path.empty() && !replay_path.empty()) {
        std::cerr << "--record and --replay are mutually exclusive\n";
        return 2;
    }
    if ((replay_node || replay_core) && replay_path.empty()) {
        std::cerr << "--replay-node/--replay-core need --replay <file>\n";
        return 2;
    }
    if (sweep_jobs_given && sweep_name.empty()) {
        // Point-level fan-out only exists in --sweep mode; every other
        // mode runs exactly one configuration.
        warn("--sweep-jobs is ignored without --sweep");
    }
    if ((!trace_out.empty() || want_profile) &&
        (!sweep_name.empty() || !record_scenario.empty() ||
         !replay_scenario.empty())) {
        // Tracing/profiling attach to exactly one System run; the
        // sweep fans out many and the capture/replay modes pin their
        // own export format.
        warn("--trace-out/--profile are ignored in --sweep/"
             "--record-scenario/--replay-scenario mode");
        trace_out.clear();
        want_profile = false;
    }
    if (registry_modes == 1) {
        // Scenario, sweep and scenario-capture/-replay runs use their
        // registry-pinned configurations; accepting a config flag
        // silently would let the user believe they changed what was
        // measured. --stats and --csv only apply to ad-hoc runs, so
        // they are ignored too. --record/--replay are the trace
        // directory of --record-scenario/--replay-scenario and only
        // then not ignored.
        std::vector<const char*> pinned = {
            "--bench", "--arch", "--instr", "--nodes", "--cores",
            "--stu-entries", "--stu-assoc", "--acm-bits", "--pairs",
            "--fabric-ns", "--seed", "--warmup", "--jobs", "--skew",
            "--churn", "--replay-node", "--replay-core", "--stats",
            "--csv",
        };
        if (record_scenario.empty())
            pinned.push_back("--record");
        if (replay_scenario.empty())
            pinned.push_back("--replay");
        for (int i = 1; i < argc; ++i) {
            for (const char* flag : pinned) {
                if (std::strcmp(argv[i], flag) == 0) {
                    warn(flag, " is ignored; --scenario/--sweep/"
                               "--record-scenario/--replay-scenario "
                               "runs use their pinned configuration");
                }
            }
        }
    }
    if (!record_scenario.empty() || !replay_scenario.empty()) {
        const std::string& name = record_scenario.empty()
                                      ? replay_scenario
                                      : record_scenario;
        const ScenarioRegistry& reg = ScenarioRegistry::paper();
        const ScenarioRegistry& points = SweepRegistry::paperPoints();
        if (!reg.has(name) && !points.has(name)) {
            std::cerr << "unknown scenario '" << name
                      << "' (try --list-scenarios)\n";
            return 2;
        }
        const Scenario& scenario =
            reg.has(name) ? reg.byName(name) : points.byName(name);
        if (!record_scenario.empty()) {
            std::cout << recordScenarioTraces(scenario, record_path,
                                              TraceFormat::Binary,
                                              threads);
        } else {
            std::cout << replayScenarioJson(scenario, replay_path,
                                            threads);
        }
        return 0;
    }
    if (!scenario_name.empty()) {
        // Sweep points ("fig16_num_nodes.n4") run exactly like the
        // headline scenarios.
        const ScenarioRegistry& reg = ScenarioRegistry::paper();
        const ScenarioRegistry& points = SweepRegistry::paperPoints();
        if (!reg.has(scenario_name) && !points.has(scenario_name)) {
            std::cerr << "unknown scenario '" << scenario_name
                      << "' (try --list-scenarios)\n";
            return 2;
        }
        const Scenario& scenario = reg.has(scenario_name)
                                       ? reg.byName(scenario_name)
                                       : points.byName(scenario_name);
        if (!trace_out.empty() || want_profile) {
            // Observed run: construct the System here so the sink /
            // profiler can attach before writeScenarioJson runs it.
            // The stats portion of the export stays byte-identical to
            // the plain path (observation never perturbs simulation).
            ScopedQuietLogs quiet;
            System system(scenario.config);
            TraceSink sink(system.traceLanes(), trace_filter);
            Profiler prof;
            if (!trace_out.empty())
                system.attachTrace(&sink);
            if (want_profile)
                system.attachProfiler(&prof);
            writeScenarioJson(std::cout, scenario, system, threads);
            std::cout << "\n";
            if (!trace_out.empty())
                writeTraceFile(sink, trace_out);
            return 0;
        }
        // Streamed: the export goes straight to stdout as the stats
        // registry serializes, never materializing the JSON in memory.
        writeScenarioJson(std::cout, scenario, threads);
        std::cout << "\n";
        return 0;
    }
    if (!sweep_name.empty()) {
        const SweepRegistry& sweeps = SweepRegistry::paper();
        if (!sweeps.has(sweep_name)) {
            std::cerr << "unknown sweep '" << sweep_name
                      << "' (try --list-sweeps)\n";
            return 2;
        }
        const Sweep& sweep = sweeps.byName(sweep_name);
        if (dump_json) {
            writeSweepJson(std::cout, sweep, threads, sweep_jobs);
            return 0;
        }
        ScopedQuietLogs quiet_sweep;
        FigureReport report(sweep.name, sweep.description,
                            sweep.axis.name,
                            {"ipc", "fam_at%", "at_hit%", "acm_hit%"});
        const std::vector<Scenario> points = sweep.expand();
        std::vector<SystemConfig> configs;
        configs.reserve(points.size());
        for (const Scenario& point : points) {
            std::cerr << "sweep: " << point.name << "...\n";
            configs.push_back(point.config);
        }
        SweepExecutor executor(sweep_jobs);
        const std::vector<RunResult> results =
            executor.runResults(configs, threads);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RunResult& r = results[i];
            report.addRow(points[i].name.substr(sweep.name.size() + 1),
                          {r.ipc, r.famAtPercent,
                           100.0 * r.translationHitRate,
                           100.0 * r.acmHitRate});
        }
        // Host wall clock per point, stderr only: the table on stdout
        // stays byte-identical across machines and job counts.
        const std::vector<double>& seconds = executor.pointSeconds();
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::cerr << "sweep: " << points[i].name << " took "
                      << seconds[i] << " s\n";
        }
        report.printTable(std::cout);
        return 0;
    }

    StreamProfile profile = profiles::byName(bench);

    if (!record_path.empty()) {
        // Ad-hoc recording samples one synthetic stream; it never
        // builds a System, so System-shaping flags have no effect on
        // the trace — warn like the pinned-scenario modes do.
        static const char* kNoSystemFlags[] = {
            "--arch", "--nodes", "--cores", "--stu-entries",
            "--stu-assoc", "--acm-bits", "--pairs", "--fabric-ns",
            "--warmup", "--threads", "--jobs", "--skew", "--churn",
            "--stats", "--csv", "--json", "--trace-out", "--profile",
        };
        for (int i = 1; i < argc; ++i) {
            for (const char* flag : kNoSystemFlags) {
                if (std::strcmp(argv[i], flag) == 0) {
                    warn(flag, " is ignored; --record samples the "
                               "workload stream without building a "
                               "system");
                }
            }
        }
        StreamGen gen(profile, kWorkloadVaBase, seed, 0);
        TraceWriter writer(record_path);
        writer.setFootprint(gen.footprintPages());
        writer.record(gen, instr);
        writer.close();
        std::cout << "recorded " << writer.written() << " ops ("
                  << toString(writer.format()) << ") to " << record_path
                  << "\n";
        return 0;
    }

    SystemConfig config = makeConfig(profile, parseArch(arch_name),
                                     instr);
    config.nodes = nodes;
    config.coresPerNode = cores;
    config.seed = seed;
    config.stu.entries = stu_entries;
    config.stu.assoc = stu_assoc;
    config.stu.acmBits = acm_bits;
    config.stu.pairsPerWay = pairs;
    config.fabric.latency = fabric_ns * kNanosecond;
    config.warmupFraction = warmup;
    if (jobs < 2 && (skew > 0.0 || churn > 0)) {
        warn("--skew/--churn are ignored without --jobs >= 2 "
             "(single-tenant run)");
    }
    config.tenancy.jobs = jobs;
    config.tenancy.zipfSkew = skew;
    config.tenancy.churnMeanOps = churn;

    if (!replay_path.empty()) {
        if (replay_node && *replay_node >= nodes) {
            std::cerr << "--replay-node " << *replay_node
                      << " out of range (have " << nodes << " nodes)\n";
            return 2;
        }
        if (replay_core && *replay_core >= cores) {
            std::cerr << "--replay-core " << *replay_core
                      << " out of range (have " << cores
                      << " cores per node)\n";
            return 2;
        }
        {
            // Open once up front so a bad trace is diagnosed before the
            // (possibly long) system build, and to print the summary.
            auto probe = TraceReader::open(replay_path);
            std::cerr << "replaying " << probe->size() << " ops ("
                      << toString(probe->format()) << ") covering "
                      << probe->footprintPages().size()
                      << " pages on "
                      << (replay_node
                              ? "node " + std::to_string(*replay_node)
                              : std::string("every node"))
                      << ", "
                      << (replay_core
                              ? "core " + std::to_string(*replay_core)
                              : std::string("every core"))
                      << "\n";
        }
        // Each selected core gets its own reader (own cursor); the
        // rest fall back to the synthetic workload via nullptr.
        config.workloadFactory =
            [replay_path, replay_node, replay_core](
                unsigned node,
                unsigned core) -> std::unique_ptr<WorkloadGen> {
            if (replay_node && *replay_node != node) return nullptr;
            if (replay_core && *replay_core != core) return nullptr;
            return TraceReader::open(replay_path);
        };
    }

    ScopedQuietLogs quiet;
    System system(config);
    TraceSink sink(system.traceLanes(), trace_filter);
    Profiler prof;
    if (!trace_out.empty())
        system.attachTrace(&sink);
    if (want_profile)
        system.attachProfiler(&prof);

    system.run(threads);

    // In --json mode stdout carries only the JSON object (pipeable to
    // jq); the human summary goes to stderr instead.
    std::ostream& summary = dump_json ? std::cerr : std::cout;
    summary << "bench=" << bench << " arch=" << arch_name
            << " nodes=" << nodes << " cores=" << cores << "\n";
    summary << "ipc                  = " << system.ipc() << "\n";
    summary << "fam_at_percent       = " << system.famAtPercent() << "\n";
    summary << "translation_hit_rate = " << system.translationHitRate()
            << "\n";
    summary << "acm_hit_rate         = " << system.acmHitRate() << "\n";
    summary << "mpki                 = " << system.mpki() << "\n";
    if (dump_stats)
        system.sim().stats().dump(std::cout);
    if (dump_csv)
        system.sim().stats().dumpCsv(std::cout);
    if (dump_json) {
        if (want_profile) {
            // Wrapped so the profile rides in the same JSON document;
            // plain --json output is unchanged when --profile is off.
            std::cout << "{\n  \"stats\": ";
            system.sim().stats().dumpJson(std::cout, 2);
            std::cout << ",\n  \"profile\": ";
            prof.writeJson(std::cout, 2);
            std::cout << "\n}\n";
        } else {
            system.sim().stats().dumpJson(std::cout);
            std::cout << "\n";
        }
    } else if (want_profile) {
        std::cout << "profile: ";
        prof.writeJson(std::cout);
        std::cout << "\n";
    }
    if (!trace_out.empty())
        writeTraceFile(sink, trace_out);
    return 0;
}
