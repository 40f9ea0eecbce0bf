/**
 * @file
 * famsim_cli — the general-purpose driver (like SST's `sst` binary).
 *
 * Runs one configuration and prints the headline metrics, optionally
 * the full statistics dump, and optionally records or replays a
 * workload trace; or runs a registered paper scenario or sweep.
 * `famsim_cli --help` prints every flag. kFlags below is the only list
 * of them: each row parses and range-checks its value, documents
 * itself and names the scope a run mode may ignore.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
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

/** What a flag configures; a run mode ignores whole scopes. */
enum Scope {
    kWorkload,    //!< the synthetic op stream
    kSystem,      //!< the simulated hardware and its tenants
    kReplay,      //!< trace files and the cores that replay them
    kKernel,      //!< host threads running the simulation
    kOutput,      //!< statistics dumps of an ad-hoc run
    kObservation, //!< trace timeline and host profile
    kMode,        //!< what the binary does
};

/** What the binary does, from the mode flags given. */
enum class RunMode {
    Run,            //!< ad-hoc run of the configured System
    Record,         //!< --record without a scenario: sample one stream
    Scenario,       //!< --scenario
    Sweep,          //!< --sweep
    RecordScenario, //!< --record-scenario
    ReplayScenario, //!< --replay-scenario
};

/** Everything the flags set. */
struct Cli {
    /** The ad-hoc run's System; config flags write straight into it. */
    SystemConfig config =
        makeConfig(profiles::byName("mcf"), ArchKind::DeactN, 300000);
    unsigned threads = threadsFromEnv(0);
    unsigned sweepJobs = sweepJobsFromEnv(1);
    std::string record, replay;
    std::optional<unsigned> replayNode, replayCore;
    std::string scenario, sweep, recordScenario, replayScenario;
    std::string traceOut;
    unsigned traceFilter = TraceSink::kAll;
    bool profile = false, stats = false, csv = false, json = false;
    bool help = false, list = false, listScenarios = false;
    bool listSweeps = false;

    /** Valid once the mode flags are known to be mutually exclusive. */
    [[nodiscard]] RunMode
    mode() const
    {
        if (!scenario.empty()) return RunMode::Scenario;
        if (!sweep.empty()) return RunMode::Sweep;
        if (!recordScenario.empty()) return RunMode::RecordScenario;
        if (!replayScenario.empty()) return RunMode::ReplayScenario;
        if (!record.empty()) return RunMode::Record;
        return RunMode::Run;
    }
};

[[noreturn]] void
usageError()
{
    std::cerr << "see --help for every flag\n";
    std::exit(2);
}

/**
 * One flag's value as given. The parsers validate the whole token and
 * exit 2 naming the flag on anything else: bare std::stoul would abort
 * on `--threads x` and accept `--threads 4x`.
 */
struct Arg {
    const char* flag;
    std::string text;

    [[noreturn]] void
    bad(const std::string& expected) const
    {
        std::cerr << "invalid value '" << text << "' for " << flag
                  << " (expected " << expected << ")\n";
        usageError();
    }

    /** A parseUnsigned() value in [min, max]. */
    template <typename T>
    [[nodiscard]] T
    number(T min, T max = std::numeric_limits<T>::max()) const
    {
        const std::optional<std::uint64_t> v = parseUnsigned(text);
        if (!v || *v < min || *v > max) {
            bad("an integer in [" + std::to_string(min) + ", " +
                std::to_string(max) + "]");
        }
        return static_cast<T>(*v);
    }

    /** A finite decimal number in [min, max]. */
    [[nodiscard]] double
    real(double min, double max) const
    {
        errno = 0;
        char* end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        // strtod skips leading whitespace and parses "nan"/"inf"; a
        // non-finite fraction would silently disable warmup downstream.
        if (text.empty() ||
            std::isspace(static_cast<unsigned char>(text.front())) != 0 ||
            errno == ERANGE || end != text.c_str() + text.size() ||
            !std::isfinite(v) || v < min || v > max) {
            std::ostringstream range;
            range << "a number in [" << min << ", " << max << "]";
            bad(range.str());
        }
        return v;
    }

    /** The value of the choice named by the text. */
    template <typename T>
    [[nodiscard]] T
    pick(std::initializer_list<std::pair<const char*, T>> choices) const
    {
        std::string names;
        for (const auto& [name, value] : choices) {
            if (text == name)
                return value;
            names += names.empty() ? "" : "|";
            names += name;
        }
        bad(names);
    }
};

/** One command-line flag. */
struct Flag {
    const char* name;
    const char* hint; //!< value placeholder; nullptr for a switch
    const char* help; //!< one line for --help, stating the default
    Scope scope;
    void (*set)(Cli&, const Arg&); //!< parse, range-check, store
    const char* needs = nullptr;   //!< flag it is useless without
};

// Flag names the code reads outside their own kFlags row.
constexpr const char* kHelpFlag = "--help";
constexpr const char* kRecordFlag = "--record";
constexpr const char* kReplayFlag = "--replay";
constexpr const char* kSweepFlag = "--sweep";
constexpr const char* kTraceOutFlag = "--trace-out";

const Flag kFlags[] = {
    {"--bench", "name", "benchmark profile (default mcf; see --list)",
     kWorkload,
     [](Cli& c, const Arg& a) {
         for (const StreamProfile& p : profiles::all()) {
             if (p.name == a.text) {
                 c.config.profile = p;
                 return;
             }
         }
         a.bad("a profile from --list");
     }},
    {"--instr", "n", "instructions per core, >= 1 (default 300000)",
     kWorkload,
     [](Cli& c, const Arg& a) {
         c.config.core.instructionLimit = a.number<std::uint64_t>(1);
     }},
    {"--seed", "n", "RNG seed (default 1)", kWorkload,
     [](Cli& c, const Arg& a) { c.config.seed = a.number<std::uint64_t>(0); }},
    {"--arch", "arch", "efam|ifam|deactw|deactn (default deactn)", kSystem,
     [](Cli& c, const Arg& a) {
         using enum ArchKind;
         c.config.arch = a.pick<ArchKind>({{archTag(EFam), EFam},
                                           {archTag(IFam), IFam},
                                           {archTag(DeactW), DeactW},
                                           {archTag(DeactN), DeactN}});
     }},
    {"--nodes", "n", "compute nodes sharing the FAM (default 1)", kSystem,
     [](Cli& c, const Arg& a) { c.config.nodes = a.number(1u); }},
    {"--cores", "n", "cores per node (default 4)", kSystem,
     [](Cli& c, const Arg& a) { c.config.coresPerNode = a.number(1u); }},
    {"--stu-entries", "n",
     "STU entries, a multiple of --stu-assoc (default 1024)", kSystem,
     [](Cli& c, const Arg& a) {
         c.config.stu.entries = a.number<std::size_t>(1);
     }},
    {"--stu-assoc", "n", "STU associativity (default 8)", kSystem,
     [](Cli& c, const Arg& a) {
         c.config.stu.assoc = a.number<std::size_t>(1);
     }},
    {"--acm-bits", "n", "ACM entry width: 8, 16 or 32 (default 16)", kSystem,
     [](Cli& c, const Arg& a) {
         const std::optional<std::uint64_t> bits = parseUnsigned(a.text);
         if (!bits || (*bits != 8 && *bits != 16 && *bits != 32))
             a.bad("8, 16 or 32");
         c.config.stu.acmBits = static_cast<unsigned>(*bits);
     }},
    {"--pairs", "n", "DeACT-N (tag, ACM) pairs per way, 1-3 (default 2)",
     kSystem,
     [](Cli& c, const Arg& a) { c.config.stu.pairsPerWay = a.number(1u, 3u); }},
    {"--fabric-ns", "n", "one-way fabric latency in ns, >= 1 (default 450)",
     kSystem,
     [](Cli& c, const Arg& a) {
         constexpr Tick kMaxNs = std::numeric_limits<Tick>::max() / kNanosecond;
         c.config.fabric.latency = a.number<Tick>(1, kMaxNs) * kNanosecond;
     }},
    {"--warmup", "f", "warmup fraction, 0-1 (default 0.3)", kSystem,
     [](Cli& c, const Arg& a) { c.config.warmupFraction = a.real(0, 1); }},
    {"--jobs", "n", "tenant jobs on every core, 1-64 (default 1)", kSystem,
     [](Cli& c, const Arg& a) {
         c.config.tenancy.jobs = a.number(1u, kMaxJobs);
     }},
    {"--skew", "f", "Zipf tenant skew, 0-10, needs --jobs >= 2 (default 0)",
     kSystem,
     [](Cli& c, const Arg& a) { c.config.tenancy.zipfSkew = a.real(0, 10); }},
    {"--churn", "n",
     "mean tenant residency in ops, needs --jobs >= 2 (default 0: none)",
     kSystem,
     [](Cli& c, const Arg& a) {
         c.config.tenancy.churnMeanOps = a.number<std::uint64_t>(0);
     }},
    {kRecordFlag, "path",
     "record the workload to a trace (.gz, .txt, else binary) and exit",
     kReplay, [](Cli& c, const Arg& a) { c.record = a.text; }},
    {kReplayFlag, "path", "drive every core from a trace (default: none)",
     kReplay, [](Cli& c, const Arg& a) { c.replay = a.text; }},
    {"--replay-node", "n", "only node n replays (default: every node)",
     kReplay, [](Cli& c, const Arg& a) { c.replayNode = a.number(0u); }},
    {"--replay-core", "n", "only core n of each node replays (default: all)",
     kReplay, [](Cli& c, const Arg& a) { c.replayCore = a.number(0u); }},
    {"--threads", "n",
     "0 = serial kernel, else parallel workers (default FAMSIM_THREADS or 0)",
     kKernel, [](Cli& c, const Arg& a) { c.threads = a.number(0u); }},
    {"--sweep-jobs", "n",
     "workers for sweep points, 1-1024 (default FAMSIM_SWEEP_JOBS or 1)",
     kKernel, [](Cli& c, const Arg& a) { c.sweepJobs = a.number(1u, 1024u); },
     kSweepFlag},
    {"--stats", nullptr, "dump every statistic after the run", kOutput,
     [](Cli& c, const Arg&) { c.stats = true; }},
    {"--csv", nullptr, "dump every statistic as CSV after the run", kOutput,
     [](Cli& c, const Arg&) { c.csv = true; }},
    {kTraceOutFlag, "file", "write a Chrome trace_event timeline",
     kObservation, [](Cli& c, const Arg& a) { c.traceOut = a.text; }},
    {"--trace-filter", "cat", "packet|psim|all: timeline events (default all)",
     kObservation,
     [](Cli& c, const Arg& a) {
         c.traceFilter = a.pick<unsigned>({{"packet", TraceSink::kPacket},
                                           {"psim", TraceSink::kPsim},
                                           {"all", TraceSink::kAll}});
     },
     kTraceOutFlag},
    {"--profile", nullptr, "export host wall-clock timings", kObservation,
     [](Cli& c, const Arg&) { c.profile = true; }},
    {"--json", nullptr, "print the stats, or the whole sweep, as JSON", kMode,
     [](Cli& c, const Arg&) { c.json = true; }},
    {"--scenario", "name", "run a registered scenario, print its JSON", kMode,
     [](Cli& c, const Arg& a) { c.scenario = a.text; }},
    {kSweepFlag, "name", "run a sensitivity sweep (Fig. 13-16)", kMode,
     [](Cli& c, const Arg& a) { c.sweep = a.text; }},
    {"--record-scenario", "name", "run a scenario, traces into --record",
     kMode, [](Cli& c, const Arg& a) { c.recordScenario = a.text; }},
    {"--replay-scenario", "name", "run a scenario, traces from --replay",
     kMode, [](Cli& c, const Arg& a) { c.replayScenario = a.text; }},
    {"--list", nullptr, "list benchmark profiles", kMode,
     [](Cli& c, const Arg&) { c.list = true; }},
    {"--list-scenarios", nullptr, "list scenarios and sweep points", kMode,
     [](Cli& c, const Arg&) { c.listScenarios = true; }},
    {"--list-sweeps", nullptr, "list sensitivity sweeps", kMode,
     [](Cli& c, const Arg&) { c.listSweeps = true; }},
    {kHelpFlag, nullptr, "print this help", kMode,
     [](Cli& c, const Arg&) { c.help = true; }},
};

void
printHelp(std::ostream& os, const char* argv0)
{
    os << "usage: " << argv0 << " [flags]\n";
    for (const Flag& flag : kFlags) {
        std::string usage = flag.name;
        if (flag.hint)
            usage += std::string(" <") + flag.hint + ">";
        os << "  " << std::left << std::setw(26) << usage << flag.help
           << "\n";
    }
}

/** Parse argv into @p cli; @return the flags given, in order. */
std::vector<const Flag*>
parse(Cli& cli, int argc, char** argv)
{
    std::vector<const Flag*> given;
    for (int i = 1; i < argc; ++i) {
        const std::string name =
            std::strcmp(argv[i], "-h") == 0 ? kHelpFlag : argv[i];
        const Flag* flag =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag& f) { return name == f.name; });
        if (flag == std::end(kFlags)) {
            std::cerr << "unknown option '" << name << "'\n";
            usageError();
        }
        Arg arg{flag->name, {}};
        if (flag->hint) {
            if (i + 1 >= argc) {
                std::cerr << flag->name << " needs a value\n";
                usageError();
            }
            arg.text = argv[++i];
        }
        flag->set(cli, arg);
        given.push_back(flag);
    }
    return given;
}

constexpr const char* kPinned =
    "; --scenario/--sweep/--record-scenario/--replay-scenario runs use "
    "their pinned configuration";
constexpr const char* kUnobserved =
    " in --sweep/--record-scenario/--replay-scenario mode";
constexpr const char* kNoSystem =
    "; --record samples the workload stream without building a system";

/**
 * Why @p mode ignores @p flag — the end of "<flag> is ignored" — or
 * nullptr when it reads it. Each mode names the scopes it ignores.
 */
const char*
whyIgnored(RunMode mode, const Flag& flag)
{
    auto in = [&](std::initializer_list<Scope> scopes) {
        return std::find(scopes.begin(), scopes.end(), flag.scope) !=
               scopes.end();
    };
    switch (mode) {
      case RunMode::Run:
        return nullptr;
      case RunMode::Record:
        return in({kSystem, kKernel, kOutput, kObservation, kMode})
                   ? kNoSystem
                   : nullptr;
      case RunMode::RecordScenario:
      case RunMode::ReplayScenario:
        // Except the capture mode's trace directory.
        if (std::strcmp(flag.name, mode == RunMode::RecordScenario
                                       ? kRecordFlag
                                       : kReplayFlag) == 0)
            return nullptr;
        [[fallthrough]];
      case RunMode::Sweep:
        // The sweep runs many Systems, and the capture modes pin
        // their own export.
        if (in({kObservation}))
            return kUnobserved;
        [[fallthrough]];
      case RunMode::Scenario:
        return in({kWorkload, kSystem, kReplay, kOutput}) ? kPinned
                                                          : nullptr;
    }
    return nullptr;
}

/**
 * Warn about every given flag the run never reads: accepting one
 * silently would let the user believe it changed what was measured.
 */
void
warnIgnored(RunMode mode, const std::vector<const Flag*>& given)
{
    auto wasGiven = [&](const char* name) {
        return std::any_of(given.begin(), given.end(), [&](const Flag* f) {
            return std::strcmp(f->name, name) == 0;
        });
    };
    for (const Flag* flag : given) {
        if (flag->needs && !wasGiven(flag->needs))
            warn(flag->name, " is ignored without ", flag->needs);
        else if (const char* why = whyIgnored(mode, *flag))
            warn(flag->name, " is ignored", why);
    }
}

/** A registered scenario or sweep point; exits 2 on unknown names. */
const Scenario&
findScenario(const std::string& name)
{
    const ScenarioRegistry& reg = ScenarioRegistry::paper();
    const ScenarioRegistry& points = SweepRegistry::paperPoints();
    if (reg.has(name))
        return reg.byName(name);
    if (points.has(name))
        return points.byName(name);
    std::cerr << "unknown scenario '" << name
              << "' (try --list-scenarios)\n";
    std::exit(2);
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

void
listScenarios()
{
    // Grouped by figure/family ("fig09_acm_hit_rate", "multitenant",
    // "trace_replay", ...): names sort family-first, so one pass with
    // a header whenever the figure changes keeps each family together.
    // Sweep points are runnable scenarios too ("<sweep>.<label>").
    for (const ScenarioRegistry* reg :
         {&ScenarioRegistry::paper(), &SweepRegistry::paperPoints()}) {
        std::string figure;
        for (const auto& name : reg->names()) {
            const Scenario& s = reg->byName(name);
            if (s.figure != figure) {
                figure = s.figure;
                std::cout << figure << ":\n";
            }
            std::cout << "  " << name << "\t" << s.description << "\n";
        }
    }
}

int
runSweep(const Cli& cli)
{
    const SweepRegistry& sweeps = SweepRegistry::paper();
    if (!sweeps.has(cli.sweep)) {
        std::cerr << "unknown sweep '" << cli.sweep
                  << "' (try --list-sweeps)\n";
        return 2;
    }
    const Sweep& sweep = sweeps.byName(cli.sweep);
    if (cli.json) {
        writeSweepJson(std::cout, sweep, cli.threads, cli.sweepJobs);
        return 0;
    }
    ScopedQuietLogs quiet_sweep;
    FigureReport report(sweep.name, sweep.description, sweep.axis.name,
                        {"ipc", "fam_at%", "at_hit%", "acm_hit%"});
    const std::vector<Scenario> points = sweep.expand();
    std::vector<SystemConfig> configs;
    configs.reserve(points.size());
    for (const Scenario& point : points) {
        std::cerr << "sweep: " << point.name << "...\n";
        configs.push_back(point.config);
    }
    SweepExecutor executor(cli.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, cli.threads);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunResult& r = results[i];
        report.addRow(points[i].name.substr(sweep.name.size() + 1),
                      {r.ipc, r.famAtPercent, 100.0 * r.translationHitRate,
                       100.0 * r.acmHitRate});
    }
    // Host wall clock per point, stderr only: the table on stdout
    // stays byte-identical across machines and job counts.
    const std::vector<double>& seconds = executor.pointSeconds();
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::cerr << "sweep: " << points[i].name << " took " << seconds[i]
                  << " s\n";
    }
    report.printTable(std::cout);
    return 0;
}

void
recordStream(const Cli& cli)
{
    // Ad-hoc recording samples one synthetic stream; it never builds
    // a System.
    StreamGen gen(cli.config.profile, kWorkloadVaBase, cli.config.seed, 0);
    TraceWriter writer(cli.record);
    writer.setFootprint(gen.footprintPages());
    writer.record(gen, cli.config.core.instructionLimit);
    writer.close();
    std::cout << "recorded " << writer.written() << " ops ("
              << toString(writer.format()) << ") to " << cli.record
              << "\n";
}

/**
 * Point the ad-hoc run's cores at the --replay trace. @return 2 when
 * --replay-node/--replay-core lie outside the system, else 0.
 */
int
setUpReplay(Cli& cli)
{
    const std::string path = cli.replay;
    const std::optional<unsigned> node = cli.replayNode;
    const std::optional<unsigned> core = cli.replayCore;
    if (node && *node >= cli.config.nodes) {
        std::cerr << "--replay-node " << *node << " out of range (have "
                  << cli.config.nodes << " nodes)\n";
        return 2;
    }
    if (core && *core >= cli.config.coresPerNode) {
        std::cerr << "--replay-core " << *core << " out of range (have "
                  << cli.config.coresPerNode << " cores per node)\n";
        return 2;
    }
    {
        // Open once up front so a bad trace is diagnosed before the
        // (possibly long) system build, and to print the summary.
        auto probe = TraceReader::open(path);
        std::cerr << "replaying " << probe->size() << " ops ("
                  << toString(probe->format()) << ") covering "
                  << probe->footprintPages().size() << " pages on "
                  << (node ? "node " + std::to_string(*node)
                           : std::string("every node"))
                  << ", "
                  << (core ? "core " + std::to_string(*core)
                           : std::string("every core"))
                  << "\n";
    }
    // Each selected core gets its own reader (own cursor); the rest
    // fall back to the synthetic workload via nullptr.
    cli.config.workloadFactory =
        [path, node, core](unsigned n,
                           unsigned c) -> std::unique_ptr<WorkloadGen> {
        if (node && *node != n) return nullptr;
        if (core && *core != c) return nullptr;
        return TraceReader::open(path);
    };
    return 0;
}

void
printRun(const Cli& cli, System& system, const Profiler& prof)
{
    // In --json mode stdout carries only the JSON object (pipeable to
    // jq); the human summary goes to stderr instead.
    std::ostream& summary = cli.json ? std::cerr : std::cout;
    summary << "bench=" << cli.config.profile.name
            << " arch=" << archTag(cli.config.arch)
            << " nodes=" << cli.config.nodes
            << " cores=" << cli.config.coresPerNode << "\n";
    summary << "ipc                  = " << system.ipc() << "\n";
    summary << "fam_at_percent       = " << system.famAtPercent() << "\n";
    summary << "translation_hit_rate = " << system.translationHitRate()
            << "\n";
    summary << "acm_hit_rate         = " << system.acmHitRate() << "\n";
    summary << "mpki                 = " << system.mpki() << "\n";
    if (cli.stats)
        system.sim().stats().dump(std::cout);
    if (cli.csv)
        system.sim().stats().dumpCsv(std::cout);
    if (cli.json) {
        if (cli.profile) {
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
    } else if (cli.profile) {
        std::cout << "profile: ";
        prof.writeJson(std::cout);
        std::cout << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    // Parse every argument before dispatching any action, so a typo
    // after an action flag is still diagnosed.
    const std::vector<const Flag*> given = parse(cli, argc, argv);

    if (cli.help) {
        printHelp(std::cout, argv[0]);
        return 0;
    }
    if (cli.listScenarios) {
        listScenarios();
        return 0;
    }
    if (cli.listSweeps) {
        for (const auto& name : SweepRegistry::paper().names()) {
            const Sweep& sweep = SweepRegistry::paper().byName(name);
            std::cout << name << "\t" << sweep.description << "\n";
        }
        return 0;
    }
    if (cli.list) {
        for (const auto& p : profiles::all()) {
            std::cout << p.name << "\t" << p.suite << "\tMPKI "
                      << p.paperMpki << "\n";
        }
        return 0;
    }
    const int registry_modes = static_cast<int>(!cli.scenario.empty()) +
                               static_cast<int>(!cli.sweep.empty()) +
                               static_cast<int>(!cli.recordScenario.empty()) +
                               static_cast<int>(!cli.replayScenario.empty());
    if (registry_modes > 1) {
        std::cerr << "--scenario, --sweep, --record-scenario and "
                     "--replay-scenario are mutually exclusive\n";
        return 2;
    }
    if (!cli.recordScenario.empty() && cli.record.empty()) {
        std::cerr << "--record-scenario needs --record <dir> for the "
                     "per-core trace files\n";
        return 2;
    }
    if (!cli.replayScenario.empty() && cli.replay.empty()) {
        std::cerr << "--replay-scenario needs --replay <dir> holding the "
                     "per-core trace files\n";
        return 2;
    }
    if (cli.recordScenario.empty() && cli.replayScenario.empty() &&
        !cli.record.empty() && !cli.replay.empty()) {
        std::cerr << "--record and --replay are mutually exclusive\n";
        return 2;
    }
    if ((cli.replayNode || cli.replayCore) && cli.replay.empty()) {
        std::cerr << "--replay-node/--replay-core need --replay <file>\n";
        return 2;
    }
    const RunMode mode = cli.mode();
    warnIgnored(mode, given);

    switch (mode) {
      case RunMode::RecordScenario:
        std::cout << recordScenarioTraces(findScenario(cli.recordScenario),
                                          cli.record, TraceFormat::Binary,
                                          cli.threads);
        return 0;
      case RunMode::ReplayScenario:
        std::cout << replayScenarioJson(findScenario(cli.replayScenario),
                                        cli.replay, cli.threads);
        return 0;
      case RunMode::Sweep:
        return runSweep(cli);
      case RunMode::Record:
        recordStream(cli);
        return 0;
      case RunMode::Scenario:
      case RunMode::Run:
        break;
    }

    // One System, for --scenario or the ad-hoc run.
    const Scenario* scenario =
        mode == RunMode::Scenario ? &findScenario(cli.scenario) : nullptr;
    if (!scenario) {
        const TenancyParams& tenancy = cli.config.tenancy;
        if (tenancy.jobs < 2 &&
            (tenancy.zipfSkew > 0.0 || tenancy.churnMeanOps > 0)) {
            warn("--skew/--churn are ignored without --jobs >= 2 "
                 "(single-tenant run)");
        }
        if (!cli.replay.empty()) {
            if (int status = setUpReplay(cli); status != 0)
                return status;
        }
    }
    ScopedQuietLogs quiet;
    System system(scenario ? scenario->config : cli.config);
    // Observation never perturbs the simulation: a scenario's stats
    // export is byte-identical with or without these attached.
    TraceSink sink(system.traceLanes(), cli.traceFilter);
    Profiler prof;
    if (!cli.traceOut.empty())
        system.attachTrace(&sink);
    if (cli.profile)
        system.attachProfiler(&prof);
    if (scenario) {
        writeScenarioJson(std::cout, *scenario, system, cli.threads);
        std::cout << "\n";
    } else {
        system.run(cli.threads);
        printRun(cli, system, prof);
    }
    if (!cli.traceOut.empty())
        writeTraceFile(sink, cli.traceOut);
    return 0;
}
