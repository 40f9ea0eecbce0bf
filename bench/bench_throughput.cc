/**
 * @file
 * Host-throughput benchmark of the simulator's hot paths (the
 * BENCH_hotpath trajectory) and famsim's only host-timing binary:
 * SetAssocCache lookups/inserts per replacement policy, StreamGen op
 * generation, EventQueue scheduling churn, raw RNG draws, the
 * end-to-end fig12 performance-scenario wall clock, the parallel
 * kernel against the serial one on the fig16 16/32/64-node points and
 * the one-node fig12 base point (speedup_parallel_* summaries; the
 * fig16 n16 four-worker one is gated, the rest reported only), System
 * construction time and RSS growth at 1/16/64
 * nodes (construct_*_fig16n* summaries, reported only), and the paper
 * sweep set exported at one sweep job and pooled (pooled_speedup).
 * Unlike the bench_fig* binaries this measures *host* speed (ns/op,
 * Mops/s), so the values vary by machine; each row also carries
 * rel_cost — its cost normalized to a raw PCG32 draw on the same host
 * — which is stable enough across machines to regression-gate in CI
 * (see --baseline).
 *
 *   bench_throughput [--json] [--out path] [--sweep-jobs n]
 *                    [--baseline path]
 *
 * --sweep-jobs sets the pooled sweep's workers (default 4). Both sweep
 * exports must be byte-identical, or the run exits 3. With --baseline
 * the run also exits 3 if any gated row's rel_cost regresses by more
 * than kRelCostTolerance against the same row in a previously exported
 * BENCH_hotpath.json, if pooled_speedup falls below
 * kPooledSpeedupFloor less kPooledTolerance, or if
 * speedup_parallel_fig16n16_t4 falls below kParallelSpeedupFloor less
 * kParallelTolerance (skipped on a host with fewer than four hardware
 * threads).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/set_assoc.hh"
#include "harness/figure_report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/rng.hh"
#include "workload/stream_gen.hh"

using namespace famsim;

namespace {

/**
 * Pre-PR (seed) reference numbers, measured on the development host
 * right before the hot-path overhaul landed, with the same loops this
 * binary runs. They exist so the exported JSON documents the speedup
 * the overhaul delivered on like-for-like hardware; on other machines
 * treat the speedup_vs_seed_* summaries as indicative only (the
 * rel_cost gate is the portable check).
 */
constexpr double kSeedLookupNs[2] = {18.0, 17.6}; // LRU/Random
constexpr double kSeedStreamGenNs = 35.6;
constexpr double kSeedEventQueueNs = 111.4;
constexpr double kSeedFig12Seconds = 0.46;

/** A gated row fails when its rel_cost grows by more than this. */
constexpr double kRelCostTolerance = 0.20;

/**
 * The pooled sweep must beat one job by this factor, less
 * kPooledTolerance (so 1.125). 1.5 is rounded down from a 4-core
 * recording (pooled_speedup 1.73-2.38 over five runs); a runner with
 * fewer cores than sweep jobs should not run the gate. The floor lives
 * here, not in the baseline file, so re-recording a baseline cannot
 * move it.
 */
constexpr double kPooledSpeedupFloor = 1.5;
constexpr double kPooledTolerance = 0.25;

/**
 * The partitioned kernel at four workers must beat the serial kernel
 * on fig16 n16 by this factor, less kParallelTolerance (so 1.2).
 * 1.6 is rounded down from PLACEHOLDER. Like the pooled floor it
 * lives here, not in the baseline file; a host with fewer than four
 * hardware threads skips the gate.
 */
constexpr double kParallelSpeedupFloor = 1.6;
constexpr double kParallelTolerance = 0.25;
constexpr unsigned kParallelGateThreads = 4;

volatile std::uint64_t g_sink = 0;

/** Best-of-@p reps wall-clock seconds of @p fn. */
template <typename Fn>
double
bestOfSeconds(int reps, Fn&& fn)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

double
timeLookup(ReplPolicy policy, std::uint64_t iters)
{
    SetAssocCache<std::uint64_t> cache(16384, 4, policy, 1);
    for (std::uint64_t k = 0; k < 65536; ++k)
        cache.insert(k, k);
    return bestOfSeconds(7, [&] {
        Rng rng(42);
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
            std::uint64_t* v = cache.lookup(rng.below(65536));
            sink += v ? *v : 0;
        }
        g_sink = g_sink + sink;
    });
}

double
timeInsertChurn(ReplPolicy policy, std::uint64_t iters)
{
    SetAssocCache<std::uint64_t> cache(128, 8, policy, 1);
    std::uint64_t key = 0;
    return bestOfSeconds(7, [&] {
        for (std::uint64_t i = 0; i < iters; ++i) {
            ++key;
            cache.insert(key * 7919, key);
        }
        g_sink = g_sink + cache.countValid();
    });
}

double
timeStreamGen(const char* profile, std::uint64_t iters)
{
    StreamGen gen(profiles::byName(profile), 0x100000000000ULL, 1, 0);
    return bestOfSeconds(7, [&] {
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            sink += gen.next().vaddr;
        g_sink = g_sink + sink;
    });
}

double
timeEventQueue(std::uint64_t events)
{
    return bestOfSeconds(7, [&] {
        EventQueue q;
        std::uint64_t executed = 0;
        // Self-rescheduling chains: every event schedules a successor
        // until the budget drains, mimicking the simulator's pattern
        // of components rescheduling themselves.
        struct Chain {
            EventQueue& q;
            std::uint64_t& executed;
            std::uint64_t budget;
            void
            operator()() const
            {
                if (++executed < budget)
                    q.scheduleAfter(7, Chain{q, executed, budget});
            }
        };
        for (int i = 0; i < 64; ++i)
            q.schedule(static_cast<Tick>(i), Chain{q, executed, events});
        q.run();
        g_sink = g_sink + q.executed();
    });
}

double
timeRngDraws(std::uint64_t iters)
{
    return bestOfSeconds(7, [&] {
        Rng rng(7);
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < iters; ++i)
            sink += rng.next();
        g_sink = g_sink + sink;
    });
}

double
timeFig12()
{
    // Pinned to the original four architecture points: the figure
    // family also holds the observability locks (.base / .observed),
    // and letting registry growth inflate this gated row would read as
    // a hot-path regression.
    static const char* kPoints[] = {
        "fig12_performance.mcf.efam",
        "fig12_performance.mcf.ifam",
        "fig12_performance.mcf.deactw",
        "fig12_performance.mcf.deactn",
    };
    const auto& registry = ScenarioRegistry::paper();
    return bestOfSeconds(5, [&] {
        std::size_t bytes = 0;
        for (const char* name : kPoints)
            bytes += runScenarioJson(registry.byName(name)).size();
        g_sink = g_sink + bytes;
    });
}

/**
 * Wall clock of one scenario under one execution kernel: the fig16
 * scaling points (16/32/64 nodes — the sharded parallel kernel's
 * acceptance anchors) and the one-node fig12 base point (where
 * per-window overhead shows most). threads = 0 is the serial
 * reference; >= 1 the conservative-window kernel. Parallel runs also
 * report the window (= barrier round) count — the cadence data behind
 * the 64-node barrier question.
 */
struct KernelRun {
    double seconds = 0.0;
    std::uint64_t windows = 0;
};

KernelRun
timeKernel(const Scenario& scenario, unsigned threads, int reps,
           Profiler* prof = nullptr)
{
    ScopedQuietLogs quiet;
    KernelRun run;
    run.seconds = bestOfSeconds(reps, [&] {
        System system(scenario.config);
        if (prof)
            system.attachProfiler(prof);
        system.run(threads);
        g_sink = g_sink + system.sim().stats().jsonString().size();
        run.windows = system.parallelWindows();
    });
    return run;
}

/** Current resident set in MB (/proc/self/statm; 0 where absent). */
double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/**
 * One fresh System construction of a fig16 scaling point: host
 * seconds and resident-set growth while the System is alive. Host
 * numbers — reported, never gated; the deterministic gate on
 * construction memory is the Footprint.FamTableHostBytes* test.
 */
struct ConstructRun {
    double seconds = 0.0;
    double rssMb = 0.0;
};

ConstructRun
timeConstruct(const std::string& point)
{
    const Scenario& scenario =
        SweepRegistry::paperPoints().byName(point);
    ScopedQuietLogs quiet;
    ConstructRun run;
    const double rss0 = currentRssMb();
    auto t0 = std::chrono::steady_clock::now();
    System system(scenario.config);
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    run.rssMb = currentRssMb() - rss0;
    return run;
}

/**
 * The sweep set: Fig. 13-15 in full, Fig. 16 trimmed to the paper's
 * 1-8 node range. The 16/32/64-node scaling points run for seconds
 * each, so pooling them would time the slowest point instead of the
 * executor; the fig16n* rows time them.
 */
std::vector<Sweep>
benchSweeps()
{
    std::vector<Sweep> out;
    for (const std::string& name : SweepRegistry::paper().names()) {
        Sweep sweep = SweepRegistry::paper().byName(name);
        if (name == "fig16_num_nodes")
            sweep.axis.points.resize(4); // n1, n2, n4, n8
        out.push_back(std::move(sweep));
    }
    return out;
}

/** Instructions every point of @p sweeps retires, summed over cores. */
std::uint64_t
sweepInstructions(const std::vector<Sweep>& sweeps)
{
    std::uint64_t total = 0;
    for (const Sweep& sweep : sweeps) {
        for (const Scenario& point : sweep.expand()) {
            total += std::uint64_t{point.config.nodes} *
                     point.config.coresPerNode *
                     point.config.core.instructionLimit;
        }
    }
    return total;
}

/**
 * Best-of-@p reps seconds to export every sweep in @p sweeps with
 * @p jobs sweep workers (one job is the serial path: no pool threads).
 * The last rep's exports, concatenated, land in @p exports.
 */
double
timeSweeps(const std::vector<Sweep>& sweeps, unsigned jobs, int reps,
           std::string& exports)
{
    ScopedQuietLogs quiet;
    return bestOfSeconds(reps, [&] {
        exports.clear();
        for (const Sweep& sweep : sweeps)
            exports += runSweepJson(sweep, 0, jobs);
    });
}

/**
 * Extract row @p name's values array from a BENCH_hotpath.json dump.
 * Minimal scan matched to FigureReport::writeJson's fixed layout.
 */
bool
baselineValues(const std::string& json, const std::string& name,
               std::vector<double>& out)
{
    std::string needle = "{\"name\": \"" + name + "\", \"values\": [";
    std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t start = at + needle.size();
    std::size_t end = json.find(']', start);
    if (end == std::string::npos)
        return false;
    std::stringstream ss(json.substr(start, end - start));
    out.clear();
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(std::strtod(tok.c_str(), nullptr));
    return !out.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    // Peel off the flags this bench adds on top of the shared harness.
    std::string baseline_path;
    std::vector<char*> pass_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--baseline" && i + 1 < argc)
            baseline_path = argv[++i];
        else
            pass_argv.push_back(argv[i]);
    }
    BenchOptions options =
        parseBenchArgs(static_cast<int>(pass_argv.size()),
                       pass_argv.data(), /*instr_fallback=*/0);
    // The pooled sweep should exercise real fan-out by default: 4
    // jobs unless the user asked for more.
    const unsigned pooled_jobs =
        options.sweepJobs > 1 ? options.sweepJobs : 4;

    FigureReport report(
        "BENCH_hotpath",
        "Host throughput: hot-path structures and fig12 wall clock",
        "path", {"ns_per_op", "mops_per_sec", "rel_cost"});

    // Construction cost per node count (page tables, prefault, broker
    // tables), measured before anything else allocates and smallest
    // first, so freed heap from earlier work cannot hide the growth.
    const char* kConstructNodes[3] = {"n1", "n16", "n64"};
    ConstructRun construct[3];
    for (int p = 0; p < 3; ++p) {
        construct[p] = timeConstruct(std::string("fig16_num_nodes.") +
                                     kConstructNodes[p]);
    }

    const std::uint64_t kIters = 4000000;
    double calib = timeRngDraws(4 * kIters) / double(4 * kIters);

    auto add = [&](const std::string& name, double seconds,
                   std::uint64_t ops) {
        double ns = seconds / static_cast<double>(ops) * 1e9;
        double mops = static_cast<double>(ops) / seconds / 1e6;
        report.addRow(name, {ns, mops, ns / (calib * 1e9)});
        return ns;
    };

    add("rng.next", calib * double(4 * kIters), 4 * kIters);

    const ReplPolicy kPolicies[] = {ReplPolicy::Lru, ReplPolicy::Random};
    const char* kPolicyTag[] = {"lru", "random"};
    double lookup_ns[2];
    for (int p = 0; p < 2; ++p) {
        lookup_ns[p] = add(
            std::string("set_assoc_lookup.") + kPolicyTag[p],
            timeLookup(kPolicies[p], kIters), kIters);
        add(std::string("set_assoc_insert.") + kPolicyTag[p],
            timeInsertChurn(kPolicies[p], kIters / 2), kIters / 2);
    }

    double sg_ns = add("stream_gen.mcf", timeStreamGen("mcf", kIters),
                       kIters);
    add("stream_gen.sssp", timeStreamGen("sssp", kIters), kIters);

    double eq_ns = add("event_queue.churn", timeEventQueue(kIters),
                       kIters);

    double fig12_s = timeFig12();
    // 4 architectures x 60000 instructions per scenario run.
    add("fig12_scenarios.e2e", fig12_s, 4 * 60000);

    // Parallel-kernel trajectory: the 16-node fig16 sweep point (64
    // cores x 60k instructions) end to end, serial vs the sharded
    // windowed kernel at 1/2/4 workers. The speedup summaries are the
    // headline; like the wall-clock rows they depend on the host's
    // core count (~1x on a single-core runner), so only the t4 one is
    // gated, against a fixed floor, and only on a host with four
    // hardware threads.
    const auto& points = SweepRegistry::paperPoints();
    const Scenario& n16 = points.byName("fig16_num_nodes.n16");
    const std::uint64_t fig16_ops = 16 * 4 * 60000;
    double psim_serial_s = timeKernel(n16, 0, 2).seconds;
    add("fig16n16.serial", psim_serial_s, fig16_ops);
    KernelRun psim_t[3];
    const unsigned kWorkerCounts[3] = {1, 2, 4};
    // The t4 run carries the wall-clock profiler: its drain/exec/
    // coordinator split (last rep's numbers) becomes the summary rows
    // below. Host timings — reported, never gated.
    Profiler prof16;
    for (int i = 0; i < 3; ++i) {
        psim_t[i] = timeKernel(n16, kWorkerCounts[i], 2,
                               kWorkerCounts[i] == 4 ? &prof16 : nullptr);
        add("fig16n16.t" + std::to_string(kWorkerCounts[i]),
            psim_t[i].seconds, fig16_ops);
    }

    // The 32/64-node scaling points answer where the barrier cadence
    // bites as partitions grow (129 at 64 nodes): serial vs the
    // 4-worker sharded kernel, one rep each (the points are big).
    KernelRun scaled[2][2]; // [point][serial, t4]
    const char* kScaledPoints[2] = {"fig16_num_nodes.n32",
                                    "fig16_num_nodes.n64"};
    const char* kScaledTag[2] = {"fig16n32", "fig16n64"};
    const std::uint64_t scaled_ops[2] = {32 * 4 * 60000, 64 * 4 * 60000};
    for (int p = 0; p < 2; ++p) {
        const Scenario& point = points.byName(kScaledPoints[p]);
        scaled[p][0] = timeKernel(point, 0, 1);
        add(std::string(kScaledTag[p]) + ".serial", scaled[p][0].seconds,
            scaled_ops[p]);
        scaled[p][1] = timeKernel(point, 4, 1);
        add(std::string(kScaledTag[p]) + ".t4", scaled[p][1].seconds,
            scaled_ops[p]);
    }

    // One node, ~10.5k windows with little work in each: the case
    // where the parallel kernel's per-window cost is all overhead.
    // ROADMAP's "--threads 1 no slower than serial" criterion reads
    // these rows (reported, not gated).
    const Scenario& fig12base =
        ScenarioRegistry::paper().byName("fig12_performance.base");
    const std::uint64_t base_ops =
        std::uint64_t{fig12base.config.nodes} *
        fig12base.config.coresPerNode *
        fig12base.config.core.instructionLimit;
    const double base_serial_s = timeKernel(fig12base, 0, 3).seconds;
    add("fig12base.serial", base_serial_s, base_ops);
    const unsigned kBaseWorkers[2] = {1, 4};
    double base_t[2];
    for (int i = 0; i < 2; ++i) {
        base_t[i] = timeKernel(fig12base, kBaseWorkers[i], 3).seconds;
        add("fig12base.t" + std::to_string(kBaseWorkers[i]), base_t[i],
            base_ops);
    }

    // The sweep executor: the paper sweep set at one job (the serial
    // path) and pooled, timed last so the process is warm. The speedup
    // only means something if both did the same work, and byte-identity
    // across job counts is the executor's contract.
    const std::vector<Sweep> sweeps = benchSweeps();
    const std::uint64_t sweep_ops = sweepInstructions(sweeps);
    std::string serial_exports, pooled_exports;
    const double sweep_serial_s = timeSweeps(sweeps, 1, 3, serial_exports);
    const double sweep_pooled_s =
        timeSweeps(sweeps, pooled_jobs, 3, pooled_exports);
    if (pooled_exports != serial_exports) {
        std::cerr << "bench_throughput: the " << pooled_jobs
                  << "-job sweep export is not byte-identical to the "
                     "1-job export\n";
        return 3;
    }
    add("sweeps.j1", sweep_serial_s, sweep_ops);
    add("sweeps.pooled", sweep_pooled_s, sweep_ops);
    const double pooled_speedup = sweep_serial_s / sweep_pooled_s;

    for (int p = 0; p < 2; ++p)
        report.addSummary(
            std::string("speedup_vs_seed_lookup_") + kPolicyTag[p],
            kSeedLookupNs[p] / lookup_ns[p]);
    report.addSummary("speedup_vs_seed_stream_gen",
                      kSeedStreamGenNs / sg_ns);
    report.addSummary("speedup_vs_seed_event_queue",
                      kSeedEventQueueNs / eq_ns);
    report.addSummary("speedup_vs_seed_fig12",
                      kSeedFig12Seconds / fig12_s);
    report.addSummary("fig12_wall_seconds", fig12_s);
    report.addSummary("fig16n16_serial_wall_seconds", psim_serial_s);
    for (int i = 0; i < 3; ++i) {
        report.addSummary("speedup_parallel_fig16n16_t" +
                              std::to_string(kWorkerCounts[i]),
                          psim_serial_s / psim_t[i].seconds);
    }
    const double parallel_speedup = psim_serial_s / psim_t[2].seconds;
    report.addSummary("windows_fig16n16_t4",
                      static_cast<double>(psim_t[2].windows));
    report.addSummary("profile_fig16n16_t4_wall_s",
                      prof16.wallSeconds());
    report.addSummary("profile_fig16n16_t4_exec_s",
                      prof16.execSeconds());
    report.addSummary("profile_fig16n16_t4_drain_s",
                      prof16.drainSeconds());
    report.addSummary("profile_fig16n16_t4_coordinator_s",
                      prof16.coordinatorSeconds());
    for (int i = 0; i < 2; ++i) {
        report.addSummary("speedup_parallel_fig12base_t" +
                              std::to_string(kBaseWorkers[i]),
                          base_serial_s / base_t[i]);
    }
    for (int p = 0; p < 2; ++p) {
        report.addSummary(std::string("speedup_parallel_") +
                              kScaledTag[p] + "_t4",
                          scaled[p][0].seconds / scaled[p][1].seconds);
        report.addSummary(std::string("windows_") + kScaledTag[p] + "_t4",
                          static_cast<double>(scaled[p][1].windows));
    }
    for (int p = 0; p < 3; ++p) {
        report.addSummary(std::string("construct_s_fig16") +
                              kConstructNodes[p],
                          construct[p].seconds);
        report.addSummary(std::string("construct_rss_mb_fig16") +
                              kConstructNodes[p],
                          construct[p].rssMb);
    }
    report.addSummary("sweep_jobs", static_cast<double>(pooled_jobs));
    report.addSummary("pooled_speedup", pooled_speedup);
    report.addMeta("seed_reference",
                   "pre-overhaul numbers measured on the dev host; see "
                   "README 'Host-throughput benchmarking'");
    report.addNote("rel_cost = ns_per_op / ns per raw PCG32 draw on "
                   "this host; use it for cross-machine comparisons "
                   "and CI gating.");
    report.addNote("sweeps.* = the paper sweep set (Fig. 13-15, Fig. 16 "
                   "n1-n8) at 1 and sweep_jobs workers; pooled_speedup "
                   "is their ratio, gated against a fixed floor.");

    int rc = emitReport(report, options);
    if (rc != 0 || baseline_path.empty())
        return rc;

    // --- regression gates: rel_cost against a prior export, and the
    // fixed pooled and parallel speedup floors ---
    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "bench_throughput: cannot read baseline '"
                  << baseline_path << "'\n";
        return 3;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string base_json = buf.str();

    std::ostringstream current;
    report.writeJson(current);
    std::string cur_json = current.str();

    bool failed = false;
    // Gated rows are single-threaded and deterministic in work, so
    // rel_cost transfers across hosts; the parallel fig16 rows depend
    // on the runner's core count, so only their t4 speedup is gated,
    // as a ratio against a fixed floor, below.
    for (const char* row :
         {"set_assoc_lookup.lru", "set_assoc_lookup.random",
          "stream_gen.mcf", "event_queue.churn", "fig12_scenarios.e2e",
          "fig16n16.serial"}) {
        std::vector<double> base, cur;
        if (!baselineValues(base_json, row, base)) {
            std::cerr << "bench_throughput: baseline lacks row '" << row
                      << "' — skipping gate for it\n";
            continue;
        }
        if (!baselineValues(cur_json, row, cur) || base.size() < 3 ||
            cur.size() < 3)
            continue;
        double base_rel = base[2], cur_rel = cur[2];
        double ratio = cur_rel / base_rel;
        std::cerr << "gate " << row << ": rel_cost " << cur_rel
                  << " vs baseline " << base_rel << " (x" << ratio
                  << ")\n";
        if (ratio > 1.0 + kRelCostTolerance) {
            std::cerr << "bench_throughput: REGRESSION on " << row
                      << " (allowed +" << kRelCostTolerance * 100
                      << "%)\n";
            failed = true;
        }
    }

    const double pooled_min = kPooledSpeedupFloor * (1.0 - kPooledTolerance);
    std::cerr << "gate pooled_speedup: " << pooled_speedup << " vs floor "
              << kPooledSpeedupFloor << " (min " << pooled_min << ")\n";
    if (pooled_speedup < pooled_min) {
        std::cerr << "bench_throughput: REGRESSION on pooled_speedup "
                     "(allowed -" << kPooledTolerance * 100 << "%)\n";
        failed = true;
    }

    const unsigned host_threads = std::thread::hardware_concurrency();
    if (host_threads < kParallelGateThreads) {
        std::cerr << "gate speedup_parallel_fig16n16_t4: skipped, this "
                     "host has "
                  << host_threads << " hardware threads and the floor "
                  << "needs " << kParallelGateThreads << "\n";
    } else {
        const double parallel_min =
            kParallelSpeedupFloor * (1.0 - kParallelTolerance);
        std::cerr << "gate speedup_parallel_fig16n16_t4: "
                  << parallel_speedup << " vs floor "
                  << kParallelSpeedupFloor << " (min " << parallel_min
                  << ")\n";
        if (parallel_speedup < parallel_min) {
            std::cerr << "bench_throughput: REGRESSION on "
                         "speedup_parallel_fig16n16_t4 (allowed -"
                      << kParallelTolerance * 100 << "%)\n";
            failed = true;
        }
    }
    return failed ? 3 : 0;
}
