/**
 * @file
 * famsim_bench — the measuring half of famsim's end-to-end benchmark
 * (run.py in this directory orchestrates it; README.md documents the
 * workloads and metrics).
 *
 * It drives libfamsim only through public calls — System, the scenario
 * and sweep registries, writeScenarioJson, SweepExecutor, the Profiler
 * and TraceSink attach points, StatRegistry and the components' own
 * public interfaces — and prints one JSON object on stdout per call:
 *
 *   famsim_bench describe
 *       build descriptor (compiler, build type, LTO/check/sanitize).
 *   famsim_bench op <workload> <seed> <export-file>
 *       one timed end-to-end operation; the export goes to the file.
 *   famsim_bench construct <workload> <seed> <variant>
 *       one construction of the workload's (first) configuration;
 *       variant is default, noprefault or noscatter.
 *   famsim_bench layers <workload> <seed> <export-file>
 *       the per-layer pass: outside probes of the components on the
 *       workload's own inputs, an untraced reference run, a profiled
 *       run on the partitioned kernel and one traced run.
 *
 * Every mode runs in its own process, so peak RSS and construction
 * cost are what a fresh user process pays.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/system.hh"
#include "cache/set_assoc.hh"
#include "harness/executor.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/trace_sink.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "workload/stream_gen.hh"

using namespace famsim;

namespace {

// ------------------------------------------------------------ workloads

/** Per-core budget of the long single-System mcf run. */
constexpr std::uint64_t kMcfInstructions = 500000;
/** Per-core budget of the 16-node run (registered: 60000). */
constexpr std::uint64_t kPfInstructions = 80000;
/**
 * Per-core budgets of the per-layer pass. The traced run buffers every
 * packet span in memory, so it runs shorter than the timed operation;
 * run.py prints the budget it used.
 */
constexpr std::uint64_t kMcfLayerInstructions = 250000;
constexpr std::uint64_t kPfLayerInstructions = 30000;
/** Partitioned-kernel threads for the psim probe of serial workloads. */
constexpr unsigned kPsimProbeThreads = 4;

struct Workload {
    /** The scenarios one operation runs: one, or the sweep's points. */
    std::vector<Scenario> points;
    /** System::run kernel of every point (0 = serial reference). */
    unsigned threads = 0;
    /** 0: one System driven directly; else SweepExecutor(jobs). */
    unsigned jobs = 0;
    /** Per-core budget of the per-layer pass (first point only). */
    std::uint64_t layerInstructions = 0;
};

Workload
makeWorkload(const std::string& name, std::uint64_t seed)
{
    Workload w;
    if (name == "mcf_n1") {
        Scenario s = ScenarioRegistry::paper().byName(
            "fig12_performance.mcf.deactn");
        s.config.core.instructionLimit = kMcfInstructions;
        w.points.push_back(std::move(s));
        w.layerInstructions = kMcfLayerInstructions;
    } else if (name == "pf_n16_t4") {
        Scenario s =
            SweepRegistry::paperPoints().byName("fig16_num_nodes.n16");
        s.config.core.instructionLimit = kPfInstructions;
        w.points.push_back(std::move(s));
        w.threads = 4;
        w.layerInstructions = kPfLayerInstructions;
    } else if (name == "sweep_fig13_15_j4") {
        for (const char* sweep : {"fig13_stu_entries", "fig14_acm_size",
                                  "fig15_fabric_latency"}) {
            for (Scenario& s : SweepRegistry::paper().byName(sweep).expand())
                w.points.push_back(std::move(s));
        }
        w.jobs = 4;
    } else {
        std::cerr << "famsim_bench: unknown workload '" << name << "'\n";
        std::exit(2);
    }
    for (Scenario& s : w.points)
        s.config.seed = seed;
    if (w.layerInstructions == 0)
        w.layerInstructions = w.points.front().config.core.instructionLimit;
    return w;
}

// ------------------------------------------------------------- helpers

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Current resident set in MB (/proc/self/statm). */
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
 * Host steal time so far, in CPU-seconds over all of this machine's
 * CPUs (/proc/stat): time the hypervisor ran something else while a
 * CPU of this guest wanted to run. 0 where unavailable.
 */
double
stealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t field[8] = {};
    stat >> cpu;
    for (std::uint64_t& f : field)
        stat >> f;
    if (!stat || cpu != "cpu")
        return 0.0;
    return static_cast<double>(field[7]) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

struct HostUsage {
    double peakRssMb = 0.0;
    double cpuSeconds = 0.0;
    double sysSeconds = 0.0;
};

HostUsage
hostUsage()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    HostUsage u;
    u.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    u.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                   static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sysSeconds = static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    return u;
}

/** 64-bit FNV-1a, the export digest. */
std::uint64_t
fnv1a(const std::string& bytes, std::uint64_t hash = 0xcbf29ce484222325ull)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Flat JSON object writer for the one line each mode prints. */
class JsonLine
{
  public:
    void
    num(const std::string& key, double v)
    {
        sep(key);
        if (std::isfinite(v))
            json::writeNumber(os_, v);
        else
            os_ << "null";
    }

    void
    str(const std::string& key, const std::string& v)
    {
        sep(key);
        json::writeString(os_, v);
    }

    void
    nums(const std::string& key, const std::vector<double>& vs)
    {
        sep(key);
        os_ << "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i)
                os_ << ", ";
            json::writeNumber(os_, vs[i]);
        }
        os_ << "]";
    }

    void
    print()
    {
        std::cout << "{" << os_.str() << "}" << std::endl;
    }

  private:
    void
    sep(const std::string& key)
    {
        if (!first_)
            os_ << ", ";
        first_ = false;
        json::writeString(os_, key);
        os_ << ": ";
    }

    std::ostringstream os_;
    bool first_ = true;
};

/** Every core of @p system retired its full budget. */
bool
retiredBudget(System& system)
{
    const SystemConfig& c = system.config();
    for (unsigned n = 0; n < c.nodes; ++n) {
        for (auto& core : system.node(n).cores) {
            if (core.core->instructionsRetired() < c.core.instructionLimit)
                return false;
        }
    }
    return true;
}

std::uint64_t
totalBudget(const SystemConfig& c)
{
    return std::uint64_t{c.nodes} * c.coresPerNode *
           c.core.instructionLimit;
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    if (!out)
        FAMSIM_FATAL("cannot write ", path);
}

// ------------------------------------------------------------------ op

/**
 * One end-to-end operation. Single-System workloads: construct (timed
 * as setup), run and export through writeScenarioJson. The run time
 * excludes the export, timed as a second serialization of the same
 * registry. The sweep: one fresh construction of its first point
 * (setup), then every point through one SweepExecutor call (wall).
 */
int
modeOp(const Workload& w, const std::string& export_path)
{
    JsonLine out;
    std::string exported;
    double setup = 0.0, run = 0.0, wall = 0.0, export_s = 0.0;
    std::uint64_t instructions = 0;
    bool retired = true;
    const double steal0 = stealSeconds();

    if (w.jobs == 0) {
        const Scenario& scenario = w.points.front();
        auto t0 = Clock::now();
        System system(scenario.config);
        setup = since(t0);
        std::ostringstream os;
        auto t1 = Clock::now();
        writeScenarioJson(os, scenario, system, w.threads);
        const double run_and_export = since(t1);
        exported = os.str();
        auto t2 = Clock::now();
        std::ostringstream again;
        system.sim().stats().dumpJson(again, 2);
        export_s = since(t2);
        run = std::max(run_and_export - export_s, 1e-9);
        wall = setup + run_and_export;
        retired = retiredBudget(system);
        instructions = totalBudget(scenario.config);
    } else {
        {
            auto t0 = Clock::now();
            System first(w.points.front().config);
            setup = since(t0);
        }
        SweepExecutor executor(w.jobs);
        auto t1 = Clock::now();
        std::vector<std::string> jsons =
            executor.runScenarioJsons(w.points, w.threads);
        wall = since(t1);
        run = wall;
        exported = "[";
        for (std::size_t i = 0; i < jsons.size(); ++i)
            exported += (i ? ",\n" : "\n") + jsons[i];
        exported += "\n]";
        for (const Scenario& s : w.points)
            instructions += totalBudget(s.config);
        out.num("systems_built",
                static_cast<double>(executor.systemsBuilt()));
        out.num("systems_reused",
                static_cast<double>(executor.systemsReused()));
        out.nums("point_s", executor.pointSeconds());
    }
    const double steal = stealSeconds() - steal0;
    writeFile(export_path, exported);

    const HostUsage usage = hostUsage();
    out.num("setup_s", setup);
    out.num("run_s", run);
    out.num("wall_s", wall);
    out.num("instructions", static_cast<double>(instructions));
    out.num("points", static_cast<double>(w.points.size()));
    out.str("digest", hex(fnv1a(exported)));
    out.num("peak_rss_mb", usage.peakRssMb);
    out.num("cpu_s", usage.cpuSeconds);
    out.num("sys_s", usage.sysSeconds);
    out.num("steal_s", steal);
    out.print();
    return retired ? 0 : 1;
}

// ----------------------------------------------------------- construct

int
modeConstruct(const Workload& w, const std::string& variant)
{
    SystemConfig config = w.points.front().config;
    if (variant == "noprefault")
        config.prefault = false;
    else if (variant == "noscatter")
        config.os.scatterFamZone = false;
    else if (variant != "default")
        FAMSIM_FATAL("unknown construct variant '", variant, "'");
    const double rss0 = currentRssMb();
    auto t0 = Clock::now();
    System system(config);
    const double seconds = since(t0);
    const double rss1 = currentRssMb();
    JsonLine out;
    out.num("construct_s", seconds);
    out.num("construct_rss_mb", rss1 - rss0);
    out.print();
    return 0;
}

// -------------------------------------------------------------- probes

volatile std::uint64_t g_sink = 0;

/** Samples per outside probe: p95 leaves 10 samples beyond it. */
constexpr std::size_t kProbeSamples = 200;

struct ProbeResult {
    double median = 0.0;
    double p95 = 0.0;
};

/** Nearest-rank percentile of @p v (sorted in place). */
double
percentile(std::vector<double>& v, double p)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/** kProbeSamples timed calls of @p batch; ns per op of each. */
ProbeResult
probe(std::size_t ops_per_batch, const std::function<void()>& batch)
{
    batch(); // warm
    std::vector<double> ns;
    ns.reserve(kProbeSamples);
    for (std::size_t i = 0; i < kProbeSamples; ++i) {
        auto t0 = Clock::now();
        batch();
        ns.push_back(since(t0) * 1e9 / static_cast<double>(ops_per_batch));
    }
    ProbeResult r;
    r.p95 = percentile(ns, 0.95);
    r.median = percentile(ns, 0.50);
    return r;
}

void
emitProbe(JsonLine& out, const std::string& name, const ProbeResult& r)
{
    out.num(name, r.median);
    out.num(name + ".p95", r.p95);
}

/**
 * Time each module's public calls outside the simulation, on inputs
 * drawn from the workload's own generator (node 0, core 0's stream)
 * and prefault footprint, at the configured geometries. A probe op is
 * what the datapath does per access: a lookup, plus the fill on a
 * miss for the caches and the TLB.
 */
void
runProbes(JsonLine& out, const SystemConfig& config)
{
    constexpr std::size_t kOps = 1 << 16;
    constexpr std::size_t kBatch = 2048;
    StreamGen gen(config.profile, kWorkloadVaBase, config.seed, 0);
    const std::vector<std::uint64_t> footprint = gen.footprintPages();
    std::vector<MemOpDesc> ops(kOps);
    for (MemOpDesc& op : ops)
        op = gen.next();

    {
        StreamGen fresh(config.profile, kWorkloadVaBase, config.seed, 0);
        emitProbe(out, "workload.stream_next_ns",
                  probe(kBatch, [&] {
                      std::uint64_t sink = 0;
                      for (std::size_t i = 0; i < kBatch; ++i)
                          sink += fresh.next().vaddr;
                      g_sink = g_sink + sink;
                  }));
    }

    auto cacheProbe = [&](const CacheParams& p) {
        SetAssocCache<std::uint64_t> cache(
            p.sizeBytes / kBlockSize / p.assoc, p.assoc, p.policy, 1);
        std::size_t cursor = 0;
        return probe(kBatch, [&] {
            std::uint64_t sink = 0;
            for (std::size_t i = 0; i < kBatch; ++i) {
                std::uint64_t key = ops[cursor].vaddr / kBlockSize;
                cursor = (cursor + 1) % kOps;
                if (std::uint64_t* v = cache.lookup(key))
                    sink += *v;
                else
                    cache.insert(key, key);
            }
            g_sink = g_sink + sink;
        });
    };
    emitProbe(out, "cache.l1_lookup_ns", cacheProbe(config.l1));
    emitProbe(out, "cache.l3_lookup_ns", cacheProbe(config.l3));

    {
        Simulation sim(config.seed);
        TwoLevelTlb tlb(sim, "probe.tlb", config.tlb);
        std::size_t cursor = 0;
        emitProbe(out, "vm.tlb_lookup_ns", probe(kBatch, [&] {
                      std::uint64_t sink = 0;
                      for (std::size_t i = 0; i < kBatch; ++i) {
                          std::uint64_t page = ops[cursor].vaddr / kPageSize;
                          cursor = (cursor + 1) % kOps;
                          auto r = tlb.lookup(page);
                          if (r.entry)
                              sink += r.entry->valuePage;
                          else
                              tlb.insert(page, TlbEntry{page, Perms{}});
                      }
                      g_sink = g_sink + sink;
                  }));
    }

    std::uint64_t next_table = 0;
    auto alloc = [&next_table] { return (next_table++) * kPageSize; };
    // A sample maps a prefix of the footprint (prefault order) into a
    // fresh table: construction cost per mapped page, table allocation
    // included.
    const std::size_t map_pages =
        std::min<std::size_t>(footprint.size(), 4096);
    emitProbe(out, "vm.pt_map_ns", probe(map_pages, [&] {
                  HierarchicalPageTable table(alloc);
                  for (std::size_t i = 0; i < map_pages; ++i)
                      table.map(footprint[i], i, Perms{});
                  g_sink = g_sink + table.tablePages();
              }));

    {
        HierarchicalPageTable table(alloc);
        for (std::size_t i = 0; i < footprint.size(); ++i)
            table.map(footprint[i], i, Perms{});
        std::size_t cursor = 0;
        emitProbe(out, "vm.pt_lookup_ns", probe(kBatch, [&] {
                      std::uint64_t sink = 0;
                      for (std::size_t i = 0; i < kBatch; ++i) {
                          auto leaf =
                              table.lookup(ops[cursor].vaddr / kPageSize);
                          cursor = (cursor + 1) % kOps;
                          sink += leaf ? leaf->valuePage : 0;
                      }
                      g_sink = g_sink + sink;
                  }));
    }

    {
        // Self-rescheduling chains whose delays are the stream's
        // instruction gaps at the core clock: the queue depth and
        // delay mix of 64 cores issuing this workload.
        EventQueue queue;
        std::uint64_t scheduled = 0;
        std::size_t cursor = 0;
        struct Chain {
            EventQueue* q;
            std::uint64_t* scheduled;
            std::size_t* cursor;
            const std::vector<MemOpDesc>* ops;
            Tick period;
            std::uint64_t budget;
            void
            operator()() const
            {
                if (*scheduled >= budget)
                    return;
                ++*scheduled;
                const MemOpDesc& op = (*ops)[*cursor];
                *cursor = (*cursor + 1) % ops->size();
                q->scheduleAfter((op.gap + 1) * period, *this);
            }
        };
        // Exactly kBatch events per batch: 64 chain heads, then one
        // successor per event until kBatch have been scheduled.
        emitProbe(out, "sim.event_queue_ns", probe(kBatch, [&] {
                      scheduled = 64;
                      Chain chain{&queue,   &scheduled,
                                  &cursor,  &ops,
                                  config.core.period, kBatch};
                      for (int i = 0; i < 64; ++i)
                          queue.scheduleAfter(static_cast<Tick>(i), chain);
                      queue.run();
                  }));
    }
    out.num("probe.samples", static_cast<double>(kProbeSamples));
}

// -------------------------------------------------------------- layers

/**
 * Streaming tally of a Chrome trace: counts events and sums complete
 * span durations per name, line by line as TraceSink::write emits
 * them (one event per line), so the JSON text is never held whole.
 */
class SpanTally : public std::streambuf
{
  public:
    struct Span {
        std::uint64_t count = 0;
        double totalUs = 0.0;
    };

    [[nodiscard]] double
    meanNs(const std::string& name) const
    {
        auto it = spans_.find(name);
        if (it == spans_.end() || it->second.count == 0)
            return 0.0;
        return it->second.totalUs * 1e3 /
               static_cast<double>(it->second.count);
    }

    [[nodiscard]] const Span&
    span(const std::string& name)
    {
        return spans_[name];
    }

    [[nodiscard]] std::uint64_t events() const { return events_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            put(traits_type::to_char_type(ch));
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char* s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    void
    put(char c)
    {
        if (c != '\n') {
            line_.push_back(c);
            return;
        }
        consume();
        line_.clear();
    }

    void
    consume()
    {
        static const std::string kPh = "{\"ph\": \"";
        static const std::string kName = "\"name\": \"";
        static const std::string kDur = "\"dur\": ";
        if (line_.compare(0, kPh.size(), kPh) != 0 ||
            line_.size() <= kPh.size() || line_[kPh.size()] == 'M')
            return;
        ++events_;
        if (line_[kPh.size()] != 'X')
            return;
        std::size_t n = line_.find(kName);
        std::size_t d = line_.find(kDur);
        if (n == std::string::npos || d == std::string::npos)
            return;
        n += kName.size();
        Span& s = spans_[line_.substr(n, line_.find('"', n) - n)];
        ++s.count;
        s.totalUs += std::strtod(line_.c_str() + d + kDur.size(), nullptr);
    }

    std::string line_;
    std::map<std::string, Span> spans_;
    std::uint64_t events_ = 0;
};

double
perKilo(double count, double instructions)
{
    return instructions > 0.0 ? count * 1000.0 / instructions : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Sum of one per-core (or per-node) stat over the whole system. */
double
sumCores(const StatRegistry& stats, const SystemConfig& c,
         const std::string& leaf)
{
    double total = 0.0;
    for (unsigned n = 0; n < c.nodes; ++n) {
        for (unsigned k = 0; k < c.coresPerNode; ++k) {
            std::string name = "node" + std::to_string(n) + ".core" +
                               std::to_string(k) + "." + leaf;
            if (stats.has(name))
                total += stats.get(name);
        }
    }
    return total;
}

double
sumNodes(const StatRegistry& stats, const SystemConfig& c,
         const std::string& leaf)
{
    double total = 0.0;
    for (unsigned n = 0; n < c.nodes; ++n) {
        std::string name = "node" + std::to_string(n) + "." + leaf;
        if (stats.has(name))
            total += stats.get(name);
    }
    return total;
}

/** The simulated per-layer counts of a finished run (post-warmup). */
void
emitSimulatedCounts(JsonLine& out, System& system)
{
    const SystemConfig& c = system.config();
    const StatRegistry& stats = system.sim().stats();
    const double instr = sumCores(stats, c, "instructions");
    auto pki = [&](const std::string& name, double count) {
        out.num(name, perKilo(count, instr));
    };
    pki("cache.l1_misses_pki", sumCores(stats, c, "l1.misses"));
    pki("cache.l2_misses_pki", sumCores(stats, c, "l2.misses"));
    pki("cache.l3_misses_pki", sumNodes(stats, c, "l3.misses"));
    pki("vm.tlb_misses_pki", sumCores(stats, c, "tlb.l2.misses"));
    pki("vm.walk_steps_pki", sumCores(stats, c, "walker.steps"));
    const double acm_lookups = sumNodes(stats, c, "stu.acm_lookups");
    pki("stu.acm_lookups_pki", acm_lookups);
    out.num("stu.acm_hit_rate",
            ratio(sumNodes(stats, c, "stu.acm_hits"), acm_lookups));
    pki("stu.walks_pki", sumNodes(stats, c, "stu.walks"));
    const double tr_lookups = sumNodes(stats, c, "translator.lookups");
    pki("translator.lookups_pki", tr_lookups);
    out.num("translator.hit_rate",
            ratio(sumNodes(stats, c, "translator.hits"), tr_lookups));
    pki("fabric.packets_pki", stats.get("fabric.packets"));
    out.num("fabric.queueing_ns.mean", stats.get("fabric.queueing_ns"));
    pki("fam.requests_pki", stats.get("fam.requests"));
    out.num("fam.at_percent", system.famAtPercent());
    out.num("broker.faults", stats.get("broker.faults"));
    pki("dram.reads_pki", sumNodes(stats, c, "dram.reads"));
}

/**
 * The per-layer pass on the workload's first configuration at its
 * per-layer budget:
 *  1. untraced reference run on the workload's kernel, exported and
 *     digested — the simulated counts come from here;
 *  2. a profiled run on the partitioned kernel (the workload's own
 *     thread count, or kPsimProbeThreads for serial workloads) for the
 *     psim host split;
 *  3. a serial run for the event counts, when (1) was partitioned (its
 *     per-partition queues are internal to the kernel);
 *  4. one traced run (packet + psim spans, Profiler, observability
 *     histograms) for the span means, the queue-wait p99 and the
 *     tracing overhead.
 */
int
modeLayers(const Workload& w, const std::string& export_path)
{
    JsonLine out;
    Scenario scenario = w.points.front();
    scenario.config.core.instructionLimit = w.layerInstructions;
    const SystemConfig& config = scenario.config;
    const double budget = static_cast<double>(totalBudget(config));
    unsigned attempted = 0, failed = 0;
    auto check = [&](System& system) {
        ++attempted;
        if (!retiredBudget(system))
            ++failed;
    };

    runProbes(out, config);

    // 1. Untraced reference.
    double reference_run_s = 0.0;
    std::uint64_t serial_events = 0;
    double serial_run_s = 0.0;
    {
        System system(config);
        std::ostringstream os;
        auto t0 = Clock::now();
        writeScenarioJson(os, scenario, system, w.threads);
        const double run_and_export = since(t0);
        auto t1 = Clock::now();
        std::ostringstream again;
        system.sim().stats().dumpJson(again, 2);
        const double export_s = since(t1);
        reference_run_s = run_and_export - export_s;
        out.num("harness.export_s", export_s);
        writeFile(export_path, os.str());
        out.str("layer_digest", hex(fnv1a(os.str())));
        check(system);
        emitSimulatedCounts(out, system);
        if (w.threads == 0) {
            serial_events = system.sim().serialEvents().executed();
            serial_run_s = reference_run_s;
        }
    }

    // 2. psim host split.
    {
        const unsigned threads = w.threads ? w.threads : kPsimProbeThreads;
        System system(config);
        Profiler prof;
        system.attachProfiler(&prof);
        system.run(threads);
        check(system);
        const double wall = prof.wallSeconds();
        const double windows = static_cast<double>(prof.windows());
        const double lanes = system.traceLanes();
        out.num("psim.windows", windows);
        out.num("psim.widened",
                static_cast<double>(system.parallelWidenedWindows()));
        out.num("psim.us_per_window", ratio(wall * 1e6, windows));
        out.num("psim.coordinator_s", prof.coordinatorSeconds());
        out.num("psim.drain_s", prof.drainSeconds());
        out.num("psim.exec_s", prof.execSeconds());
        out.num("psim.idle_s",
                std::max(0.0, lanes * wall - prof.drainSeconds() -
                                  prof.execSeconds()));
    }

    // 3. Serial event counts.
    if (w.threads != 0) {
        System system(config);
        auto t0 = Clock::now();
        system.run(0);
        serial_run_s = since(t0);
        check(system);
        serial_events = system.sim().serialEvents().executed();
    }
    const double events = static_cast<double>(serial_events);
    out.num("sim.events_per_kinstr", perKilo(events, budget));
    out.num("sim.host_ns_per_event", ratio(serial_run_s * 1e9, events));

    // 4. Traced run.
    {
        SystemConfig traced = config;
        traced.observability = true;
        System system(traced);
        TraceSink sink(system.traceLanes(), TraceSink::kAll);
        Profiler prof;
        system.attachTrace(&sink);
        system.attachProfiler(&prof);
        auto t0 = Clock::now();
        system.run(w.threads);
        const double traced_run_s = since(t0);
        check(system);

        SpanTally tally;
        std::ostream tos(&tally);
        sink.write(tos);
        tos.flush();
        const double core_op = tally.meanNs("core.op");
        const auto& op = tally.span("core.op");
        const auto& tr = tally.span("stu.translate");
        out.num("trace.events", static_cast<double>(tally.events()));
        out.num("trace.budget_instr",
                static_cast<double>(config.core.instructionLimit));
        out.num("op_budget_instr",
                static_cast<double>(
                    w.points.front().config.core.instructionLimit));
        out.num("trace.core_op_ns", core_op);
        out.num("trace.core_op_self_ns",
                ratio((op.totalUs - tr.totalUs) * 1e3,
                      static_cast<double>(op.count)));
        out.num("trace.stu_translate_ns", tally.meanNs("stu.translate"));
        out.num("trace.translator_lookup_ns",
                tally.meanNs("translator.lookup"));
        out.num("trace.fabric_req_ns", tally.meanNs("fabric.req"));
        out.num("trace.media_access_ns", tally.meanNs("media.access"));
        out.num("trace.overhead_s", traced_run_s - reference_run_s);

        // Worst node's STU queue-wait tail (observability histograms).
        double p99 = 0.0;
        StatRegistry& stats = system.sim().stats();
        for (unsigned n = 0; n < traced.nodes; ++n) {
            std::string name =
                "node" + std::to_string(n) + ".stu.obs_queue_wait_ns";
            if (stats.has(name)) {
                p99 = std::max(p99,
                               static_cast<double>(
                                   stats.histogramWithPercentiles(name, "")
                                       .p99()));
            }
        }
        out.num("stu.obs_queue_wait_ns.p99", p99);
    }

    out.num("attempted", attempted);
    out.num("failed", failed);
    out.print();
    return 0;
}

// ------------------------------------------------------------ describe

int
modeDescribe()
{
    JsonLine out;
#if defined(__clang__)
    out.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    out.str("compiler", std::string("gcc ") + __VERSION__);
#else
    out.str("compiler", "unknown");
#endif
    out.str("build_type", FAMSIM_BENCH_BUILD_TYPE);
    out.str("famsim_lto", FAMSIM_BENCH_LTO);
    out.str("famsim_check", FAMSIM_BENCH_CHECK);
    out.str("famsim_sanitize", FAMSIM_BENCH_SANITIZE);
    out.num("nproc", std::thread::hardware_concurrency());
    out.print();
    return 0;
}

int
usage()
{
    std::cerr << "usage: famsim_bench describe\n"
                 "       famsim_bench op <workload> <seed> <export-file>\n"
                 "       famsim_bench construct <workload> <seed> "
                 "<default|noprefault|noscatter>\n"
                 "       famsim_bench layers <workload> <seed> "
                 "<export-file>\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "describe")
        return modeDescribe();
    if (args.size() != 4)
        return usage();
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(args[2].c_str(), &end, 10);
    if (end == args[2].c_str() || *end != '\0')
        return usage();
    ScopedQuietLogs quiet;
    const Workload w = makeWorkload(args[1], seed);
    try {
        if (args[0] == "op")
            return modeOp(w, args[3]);
        if (args[0] == "construct")
            return modeConstruct(w, args[3]);
        if (args[0] == "layers")
            return modeLayers(w, args[3]);
    } catch (const std::exception& e) {
        std::cerr << "famsim_bench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
