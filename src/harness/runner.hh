/**
 * @file
 * Experiment harness: runs (benchmark x architecture x parameter)
 * matrices and formats the paper-style tables/series.
 */

#ifndef FAMSIM_HARNESS_RUNNER_HH
#define FAMSIM_HARNESS_RUNNER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "arch/system.hh"

namespace famsim {

/** Metrics extracted from one run. */
struct RunResult {
    std::string benchmark;
    ArchKind arch = ArchKind::EFam;
    double ipc = 0.0;
    double famAtPercent = 0.0;
    double translationHitRate = 0.0;
    double acmHitRate = 0.0;
    double mpki = 0.0;
    std::uint64_t famRequests = 0;
    std::uint64_t famAtRequests = 0;
};

/**
 * Default configuration for the paper's Table II system with the given
 * benchmark and architecture. The instruction limit honours the
 * FAMSIM_INSTR environment variable so benches can be scaled.
 */
[[nodiscard]] SystemConfig
makeConfig(const StreamProfile& profile, ArchKind arch,
           std::uint64_t instr_limit = 0);

/**
 * The one grammar for unsigned values from outside the program —
 * famsim_cli and bench flags and the FAMSIM_* environment defaults:
 * one or more ASCII digits and nothing else (no sign, no whitespace),
 * at most 2^64 - 1. @return nullopt for anything else.
 */
[[nodiscard]] std::optional<std::uint64_t>
parseUnsigned(std::string_view text);

/**
 * Per-run instruction budget: FAMSIM_INSTR if set to a positive
 * integer, else @p fallback (a malformed value warns).
 */
[[nodiscard]] std::uint64_t instrBudget(std::uint64_t fallback);

/** Extract the headline metrics from a finished System run. */
[[nodiscard]] RunResult summarize(System& system);

/**
 * Build, run and summarize one configuration. @p threads selects the
 * execution kernel: 0 = serial reference, >= 1 = parallel
 * conservative-window kernel with that many worker threads (see
 * System::run).
 */
[[nodiscard]] RunResult runOne(const SystemConfig& config,
                               unsigned threads = 0);

/**
 * Worker-thread count requested via the FAMSIM_THREADS environment
 * variable (famsim_cli --threads overrides it); @p fallback when unset
 * or malformed (which warns), clamped to 1024. 0 means the serial
 * reference kernel.
 */
[[nodiscard]] unsigned threadsFromEnv(unsigned fallback = 0);

/**
 * Sweep-point worker count requested via the FAMSIM_SWEEP_JOBS
 * environment variable (famsim_cli --sweep-jobs overrides it);
 * @p fallback when unset, zero or malformed (which warns), clamped to
 * 1024. Read only by the CLI, benches and tests — the library itself
 * never consults the environment, mirroring FAMSIM_THREADS.
 */
[[nodiscard]] unsigned sweepJobsFromEnv(unsigned fallback = 1);

/** Geometric mean (ignores non-positive values defensively). */
[[nodiscard]] double geomean(const std::vector<double>& values);

/**
 * Split a total fabric figure into the fixed node-STU hop plus the
 * swept long haul (Fig. 15 / fig15_fabric_latency share this so the
 * bench curve and the golden-pinned sweep can never drift apart):
 * Table II's 500 ns is node-link + fabric, so sweeping "fabric
 * latency = X" means a long haul of X minus the node hop (halving X
 * when it is smaller than the hop itself).
 */
[[nodiscard]] Tick longHaulFabricLatency(Tick total, Tick node_link);

/**
 * Thin shared-channel occupancy per packet used by the Fig. 16
 * contention study (§V-D4) — shared by bench_fig16 and the
 * fig16_num_nodes sweep.
 */
inline constexpr Tick kContendedFabricSerialization = 6 * kNanosecond;

/** Profiles grouped per the sensitivity figures (suites + pf + dc). */
[[nodiscard]] std::map<std::string, std::vector<StreamProfile>>
sensitivityGroups();

} // namespace famsim

#endif // FAMSIM_HARNESS_RUNNER_HH
