#include "harness/runner.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "sim/logging.hh"

namespace famsim {

namespace {

/**
 * Environment default @p name: a parseUnsigned() value >= @p min,
 * clamped to @p max with a warning. Unset gives @p fallback; any other
 * value warns and gives @p fallback.
 */
std::uint64_t
envUnsigned(const char* name, std::uint64_t min, std::uint64_t max,
            std::uint64_t fallback)
{
    const char* env = std::getenv(name);
    if (!env)
        return fallback;
    const std::optional<std::uint64_t> value = parseUnsigned(env);
    if (!value || *value < min) {
        warn("ignoring malformed ", name, "='", env, "'");
        return fallback;
    }
    if (*value > max) {
        warn("clamping ", name, "=", *value, " to ", max);
        return max;
    }
    return *value;
}

} // namespace

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    // from_chars takes no sign, whitespace or base prefix for an
    // unsigned type, and reports overflow instead of wrapping.
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

std::uint64_t
instrBudget(std::uint64_t fallback)
{
    return envUnsigned("FAMSIM_INSTR", 1,
                       std::numeric_limits<std::uint64_t>::max(),
                       fallback);
}

SystemConfig
makeConfig(const StreamProfile& profile, ArchKind arch,
           std::uint64_t instr_limit)
{
    SystemConfig config;
    config.arch = arch;
    config.profile = profile;
    config.core.instructionLimit =
        instr_limit != 0 ? instr_limit : instrBudget(300000);
    // The paper measures 100M-instruction steady-state windows; with
    // our scaled-down runs a generous warmup is needed before the
    // large in-DRAM translation cache reaches steady state.
    config.warmupFraction = 0.3;
    return config;
}

RunResult
summarize(System& system)
{
    RunResult result;
    result.benchmark = system.config().profile.name;
    result.arch = system.config().arch;
    result.ipc = system.ipc();
    result.famAtPercent = system.famAtPercent();
    result.translationHitRate = system.translationHitRate();
    result.acmHitRate = system.acmHitRate();
    result.mpki = system.mpki();
    result.famRequests = system.media().totalRequests();
    result.famAtRequests = system.media().atRequests();
    return result;
}

RunResult
runOne(const SystemConfig& config, unsigned threads)
{
    System system(config);
    system.run(threads);
    return summarize(system);
}

unsigned
threadsFromEnv(unsigned fallback)
{
    // Absurd widths clamp rather than fall back to serial: the kernel
    // caps workers at the partition count anyway.
    return static_cast<unsigned>(
        envUnsigned("FAMSIM_THREADS", 0, 1024, fallback));
}

unsigned
sweepJobsFromEnv(unsigned fallback)
{
    return static_cast<unsigned>(
        envUnsigned("FAMSIM_SWEEP_JOBS", 1, 1024, fallback));
}

double
geomean(const std::vector<double>& values)
{
    double log_sum = 0.0;
    std::size_t count = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++count;
        }
    }
    return count == 0 ? 0.0
                      : std::exp(log_sum / static_cast<double>(count));
}

Tick
longHaulFabricLatency(Tick total, Tick node_link)
{
    return total > node_link ? total - node_link : total / 2;
}

std::map<std::string, std::vector<StreamProfile>>
sensitivityGroups()
{
    // Fig. 13-15 report geometric means of the SPEC, PARSEC and GAP
    // suites plus pf and dc individually (§V-D).
    std::map<std::string, std::vector<StreamProfile>> groups;
    for (const auto& p : profiles::all()) {
        if (p.suite == "SPEC" || p.suite == "PARSEC" || p.suite == "GAP")
            groups[p.suite].push_back(p);
        else if (p.name == "pf" || p.name == "dc")
            groups[p.name].push_back(p);
    }
    return groups;
}

} // namespace famsim
