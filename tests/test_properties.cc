/**
 * @file
 * Property tests: system-wide conservation laws and invariants that
 * must hold for every benchmark profile and architecture (run on
 * scaled-down configurations for speed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "fam/broker.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"

namespace famsim {
namespace {

SystemConfig
scaled(const StreamProfile& base, ArchKind arch)
{
    StreamProfile profile = base;
    profile.footprintBytes = 8 << 20;
    profile.hot1Pages = std::min<std::uint64_t>(profile.hot1Pages, 256);
    profile.hot2Pages = std::min<std::uint64_t>(profile.hot2Pages, 512);
    SystemConfig config = makeConfig(profile, arch, 25000);
    config.coresPerNode = 2;
    // Exact conservation checks need an unbroken window: the warmup
    // stats reset would otherwise split in-flight requests across the
    // boundary.
    config.warmupFraction = 0.0;
    return config;
}

class ProfileInvariants
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProfileInvariants, HoldOnDeactN)
{
    ScopedQuietLogs quiet;
    System system(scaled(profiles::byName(GetParam()),
                         ArchKind::DeactN));
    system.run();
    const auto& stats = system.sim().stats();

    // 1. Nothing is denied in legitimate operation.
    EXPECT_DOUBLE_EQ(stats.get("node0.stu.denials"), 0.0);

    // 2. Conservation: every request the STU forwarded shows up at the
    //    FAM as either data or node page-table traffic.
    double forwarded = stats.get("node0.stu.forwarded");
    double at_fam = stats.get("fam.data_requests") +
                    stats.get("fam.node_ptw_requests");
    EXPECT_DOUBLE_EQ(forwarded, at_fam);

    // 3. Hit counters never exceed lookups.
    EXPECT_LE(stats.get("node0.stu.acm_hits"),
              stats.get("node0.stu.acm_lookups"));
    EXPECT_LE(stats.get("node0.translator.hits"),
              stats.get("node0.translator.lookups"));

    // 4. IPC bounded by total issue width.
    EXPECT_GT(system.ipc(), 0.0);
    EXPECT_LE(system.ipc(), 2.0 * 2.0 + 1e-9);

    // 5. Every ACM fetch targets the metadata region (accounted at the
    //    FAM as AT), never usable space.
    EXPECT_DOUBLE_EQ(stats.get("node0.stu.acm_fetches"),
                     stats.get("fam.acm_requests"));
}

TEST_P(ProfileInvariants, HoldOnIFam)
{
    ScopedQuietLogs quiet;
    System system(scaled(profiles::byName(GetParam()), ArchKind::IFam));
    system.run();
    const auto& stats = system.sim().stats();

    EXPECT_DOUBLE_EQ(stats.get("node0.stu.denials"), 0.0);
    double forwarded = stats.get("node0.stu.forwarded");
    double at_fam = stats.get("fam.data_requests") +
                    stats.get("fam.node_ptw_requests");
    EXPECT_DOUBLE_EQ(forwarded, at_fam);

    // In I-FAM the translation and ACM caches are one structure:
    // their hit statistics must agree exactly (Fig. 8a).
    EXPECT_DOUBLE_EQ(stats.get("node0.stu.translation_hits"),
                     stats.get("node0.stu.acm_hits"));

    // Every verification happened before forwarding.
    EXPECT_GE(stats.get("node0.stu.verifications"), forwarded);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ProfileInvariants,
    ::testing::Values("mcf", "cactus", "astar", "frqm", "canl", "bc",
                      "cc", "ccsv", "sssp", "pf", "dc", "lu", "mg",
                      "sp"),
    [](const auto& suite) { return suite.param; });

TEST(StatLookup, GetResolvesHistogramsAndRejectsJobTables)
{
    // get() must cover every single-valued stat kind a real system
    // registers — histograms resolve to their mean — and panic on
    // per-job tables instead of returning a misleading value.
    ScopedQuietLogs quiet;
    SystemConfig config = scaled(profiles::byName("mcf"),
                                 ArchKind::DeactN);
    config.tenancy.jobs = 2;
    System system(config);
    system.run();
    const auto& stats = system.sim().stats();

    ASSERT_TRUE(stats.has("node0.dram.latency_ns"));
    EXPECT_GT(stats.get("node0.dram.latency_ns"), 0.0);

    ASSERT_TRUE(stats.has("node0.stu.job_acm_lookups"));
    ScopedThrowOnError throw_on_error;
    EXPECT_THROW((void)stats.get("node0.stu.job_acm_lookups"), SimError);
}

// ----------------------------------------------------------- geomean

TEST(Geomean, MatchesClosedFormAndSkipsNonPositives)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    // Non-positive values must be skipped, not poison the mean (a
    // failed run reporting 0 IPC would otherwise zero a whole suite).
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0, 0.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0, -3.0}), 4.0);
    // No positive values at all degrades to 0, never NaN/inf.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
}

TEST(Geomean, OrderAndScaleInvariance)
{
    const std::vector<double> values{0.25, 1.0, 3.5, 7.0, 0.0, 42.0};
    std::vector<double> shuffled{42.0, 0.0, 7.0, 0.25, 3.5, 1.0};
    EXPECT_DOUBLE_EQ(geomean(values), geomean(shuffled));

    std::vector<double> scaled;
    for (double v : values)
        scaled.push_back(v * 10.0);
    // geomean(k*x) == k * geomean(x) over the positive entries.
    EXPECT_NEAR(geomean(scaled), 10.0 * geomean(values), 1e-9);

    // Bounded by min/max of the positive entries.
    EXPECT_GE(geomean(values), 0.25);
    EXPECT_LE(geomean(values), 42.0);
}

// ------------------------------------------------ environment defaults

/** Sets (null: unsets) one environment variable for its lifetime. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name))
            old_ = old;
        set(value);
    }
    ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    void
    set(const char* value)
    {
        if (value)
            ::setenv(name_, value, 1);
        else
            ::unsetenv(name_);
    }

    const char* name_;
    std::optional<std::string> old_;
};

TEST(EnvDefaults, AcceptOnlyWhatTheFlagsAccept)
{
    // The FAMSIM_* defaults take famsim_cli's flag grammar (digits
    // only); anything else warns and falls back. Threads 0 is the
    // serial kernel; instructions and sweep jobs must be positive.
    // Widths above 1024 clamp.
    struct Reader {
        const char* var;
        std::uint64_t (*read)(unsigned fallback);
    };
    const Reader readers[] = {
        {"FAMSIM_INSTR",
         [](unsigned fb) -> std::uint64_t { return instrBudget(fb); }},
        {"FAMSIM_THREADS",
         [](unsigned fb) -> std::uint64_t { return threadsFromEnv(fb); }},
        {"FAMSIM_SWEEP_JOBS",
         [](unsigned fb) -> std::uint64_t { return sweepJobsFromEnv(fb); }},
    };
    constexpr std::uint64_t kFb = 3;
    struct Case {
        const char* value; // null = unset
        std::uint64_t want[3]; // instr, threads, sweep jobs
    };
    const Case cases[] = {
        {nullptr, {kFb, kFb, kFb}},
        {"7", {7, 7, 7}},
        {"0", {kFb, 0, kFb}},
        {"2000", {2000, 1024, 1024}},
        {"-1", {kFb, kFb, kFb}},
        {"+5", {kFb, kFb, kFb}},
        {" 7", {kFb, kFb, kFb}},
        {"7 ", {kFb, kFb, kFb}},
        {"", {kFb, kFb, kFb}},
        {"4x", {kFb, kFb, kFb}},
        {"0x10", {kFb, kFb, kFb}},
        {"18446744073709551615", {~std::uint64_t{0}, 1024, 1024}},
        {"18446744073709551616", {kFb, kFb, kFb}}, // 2^64
    };
    ScopedQuietLogs quiet;
    for (const Case& c : cases) {
        for (std::size_t r = 0; r < 3; ++r) {
            ScopedEnv env(readers[r].var, c.value);
            EXPECT_EQ(readers[r].read(kFb), c.want[r])
                << readers[r].var << "="
                << (c.value ? "'" + std::string(c.value) + "'" : "unset");
        }
    }
}

// ----------------------------------------------- broker page scatter

TEST(BrokerScatter, AllocationIsBijectiveOverThePool)
{
    // A small pool the test can exhaust: every allocatable page must
    // be handed out exactly once (the multiplicative scatter is a
    // permutation), and exhaustion must be a loud simulator error,
    // not a wrap-around double-allocation.
    Simulation sim;
    // Smallest legal pool (1 GB) with most of it held back as shared
    // reserve, leaving ~32k allocatable pages to exhaust quickly.
    FamLayout layout(1ull << 30, 16, 896ull << 20);
    AcmStore acm(16);
    MemoryBroker broker(sim, "broker", BrokerParams{}, layout, acm,
                        nullptr);
    broker.registerNode(0);

    const std::uint64_t allocatable =
        layout.usablePages() - layout.sharedReservePages();
    // registerNode consumed pages for the node's FAM page table roots.
    const std::uint64_t already = broker.pagesAllocated();
    ASSERT_LT(already, allocatable);

    std::vector<bool> seen(allocatable, false);
    for (std::uint64_t i = already; i < allocatable; ++i) {
        std::uint64_t page = broker.allocPage(0, Perms{});
        ASSERT_LT(page, allocatable) << "page outside the pool";
        ASSERT_FALSE(seen[page]) << "page " << page << " handed out twice";
        seen[page] = true;
    }
    // Exactly the table pages remain unseen.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(seen.begin(), seen.end(), false)),
              already);

    ScopedThrowOnError throw_on_error;
    EXPECT_THROW(broker.allocPage(0, Perms{}), SimError);
}

TEST(BrokerScatter, ContiguousModeAllocatesInOrder)
{
    // The DeACT-W ablation (scatterAllocation = false) hands out the
    // pool front-to-back.
    Simulation sim;
    FamLayout layout(1ull << 30, 16, 896ull << 20);
    AcmStore acm(16);
    BrokerParams params;
    params.scatterAllocation = false;
    MemoryBroker broker(sim, "broker", params, layout, acm, nullptr);
    broker.registerNode(0);
    const std::uint64_t base = broker.pagesAllocated();
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(broker.allocPage(0, Perms{}), base + i);
}

TEST(CrossArch, FamTrafficOrderingHolds)
{
    ScopedQuietLogs quiet;
    // AT share at the FAM: I-FAM >= DeACT-W >= DeACT-N is the paper's
    // Fig. 11 ordering; check it on a sensitive profile.
    double at[3];
    int i = 0;
    for (ArchKind arch :
         {ArchKind::IFam, ArchKind::DeactW, ArchKind::DeactN}) {
        SystemConfig config =
            makeConfig(profiles::byName("ccsv"), arch, 60000);
        config.coresPerNode = 2;
        System system(config);
        system.run();
        at[i++] = system.famAtPercent();
    }
    EXPECT_GE(at[0], at[1] - 2.0); // small tolerance
    EXPECT_GE(at[1], at[2] - 2.0);
}

TEST(CrossArch, EFamHasNoStuAtAll)
{
    ScopedQuietLogs quiet;
    System system(scaled(profiles::byName("mcf"), ArchKind::EFam));
    system.run();
    EXPECT_FALSE(system.sim().stats().has("node0.stu.denials"));
    EXPECT_EQ(system.node(0).stu, nullptr);
    EXPECT_EQ(system.node(0).translator, nullptr);
}

TEST(CrossArch, DeactUsesTranslatorNotStuForTranslation)
{
    ScopedQuietLogs quiet;
    System system(scaled(profiles::byName("mcf"), ArchKind::DeactN));
    system.run();
    const auto& stats = system.sim().stats();
    // The STU performs no I-FAM-style translation lookups in DeACT.
    EXPECT_DOUBLE_EQ(stats.get("node0.stu.translation_lookups"), 0.0);
    EXPECT_GT(stats.get("node0.translator.lookups"), 0.0);
}

TEST(CrossArch, WarmupResetPreservesInvariants)
{
    ScopedQuietLogs quiet;
    SystemConfig config = scaled(profiles::byName("dc"),
                                 ArchKind::DeactW);
    config.warmupFraction = 0.5;
    System system(config);
    system.run();
    const auto& stats = system.sim().stats();
    double forwarded = stats.get("node0.stu.forwarded");
    double at_fam = stats.get("fam.data_requests") +
                    stats.get("fam.node_ptw_requests");
    // The reset happens atomically between events, so conservation
    // holds within the measurement window too (small slack for
    // requests in flight across the reset boundary).
    EXPECT_NEAR(forwarded, at_fam, 70.0);
}

} // namespace
} // namespace famsim
