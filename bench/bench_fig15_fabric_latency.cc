/**
 * @file
 * Fig. 15: DeACT-N speedup over I-FAM as the fabric latency varies
 * from 100 ns to 6 us. The paper finds the speedup grows with fabric
 * latency (1.79x at 100 ns, up to 3.3x at 6 us for pf) because every
 * avoided FAM page-table walk saves full fabric round trips.
 */

#include <iostream>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/runner.hh"

using namespace famsim;

int
main(int argc, char** argv)
{
    BenchOptions options = parseBenchArgs(argc, argv, 150000);
    ScopedQuietLogs quiet;
    const ProfileGroups groups = sensitivityGroups();

    // Deliberately denser than the fig15_fabric_latency sweep (which
    // pins {100ns, 500ns, 1us, 3us, 6us} for regression): the bench
    // reproduces the paper's full grid including 250/750 ns.
    const std::pair<const char*, Tick> points[] = {
        {"100ns", 100 * kNanosecond}, {"250ns", 250 * kNanosecond},
        {"500ns", 500 * kNanosecond}, {"750ns", 750 * kNanosecond},
        {"1us", 1 * kMicrosecond},    {"3us", 3 * kMicrosecond},
        {"6us", 6 * kMicrosecond},
    };

    // Variant 2l is I-FAM at latency point l and 2l + 1 is DeACT-N.
    std::vector<SystemConfig> configs;
    for (const auto& [label, latency] : points) {
        for (ArchKind arch : {ArchKind::IFam, ArchKind::DeactN}) {
            for (const auto& [name, group] : groups) {
                for (const auto& profile : group) {
                    SystemConfig config =
                        makeConfig(profile, arch, options.instructions);
                    // Keep the node-STU hop fixed, sweep the long haul.
                    config.fabric.latency = longHaulFabricLatency(
                        latency, config.stu.nodeLinkLatency);
                    configs.push_back(std::move(config));
                }
            }
        }
    }
    std::cerr << "fig15: " << configs.size() << " runs across "
              << options.sweepJobs << " sweep jobs...\n";
    SweepExecutor executor(options.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, 0);

    std::vector<std::string> group_names;
    for (const auto& [name, group] : groups)
        group_names.push_back(name);
    FigureReport report(
        "fig15_fabric_latency",
        "Fig. 15: DeACT-N speedup wrt I-FAM vs fabric latency",
        "latency", group_names);
    for (std::size_t l = 0; l < std::size(points); ++l)
        report.addRow(points[l].first,
                      groupSpeedups(groups, results, 2 * l, 2 * l + 1));
    report.addNote("paper: speedup rises with latency; 1.79x at 100 ns "
                   "-> 3.3x at 6 us for pf");
    return emitReport(report, options);
}
