/**
 * @file
 * Table III: the evaluated applications and their MPKI. Runs each
 * workload profile on the E-FAM baseline and reports measured LLC
 * MPKI against the paper's values — the calibration check for the
 * synthetic workload substitution (DESIGN.md §1).
 */

#include <iostream>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/runner.hh"

using namespace famsim;

int
main(int argc, char** argv)
{
    BenchOptions options = parseBenchArgs(argc, argv, 200000);
    ScopedQuietLogs quiet;
    const std::vector<StreamProfile> benches = profiles::all();

    std::vector<SystemConfig> configs;
    for (const auto& profile : benches)
        configs.push_back(
            makeConfig(profile, ArchKind::EFam, options.instructions));
    std::cerr << "table3: " << configs.size() << " runs across "
              << options.sweepJobs << " sweep jobs...\n";
    SweepExecutor executor(options.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, 0);

    FigureReport report("table3_applications",
                        "Table III: applications and MPKI", "bench",
                        {"paper MPKI", "measured", "AT-sensitive"});
    for (std::size_t b = 0; b < benches.size(); ++b) {
        report.addRow(benches[b].name,
                      {benches[b].paperMpki, results[b].mpki,
                       benches[b].atSensitive ? 1.0 : 0.0});
    }
    report.addNote("suite mapping: mcf/cactus/astar SPEC2006; "
                   "frqm/canl PARSEC; bc/cc/ccsv/sssp GAP; pf Mantevo; "
                   "dc/lu/mg/sp NAS");
    return emitReport(report, options);
}
