/**
 * @file
 * Fig. 12: performance of all four architectures normalized to E-FAM
 * — the paper's headline result. DeACT achieves up to 4.59x speedup
 * over I-FAM (1.8x on average); DeACT does not help (or slightly
 * hurts) the AT-insensitive benchmarks bc, lu, mg and sp.
 */

#include <iostream>

#include "harness/figure_report.hh"
#include "harness/runner.hh"

using namespace famsim;

int
main(int argc, char** argv)
{
    BenchOptions options = parseBenchArgs(argc, argv, 300000);
    ScopedQuietLogs quiet;

    FigureReport report("fig12_performance",
                        "Fig. 12: performance normalized to E-FAM",
                        "bench",
                        {"E-FAM", "I-FAM", "DeACT-W", "DeACT-N"});
    std::vector<double> ifam_rel, deactn_rel, deactn_over_ifam;
    double best_speedup = 0.0;
    std::string best_bench;

    for (const auto& profile : profiles::all()) {
        std::cerr << "fig12: " << profile.name << "...\n";
        double efam = 0.0;
        std::vector<double> row;
        for (ArchKind arch : {ArchKind::EFam, ArchKind::IFam,
                              ArchKind::DeactW, ArchKind::DeactN}) {
            RunResult r = runOne(
                makeConfig(profile, arch, options.instructions));
            if (arch == ArchKind::EFam)
                efam = r.ipc;
            row.push_back(efam > 0 ? r.ipc / efam : 0.0);
        }
        report.addRow(profile.name, row);
        ifam_rel.push_back(row[1]);
        deactn_rel.push_back(row[3]);
        if (row[1] > 0) {
            double speedup = row[3] / row[1];
            deactn_over_ifam.push_back(speedup);
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best_bench = profile.name;
            }
        }
    }
    report.addSummary("ifam_vs_efam_geomean", geomean(ifam_rel));
    report.addSummary("deactn_vs_efam_geomean", geomean(deactn_rel));
    report.addSummary("deactn_over_ifam_geomean",
                      geomean(deactn_over_ifam));
    report.addSummary("best_speedup_over_ifam", best_speedup);
    report.addMeta("best_speedup_bench", best_bench);
    report.addNote("paper: I-FAM 0.303 of E-FAM, DeACT-N 0.647; avg "
                   "speedup 1.8x, best 4.59x on cactus");
    return emitReport(report, options);
}
