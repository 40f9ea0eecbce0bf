/**
 * @file
 * Fig. 12: performance of all four architectures normalized to E-FAM
 * — the paper's headline result. DeACT achieves up to 4.59x speedup
 * over I-FAM (1.8x on average); DeACT does not help (or slightly
 * hurts) the AT-insensitive benchmarks bc, lu, mg and sp.
 *
 * Figs. 3, 4 and 9-11 are other views of the same 14-benchmark x
 * 4-architecture matrix, so this bench runs the matrix once and emits
 * them as companion reports (with --json --out, sibling
 * "<figure-id>.json" files):
 *  - Fig. 3: slowdown of I-FAM wrt (insecure) E-FAM, up to 20.6x
 *    (sssp) with most benchmarks between 1.2x and 4x;
 *  - Fig. 4: % AT requests at the FAM for E-FAM and I-FAM, e.g. canl
 *    44.36 % -> 84.13 % and cactus 1.81 % -> 53.69 %;
 *  - Fig. 9: ACM hit rate at the STU, ~90 % for DeACT-W on most
 *    benchmarks (< 60 % for canl/sssp/cactus), DeACT-N raising most
 *    to ~99 % (cactus from < 55 % to ~76 %);
 *  - Fig. 10: FAM translation hit rate in I-FAM (STU cache) and DeACT
 *    (in-DRAM translation cache), > 90 % for DeACT everywhere (canl:
 *    46.44 % -> 95.88 %);
 *  - Fig. 11: % AT requests at the FAM for I-FAM, DeACT-W and
 *    DeACT-N, on average 23.97 % -> 11.82 % -> 1.77 %.
 */

#include <iostream>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/runner.hh"

using namespace famsim;

int
main(int argc, char** argv)
{
    BenchOptions options = parseBenchArgs(argc, argv, 300000);
    ScopedQuietLogs quiet;
    const std::vector<StreamProfile> benches = profiles::all();

    // One run per (benchmark, architecture), architecture-minor.
    std::vector<SystemConfig> configs;
    for (const auto& profile : benches) {
        for (ArchKind arch : {ArchKind::EFam, ArchKind::IFam,
                              ArchKind::DeactW, ArchKind::DeactN})
            configs.push_back(
                makeConfig(profile, arch, options.instructions));
    }
    std::cerr << "fig12: " << configs.size() << " runs across "
              << options.sweepJobs << " sweep jobs...\n";
    SweepExecutor executor(options.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, 0);

    FigureReport fig12("fig12_performance",
                       "Fig. 12: performance normalized to E-FAM",
                       "bench",
                       {"E-FAM", "I-FAM", "DeACT-W", "DeACT-N"});
    FigureReport fig03("fig03_motivation",
                       "Fig. 3: slowdown of I-FAM wrt E-FAM", "bench",
                       {"E-FAM", "I-FAM", "slowdown"});
    FigureReport fig04(
        "fig04_at_breakdown",
        "Fig. 4: % AT requests at FAM (rest is non-AT data)", "bench",
        {"E-FAM AT%", "I-FAM AT%"});
    FigureReport fig09("fig09_acm_hit_rate", "Fig. 9: ACM hit rate (%)",
                       "bench", {"I-FAM", "DeACT-W", "DeACT-N"});
    FigureReport fig10("fig10_at_hit_rate",
                       "Fig. 10: FAM address-translation hit rate (%)",
                       "bench", {"I-FAM", "DeACT"});
    FigureReport fig11("fig11_at_requests",
                       "Fig. 11: % AT requests at FAM", "bench",
                       {"I-FAM", "DeACT-W", "DeACT-N"});

    std::vector<double> ifam_rel, deactn_rel, deactn_over_ifam;
    double best_speedup = 0.0;
    std::string best_bench;
    std::vector<double> slowdowns;
    std::vector<double> at_percent[3];
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const std::string& bench = benches[b].name;
        const RunResult& efam = results[4 * b];
        const RunResult& ifam = results[4 * b + 1];
        const RunResult& deactw = results[4 * b + 2];
        const RunResult& deactn = results[4 * b + 3];

        std::vector<double> row;
        for (const RunResult* r : {&efam, &ifam, &deactw, &deactn})
            row.push_back(efam.ipc > 0 ? r->ipc / efam.ipc : 0.0);
        fig12.addRow(bench, row);
        ifam_rel.push_back(row[1]);
        deactn_rel.push_back(row[3]);
        if (row[1] > 0) {
            double speedup = row[3] / row[1];
            deactn_over_ifam.push_back(speedup);
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best_bench = bench;
            }
        }

        double slowdown = ifam.ipc > 0 ? efam.ipc / ifam.ipc : 0.0;
        slowdowns.push_back(slowdown);
        fig03.addRow(bench, {efam.ipc, ifam.ipc, slowdown});
        fig04.addRow(bench, {efam.famAtPercent, ifam.famAtPercent});
        fig09.addRow(bench, {100.0 * ifam.acmHitRate,
                             100.0 * deactw.acmHitRate,
                             100.0 * deactn.acmHitRate});
        fig10.addRow(bench, {100.0 * ifam.translationHitRate,
                             100.0 * deactn.translationHitRate});
        fig11.addRow(bench, {ifam.famAtPercent, deactw.famAtPercent,
                             deactn.famAtPercent});
        at_percent[0].push_back(ifam.famAtPercent);
        at_percent[1].push_back(deactw.famAtPercent);
        at_percent[2].push_back(deactn.famAtPercent);
    }

    fig12.addSummary("ifam_vs_efam_geomean", geomean(ifam_rel));
    fig12.addSummary("deactn_vs_efam_geomean", geomean(deactn_rel));
    fig12.addSummary("deactn_over_ifam_geomean",
                     geomean(deactn_over_ifam));
    fig12.addSummary("best_speedup_over_ifam", best_speedup);
    fig12.addMeta("best_speedup_bench", best_bench);
    fig12.addNote("paper: I-FAM 0.303 of E-FAM, DeACT-N 0.647; avg "
                  "speedup 1.8x, best 4.59x on cactus");
    fig03.addSummary("geomean_slowdown", geomean(slowdowns));
    fig03.addNote("paper: most 1.2x-4x, outliers up to 20.6x");
    fig04.addNote("paper: E-FAM 1.8-44 %; I-FAM up to 84 %; AT share "
                  "rises sharply with indirection");
    fig09.addNote("paper shape: DeACT-N > DeACT-W ~ I-FAM; "
                  "AT-sensitive benchmarks sit lowest");
    fig10.addNote("paper: DeACT > 90 % everywhere; I-FAM down to "
                  "46.44 % for canl");
    fig11.addSummary("ifam_avg_at_percent", geomean(at_percent[0]));
    fig11.addSummary("deactw_avg_at_percent", geomean(at_percent[1]));
    fig11.addSummary("deactn_avg_at_percent", geomean(at_percent[2]));
    fig11.addNote("paper averages: 23.97 / 11.82 / 1.77 %");
    return emitReports({&fig12, &fig03, &fig04, &fig09, &fig10, &fig11},
                       options);
}
