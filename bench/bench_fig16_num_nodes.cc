/**
 * @file
 * Fig. 16: DeACT-N speedup over I-FAM as nodes share the fabric and
 * the FAM pools (pf and dc; 1-8 from the paper, 16-64 the scaling
 * extension). The paper reports the speedup growing with node count
 * (dc: 2.92x at 1 node, 3.26x at 8) because DeACT keeps page-table
 * traffic off the contended fabric.
 */

#include <iostream>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"

using namespace famsim;

int
main(int argc, char** argv)
{
    BenchOptions options = parseBenchArgs(argc, argv, 100000);
    ScopedQuietLogs quiet;

    FigureReport report("fig16_num_nodes",
                        "Fig. 16: DeACT-N speedup wrt I-FAM vs #nodes",
                        "nodes", {"pf", "dc"});
    // The axis comes from the sweep registry so the bench curve and
    // the golden-pinned fig16_num_nodes sweep cover the same counts.
    const Sweep& axis_source =
        SweepRegistry::paper().byName("fig16_num_nodes");

    // Every ipc run of the figure — (I-FAM, DeACT-N) pairs for pf and
    // dc per node count — fans out through the executor under
    // --sweep-jobs.
    std::vector<SystemConfig> configs;
    for (const auto& point : axis_source.axis.points) {
        auto nodes = static_cast<unsigned>(point.value);
        for (const char* bench : {"pf", "dc"}) {
            SystemConfig ifam =
                makeConfig(profiles::byName(bench), ArchKind::IFam,
                           options.instructions);
            ifam.nodes = nodes;
            // The multi-node fabric arbitrates per packet; a thinner
            // shared channel exposes the contention that I-FAM's
            // translation traffic creates (§V-D4).
            ifam.fabric.serialization = kContendedFabricSerialization;
            SystemConfig deact =
                makeConfig(profiles::byName(bench), ArchKind::DeactN,
                           options.instructions);
            deact.nodes = nodes;
            deact.fabric.serialization = kContendedFabricSerialization;
            configs.push_back(std::move(ifam));
            configs.push_back(std::move(deact));
        }
    }
    std::cerr << "fig16: " << configs.size() << " runs across "
              << options.sweepJobs << " sweep jobs...\n";
    SweepExecutor executor(options.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, 0);

    std::size_t cursor = 0;
    for (const auto& point : axis_source.axis.points) {
        std::vector<double> row;
        for (std::size_t b = 0; b < 2; ++b) {
            double i = results[cursor++].ipc;
            double d = results[cursor++].ipc;
            row.push_back(i > 0 ? d / i : 0.0);
        }
        report.addRow(std::to_string(static_cast<unsigned>(point.value)),
                      row);
    }
    report.addNote("paper: speedup grows with sharing; dc 2.92x at 1 "
                   "node -> 3.26x at 8 nodes");
    return emitReport(report, options);
}
