/**
 * @file
 * Fig. 13 (+ the §V-D1 associativity study): DeACT-N speedup over
 * I-FAM as the STU cache grows from 256 to 4096 entries. The paper
 * reports e.g. PARSEC falling from 3.45x (256 entries) to 1.75x
 * (4096): the smaller the STU, the more DeACT's in-memory caching
 * helps.
 */

#include <algorithm>
#include <iostream>
#include <tuple>

#include "harness/executor.hh"
#include "harness/figure_report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"

using namespace famsim;

namespace {

/** One row: its label and the (base, test) variants it compares. */
struct Row {
    std::string label;
    std::size_t base;
    std::size_t test;
};

} // namespace

int
main(int argc, char** argv)
{
    BenchOptions options = parseBenchArgs(argc, argv, 150000);
    ScopedQuietLogs quiet;
    const ProfileGroups groups = sensitivityGroups();

    // Each (architecture, STU entries, ways) variant the two studies
    // plot, listed once: the 1024-entry 8-way pair serves both.
    std::vector<std::tuple<ArchKind, std::size_t, std::size_t>> variants;
    auto variantOf = [&variants](ArchKind arch, std::size_t entries,
                                 std::size_t ways) {
        const auto variant = std::tuple{arch, entries, ways};
        auto it = std::find(variants.begin(), variants.end(), variant);
        if (it == variants.end())
            it = variants.insert(it, variant);
        return static_cast<std::size_t>(it - variants.begin());
    };
    auto rowOf = [&variantOf](std::size_t label, std::size_t entries,
                              std::size_t ways) {
        return Row{std::to_string(label),
                   variantOf(ArchKind::IFam, entries, ways),
                   variantOf(ArchKind::DeactN, entries, ways)};
    };
    // The axis comes from the sweep registry so the bench curve and
    // the golden-pinned fig13_stu_entries sweep cover the same points.
    std::vector<Row> size_rows;
    for (const auto& point :
         SweepRegistry::paper().byName("fig13_stu_entries").axis.points) {
        auto entries = static_cast<std::size_t>(point.value);
        size_rows.push_back(rowOf(entries, entries, 8));
    }
    std::vector<Row> assoc_rows;
    for (std::size_t ways : {4u, 8u, 32u})
        assoc_rows.push_back(rowOf(ways, 1024, ways));

    std::vector<SystemConfig> configs;
    for (const auto& [arch, entries, ways] : variants) {
        for (const auto& [name, group] : groups) {
            for (const auto& profile : group) {
                SystemConfig config =
                    makeConfig(profile, arch, options.instructions);
                config.stu.entries = entries;
                config.stu.assoc = ways;
                configs.push_back(std::move(config));
            }
        }
    }
    std::cerr << "fig13: " << configs.size() << " runs across "
              << options.sweepJobs << " sweep jobs...\n";
    SweepExecutor executor(options.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, 0);

    std::vector<std::string> group_names;
    for (const auto& [name, group] : groups)
        group_names.push_back(name);
    FigureReport report(
        "fig13_stu_size",
        "Fig. 13: DeACT-N speedup wrt I-FAM vs STU size", "entries",
        group_names);
    for (const Row& row : size_rows)
        report.addRow(row.label,
                      groupSpeedups(groups, results, row.base, row.test));
    report.addNote("paper: speedup shrinks as the STU grows; PARSEC "
                   "3.45x at 256 -> 1.75x at 4096");

    FigureReport assoc_report(
        "fig13_stu_assoc",
        "SV-D1: DeACT-N speedup wrt I-FAM vs STU associativity",
        "assoc", group_names);
    for (const Row& row : assoc_rows)
        assoc_report.addRow(
            row.label, groupSpeedups(groups, results, row.base, row.test));
    assoc_report.addNote("paper: improvement decreases and saturates "
                         "with associativity");
    return emitReports({&report, &assoc_report}, options);
}
