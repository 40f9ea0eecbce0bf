/**
 * @file
 * Fig. 14: effect of the ACM entry width (8/16/32 bits) on DeACT-W
 * and DeACT-N speedup over I-FAM, plus the §V-D2 study of (tag, ACM)
 * pairs per DeACT-N way (1-3). The paper finds DeACT-W insensitive to
 * the width (contiguous caching is defeated by random allocation)
 * while DeACT-N improves with more pairs per way.
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

    // Each (architecture, ACM bits, pairs per way) variant the two
    // studies plot, listed once: the I-FAM run at a width is the
    // baseline of every row at that width, and DeACT-N at 16 bits with
    // 2 pairs serves both studies. I-FAM has no pairs and keeps the
    // default count.
    std::vector<std::tuple<ArchKind, unsigned, unsigned>> variants;
    auto variantOf = [&variants](ArchKind arch, unsigned bits,
                                 unsigned pairs) {
        const auto variant = std::tuple{arch, bits, pairs};
        auto it = std::find(variants.begin(), variants.end(), variant);
        if (it == variants.end())
            it = variants.insert(it, variant);
        return static_cast<std::size_t>(it - variants.begin());
    };
    const unsigned default_pairs = StuParams{}.pairsPerWay;
    // The axis comes from the sweep registry so the bench curve and
    // the golden-pinned fig14_acm_size sweep cover the same widths.
    std::vector<Row> width_rows;
    for (const auto& point :
         SweepRegistry::paper().byName("fig14_acm_size").axis.points) {
        auto bits = static_cast<unsigned>(point.value);
        for (ArchKind arch : {ArchKind::DeactW, ArchKind::DeactN}) {
            width_rows.push_back(
                {std::string(toString(arch)) + "/" +
                     std::to_string(bits) + "b",
                 variantOf(ArchKind::IFam, bits, default_pairs),
                 variantOf(arch, bits, /*pairs=*/2)});
        }
    }
    std::vector<Row> pairs_rows;
    for (unsigned pairs : {1u, 2u, 3u}) {
        const unsigned bits = pairs == 2 ? 16 : 8;
        pairs_rows.push_back(
            {std::to_string(pairs),
             variantOf(ArchKind::IFam, bits, default_pairs),
             variantOf(ArchKind::DeactN, bits, pairs)});
    }

    std::vector<SystemConfig> configs;
    for (const auto& [arch, bits, pairs] : variants) {
        for (const auto& [name, group] : groups) {
            for (const auto& profile : group) {
                SystemConfig config =
                    makeConfig(profile, arch, options.instructions);
                config.stu.acmBits = bits;
                config.stu.pairsPerWay = pairs;
                configs.push_back(std::move(config));
            }
        }
    }
    std::cerr << "fig14: " << configs.size() << " runs across "
              << options.sweepJobs << " sweep jobs...\n";
    SweepExecutor executor(options.sweepJobs);
    const std::vector<RunResult> results =
        executor.runResults(configs, 0);

    std::vector<std::string> group_names;
    for (const auto& [name, group] : groups)
        group_names.push_back(name);
    FigureReport report("fig14_acm_size",
                        "Fig. 14: speedup wrt I-FAM vs ACM width",
                        "config", group_names);
    for (const Row& row : width_rows)
        report.addRow(row.label,
                      groupSpeedups(groups, results, row.base, row.test));
    report.addNote("paper: DeACT-W nearly flat across widths — random "
                   "allocation defeats contiguous ACM caching");

    FigureReport pairs_report(
        "fig14_acm_pairs",
        "SV-D2: DeACT-N speedup wrt I-FAM vs (tag,ACM) pairs per way",
        "pairs", group_names);
    for (const Row& row : pairs_rows)
        pairs_report.addRow(
            row.label, groupSpeedups(groups, results, row.base, row.test));
    pairs_report.addNote("paper: more pairs per way -> more ACM reach -> "
                         "higher speedup; one pair ~ DeACT-W");
    return emitReports({&report, &pairs_report}, options);
}
