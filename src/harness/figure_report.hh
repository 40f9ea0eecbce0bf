/**
 * @file
 * FigureReport — the shared output harness for every bench_fig* /
 * bench_table* binary.
 *
 * A bench builds one FigureReport (figure id, title, row/column
 * labels, numeric series, free-form metadata) and hands it to
 * emitReport(), which either pretty-prints the paper-style table for
 * eyeballing or emits the whole figure as deterministic JSON (via the
 * json::* helpers shared with StatRegistry::dumpJson) for machine
 * diffing and CI artifact upload.
 */

#ifndef FAMSIM_HARNESS_FIGURE_REPORT_HH
#define FAMSIM_HARNESS_FIGURE_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace famsim {

/** One figure's series: rows x columns of numbers plus annotations. */
class FigureReport
{
  public:
    /**
     * @param figure  machine id, e.g. "fig09_acm_hit_rate"
     * @param title   human title, e.g. "Fig. 9: ACM hit rate (%)"
     * @param row_header  label of the row axis (e.g. "bench")
     * @param columns     one label per series
     */
    FigureReport(std::string figure, std::string title,
                 std::string row_header,
                 std::vector<std::string> columns);

    /** Append one row; values.size() must equal the column count. */
    void addRow(const std::string& name,
                const std::vector<double>& values);

    /** Attach a named scalar (geomeans, best-case speedups...). */
    void addSummary(const std::string& key, double value);

    /** Attach a named string (configuration text, best benchmark...). */
    void addMeta(const std::string& key, const std::string& value);

    /** Append a free-form note (the paper's expected shape). */
    void addNote(const std::string& note);

    /** Paper-style fixed-width table + metadata + notes. */
    void printTable(std::ostream& os, int precision = 2) const;

    /** The figure as one deterministic JSON object. */
    void writeJson(std::ostream& os) const;

    [[nodiscard]] const std::string& figure() const { return figure_; }
    [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  private:
    std::string figure_;
    std::string title_;
    std::string rowHeader_;
    std::vector<std::string> columns_;
    std::vector<std::pair<std::string, std::vector<double>>> rows_;
    std::vector<std::pair<std::string, double>> summary_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<std::string> notes_;
};

/** Command line shared by every bench binary. */
struct BenchOptions {
    /** Emit JSON instead of the human table. */
    bool json = false;
    /** Write the output here instead of stdout (empty = stdout). */
    std::string outPath;
    /** Resolved per-run instruction budget. */
    std::uint64_t instructions = 0;
    /**
     * Sweep-point workers for the bench's SweepExecutor fan-out
     * (--sweep-jobs, falling back to FAMSIM_SWEEP_JOBS, then 1).
     */
    unsigned sweepJobs = 1;
};

/**
 * Parse a bench command line:
 *   --json            emit the figure as JSON on stdout
 *   --out <path>      write the output (table or JSON) to a file
 *   --instr <n>       instruction budget (overrides FAMSIM_INSTR)
 *   --sweep-jobs <n>  point-level workers (overrides FAMSIM_SWEEP_JOBS)
 *   --help            print usage and exit 0
 * Unknown flags exit 2. @p instr_fallback seeds instrBudget() when
 * neither --instr nor FAMSIM_INSTR is given.
 */
[[nodiscard]] BenchOptions
parseBenchArgs(int argc, char** argv, std::uint64_t instr_fallback);

/**
 * Emit @p report per @p options (table or JSON, stdout or file).
 * @return the bench process exit code.
 */
int emitReport(const FigureReport& report, const BenchOptions& options);

/**
 * Emit a bench's reports: in table mode every report prints to the
 * same destination. In JSON mode the first (headline) figure goes to
 * the requested destination; with --out each companion report is
 * written to a sibling file named "<figure-id>.json" in the same
 * directory, keeping every file one JSON object. For benches with
 * companion studies (Fig. 13's associativity, Fig. 14's pairs).
 */
int emitReports(const std::vector<const FigureReport*>& reports,
                const BenchOptions& options);

} // namespace famsim

#endif // FAMSIM_HARNESS_FIGURE_REPORT_HH
