#include "harness/figure_report.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "harness/runner.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace famsim {

FigureReport::FigureReport(std::string figure, std::string title,
                           std::string row_header,
                           std::vector<std::string> columns)
    : figure_(std::move(figure)),
      title_(std::move(title)),
      rowHeader_(std::move(row_header)),
      columns_(std::move(columns))
{
    FAMSIM_ASSERT(!figure_.empty(), "figure report needs an id");
}

void
FigureReport::addRow(const std::string& name,
                     const std::vector<double>& values)
{
    FAMSIM_ASSERT(values.size() == columns_.size(),
                  "row '", name, "' has ", values.size(),
                  " values for ", columns_.size(), " columns");
    rows_.emplace_back(name, values);
}

void
FigureReport::addSummary(const std::string& key, double value)
{
    summary_.emplace_back(key, value);
}

void
FigureReport::addMeta(const std::string& key, const std::string& value)
{
    meta_.emplace_back(key, value);
}

void
FigureReport::addNote(const std::string& note)
{
    notes_.push_back(note);
}

void
FigureReport::printTable(std::ostream& os, int precision) const
{
    os << "\n== " << title_ << " ==\n";
    if (!columns_.empty() || !rows_.empty()) {
        os << std::left << std::setw(12) << rowHeader_;
        for (const auto& col : columns_)
            os << std::right << std::setw(12) << col;
        os << "\n";
        os << std::string(12 + 12 * columns_.size(), '-') << "\n";
        for (const auto& [name, values] : rows_) {
            os << std::left << std::setw(12) << name;
            for (double v : values) {
                os << std::right << std::setw(12) << std::fixed
                   << std::setprecision(precision) << v;
            }
            os << "\n";
        }
    }
    for (const auto& [key, value] : summary_) {
        os << key << " = " << std::fixed
           << std::setprecision(precision + 2) << value << "\n";
    }
    for (const auto& [key, value] : meta_)
        os << key << " = " << value << "\n";
    for (const auto& note : notes_)
        os << "(" << note << ")\n";
    os.flush();
}

void
FigureReport::writeJson(std::ostream& os) const
{
    os << "{\n  \"figure\": ";
    json::writeString(os, figure_);
    os << ",\n  \"title\": ";
    json::writeString(os, title_);
    os << ",\n  \"row_header\": ";
    json::writeString(os, rowHeader_);

    os << ",\n  \"columns\": [";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, columns_[i]);
    }
    os << "]";

    os << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        os << (i ? ",\n    " : "\n    ") << "{\"name\": ";
        json::writeString(os, rows_[i].first);
        os << ", \"values\": [";
        const auto& values = rows_[i].second;
        for (std::size_t j = 0; j < values.size(); ++j) {
            os << (j ? ", " : "");
            json::writeNumber(os, values[j]);
        }
        os << "]}";
    }
    os << (rows_.empty() ? "]" : "\n  ]");

    os << ",\n  \"summary\": {";
    for (std::size_t i = 0; i < summary_.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, summary_[i].first);
        os << ": ";
        json::writeNumber(os, summary_[i].second);
    }
    os << "}";

    os << ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, meta_[i].first);
        os << ": ";
        json::writeString(os, meta_[i].second);
    }
    os << "}";

    os << ",\n  \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, notes_[i]);
    }
    os << "]\n}\n";
}

BenchOptions
parseBenchArgs(int argc, char** argv, std::uint64_t instr_fallback)
{
    BenchOptions options;
    std::uint64_t instr_override = 0;
    unsigned jobs_override = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json") {
            options.json = true;
        } else if (arg == "--out") {
            options.outPath = need("--out");
        } else if (arg == "--instr") {
            std::string value = need("--instr");
            std::optional<std::uint64_t> parsed = parseUnsigned(value);
            if (!parsed || *parsed == 0) {
                std::cerr << "--instr needs a positive integer, got '"
                          << value << "'\n";
                std::exit(2);
            }
            instr_override = *parsed;
        } else if (arg == "--sweep-jobs") {
            std::string value = need("--sweep-jobs");
            std::optional<std::uint64_t> parsed = parseUnsigned(value);
            if (!parsed || *parsed == 0 || *parsed > 1024) {
                std::cerr << "--sweep-jobs needs a positive integer "
                             "(<= 1024), got '"
                          << value << "'\n";
                std::exit(2);
            }
            jobs_override = static_cast<unsigned>(*parsed);
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << argv[0]
                      << " [--json] [--out <path>] [--instr <n>]"
                         " [--sweep-jobs <n>]\n"
                         "  --json       emit the figure as JSON\n"
                         "  --out        write output to a file\n"
                         "  --instr      instructions per run (also "
                         "FAMSIM_INSTR)\n"
                         "  --sweep-jobs point-level workers (also "
                         "FAMSIM_SWEEP_JOBS)\n";
            std::exit(0);
        } else {
            std::cerr << "unknown option '" << arg
                      << "' (try --help)\n";
            std::exit(2);
        }
    }
    options.instructions =
        instr_override != 0 ? instr_override : instrBudget(instr_fallback);
    options.sweepJobs =
        jobs_override != 0 ? jobs_override : sweepJobsFromEnv(1);
    return options;
}

int
emitReport(const FigureReport& report, const BenchOptions& options)
{
    return emitReports({&report}, options);
}

int
emitReports(const std::vector<const FigureReport*>& reports,
            const BenchOptions& options)
{
    FAMSIM_ASSERT(!reports.empty(), "no reports to emit");
    std::ofstream file;
    if (!options.outPath.empty()) {
        file.open(options.outPath, std::ios::binary | std::ios::trunc);
        if (!file) {
            std::cerr << "cannot write '" << options.outPath << "'\n";
            return 1;
        }
    }
    std::ostream& os = options.outPath.empty() ? std::cout : file;
    if (options.json) {
        reports.front()->writeJson(os);
        // Companion figures can't share the headline's JSON object;
        // with --out each gets a sibling file named by its figure id
        // (on stdout they are skipped to keep the output one object).
        for (std::size_t i = 1; i < reports.size(); ++i) {
            if (options.outPath.empty())
                continue;
            std::filesystem::path sibling =
                std::filesystem::path(options.outPath).parent_path() /
                (reports[i]->figure() + ".json");
            std::ofstream extra(sibling,
                                std::ios::binary | std::ios::trunc);
            if (!extra) {
                std::cerr << "cannot write '" << sibling.string()
                          << "'\n";
                return 1;
            }
            reports[i]->writeJson(extra);
        }
    } else {
        for (const FigureReport* report : reports)
            report->printTable(os);
    }
    return 0;
}

} // namespace famsim
