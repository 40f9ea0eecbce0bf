#include "sim/stats.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace famsim {

namespace json {

void
writeString(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream& os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional substitute.
        os << "null";
        return;
    }
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    FAMSIM_ASSERT(ec == std::errc{}, "double-to-JSON conversion failed");
    os.write(buf, ptr - buf);
}

} // namespace json

Histogram::Histogram(std::uint64_t bucket_width, std::size_t buckets)
    : bucketWidth_(bucket_width), counts_(buckets, 0)
{
    FAMSIM_ASSERT(bucket_width > 0, "histogram bucket width must be > 0");
    FAMSIM_ASSERT(buckets > 0, "histogram must have at least one bucket");
}

void
Histogram::sample(std::uint64_t value)
{
    FAMSIM_CHECK_STAT(checkTag, "histogram sample");
    std::size_t idx = value / bucketWidth_;
    if (idx >= counts_.size())
        idx = counts_.size() - 1; // saturate into the last bucket
    ++counts_[idx];
    ++samples_;
    sum_ += value;
    if (value > max_)
        max_ = value;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    samples_ = 0;
    sum_ = 0;
    max_ = 0;
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0
                         : static_cast<double>(sum_) /
                               static_cast<double>(samples_);
}

std::uint64_t
Histogram::bucket(std::size_t i) const
{
    FAMSIM_ASSERT(i < counts_.size(), "histogram bucket out of range");
    return counts_[i];
}

std::uint64_t
Histogram::percentile(double p) const
{
    FAMSIM_ASSERT(p > 0.0 && p <= 1.0,
                  "percentile fraction must be in (0, 1]");
    if (samples_ == 0)
        return 0;
    // Nearest rank: the ceil(p * samples)-th smallest sample, resolved
    // to its bucket's lower edge.
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(samples_)));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank)
            return static_cast<std::uint64_t>(i) * bucketWidth_;
    }
    return static_cast<std::uint64_t>(counts_.size() - 1) * bucketWidth_;
}

Counter&
StatRegistry::counter(const std::string& name, const std::string& desc)
{
    auto it = entries_.try_emplace(name).first;
    auto& entry = it->second;
    if (!entry.counter) {
        FAMSIM_ASSERT(!entry.shared && !entry.histogram && !entry.jobs,
                      "stat '", name, "' re-registered with another type");
        entry.desc = desc;
        entry.counter = std::make_unique<Counter>();
#if FAMSIM_CHECK
        entry.counter->checkTag =
            check::Tag{check::wiringOwnerSlot(), &it->first};
#endif
    }
    return *entry.counter;
}

SharedCounter&
StatRegistry::sharedCounter(const std::string& name,
                            const std::string& desc)
{
    auto& entry = entries_[name];
    if (!entry.shared) {
        FAMSIM_ASSERT(!entry.counter && !entry.histogram && !entry.jobs,
                      "stat '", name, "' re-registered with another type");
        entry.desc = desc;
        entry.shared = std::make_unique<SharedCounter>();
    }
    return *entry.shared;
}

Histogram&
StatRegistry::histogram(const std::string& name, const std::string& desc,
                        std::uint64_t bucket_width, std::size_t buckets)
{
    auto it = entries_.try_emplace(name).first;
    auto& entry = it->second;
    if (!entry.histogram) {
        FAMSIM_ASSERT(!entry.counter && !entry.shared && !entry.jobs,
                      "stat '", name, "' re-registered with another type");
        entry.desc = desc;
        entry.histogram = std::make_unique<Histogram>(bucket_width, buckets);
#if FAMSIM_CHECK
        entry.histogram->checkTag =
            check::Tag{check::wiringOwnerSlot(), &it->first};
#endif
    }
    return *entry.histogram;
}

Histogram&
StatRegistry::histogramWithPercentiles(const std::string& name,
                                       const std::string& desc,
                                       std::uint64_t bucket_width,
                                       std::size_t buckets)
{
    Histogram& h = histogram(name, desc, bucket_width, buckets);
    entries_[name].percentiles = true;
    return h;
}

JobStatTable&
StatRegistry::jobTable(const std::string& name, const std::string& desc,
                       unsigned jobs)
{
    FAMSIM_ASSERT(jobs >= 1, "job table '", name, "' needs >= 1 slot");
    auto& entry = entries_[name];
    if (!entry.jobs) {
        FAMSIM_ASSERT(!entry.counter && !entry.shared && !entry.histogram,
                      "stat '", name, "' re-registered with another type");
        entry.desc = desc;
        entry.jobs = std::make_unique<JobStatTable>(jobs);
    }
    FAMSIM_ASSERT(entry.jobs->jobs() == jobs, "job table '", name,
                  "' re-registered with a different slot count");
    return *entry.jobs;
}

double
StatRegistry::get(const std::string& name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        FAMSIM_PANIC("unknown stat '", name, "'");
    if (std::uint64_t count = 0; it->second.countValue(count))
        return static_cast<double>(count);
    if (it->second.histogram)
        return it->second.histogram->mean();
    FAMSIM_PANIC("stat '", name,
                 "' has an unsupported kind for get() (per-job tables "
                 "have no single value)");
}

bool
StatRegistry::has(const std::string& name) const
{
    return entries_.find(name) != entries_.end();
}

double
StatRegistry::sumMatching(const std::string& suffix) const
{
    double sum = 0.0;
    for (const auto& [name, entry] : entries_) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            if (std::uint64_t count = 0; entry.countValue(count))
                sum += static_cast<double>(count);
        }
    }
    return sum;
}

std::vector<std::uint64_t>
StatRegistry::sumJobTables(const std::string& suffix) const
{
    std::vector<std::uint64_t> sums;
    for (const auto& [name, entry] : entries_) {
        if (!entry.jobs || name.size() < suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        if (sums.size() < entry.jobs->jobs())
            sums.resize(entry.jobs->jobs(), 0);
        for (unsigned j = 0; j < entry.jobs->jobs(); ++j)
            sums[j] += entry.jobs->value(j);
    }
    return sums;
}

void
StatRegistry::resetAll()
{
    for (auto& [name, entry] : entries_) {
        if (entry.counter)
            entry.counter->reset();
        if (entry.shared)
            entry.shared->reset();
        if (entry.histogram)
            entry.histogram->reset();
        if (entry.jobs)
            entry.jobs->reset();
    }
}

void
StatRegistry::dump(std::ostream& os) const
{
    for (const auto& [name, entry] : entries_) {
        os << std::left << std::setw(52) << name << " ";
        if (std::uint64_t count = 0; entry.countValue(count)) {
            os << std::setw(16) << count;
        } else if (entry.histogram) {
            os << "samples=" << entry.histogram->samples()
               << " mean=" << entry.histogram->mean()
               << " max=" << entry.histogram->max();
        } else if (entry.jobs) {
            os << "jobs=[";
            for (unsigned j = 0; j < entry.jobs->jobs(); ++j)
                os << (j ? " " : "") << entry.jobs->value(j);
            os << "]";
        }
        os << " # " << entry.desc << "\n";
    }
}

void
StatRegistry::dumpCsv(std::ostream& os) const
{
    for (const auto& [name, entry] : entries_) {
        if (std::uint64_t count = 0; entry.countValue(count))
            os << name << "," << count << "\n";
        else if (entry.jobs)
            for (unsigned j = 0; j < entry.jobs->jobs(); ++j)
                os << name << "[" << j << "]," << entry.jobs->value(j)
                   << "\n";
    }
}

void
StatRegistry::dumpJson(std::ostream& os, int indent) const
{
    const std::string outer(indent, ' ');
    const std::string inner(indent + 2, ' ');
    os << "{";
    bool first = true;
    for (const auto& [name, entry] : entries_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << inner;
        json::writeString(os, name);
        os << ": ";
        if (std::uint64_t count = 0; entry.countValue(count)) {
            os << count;
        } else if (entry.histogram) {
            const Histogram& h = *entry.histogram;
            os << "{\"samples\": " << h.samples() << ", \"mean\": ";
            json::writeNumber(os, h.mean());
            os << ", \"max\": " << h.max();
            if (entry.percentiles) {
                os << ", \"p50\": " << h.p50() << ", \"p95\": "
                   << h.p95() << ", \"p99\": " << h.p99();
            }
            os << ", \"buckets\": [";
            for (std::size_t i = 0; i < h.numBuckets(); ++i)
                os << (i ? ", " : "") << h.bucket(i);
            os << "]}";
        } else if (entry.jobs) {
            os << "[";
            for (unsigned j = 0; j < entry.jobs->jobs(); ++j)
                os << (j ? ", " : "") << entry.jobs->value(j);
            os << "]";
        } else {
            os << "null";
        }
    }
    if (!first)
        os << "\n" << outer;
    os << "}";
}

std::string
StatRegistry::jsonString() const
{
    std::ostringstream os;
    dumpJson(os);
    os << "\n";
    return os.str();
}

} // namespace famsim
