/**
 * @file
 * Statistics collection: counters, histograms and a registry.
 *
 * Every component registers named statistics with the simulation's
 * StatRegistry. Names are hierarchical ("node0.core1.l1d.hits"). The
 * registry supports a reset (used to discard warmup), text and CSV
 * dumps, and programmatic queries used by the experiment harness.
 */

#ifndef FAMSIM_SIM_STATS_HH
#define FAMSIM_SIM_STATS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/check.hh"
#include "sim/types.hh"

namespace famsim {

namespace json {

/** Write @p s as a JSON string literal (quotes + escapes). */
void writeString(std::ostream& os, const std::string& s);

/**
 * Write @p v as a JSON number using the shortest representation that
 * round-trips (std::to_chars). Deterministic for a given bit pattern,
 * which keeps golden-file comparisons byte-exact.
 */
void writeNumber(std::ostream& os, double v);

} // namespace json

/**
 * A monotonically increasing event count, resettable for warmup.
 * Plain (non-atomic): under the parallel kernel a Counter is
 * partition-local and may only be bumped by the partition that owns it
 * (enforced by the FAMSIM_CHECK hooks; cross-partition aggregates use
 * SharedCounter instead).
 */
class Counter
{
  public:
    Counter&
    operator++()
    {
        FAMSIM_CHECK_STAT(checkTag, "counter increment");
        ++value_;
        return *this;
    }

    Counter&
    operator+=(std::uint64_t delta)
    {
        FAMSIM_CHECK_STAT(checkTag, "counter increment");
        value_ += delta;
        return *this;
    }

    [[nodiscard]] std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

#if FAMSIM_CHECK
    /** Owner stamp, set by StatRegistry at creation (wiring owner). */
    check::Tag checkTag;
#endif

  private:
    std::uint64_t value_ = 0;
};

/**
 * A counter whose increments may arrive concurrently from several
 * worker threads (relaxed atomic adds). Totals are sums, and sums are
 * order-independent, so a SharedCounter stays deterministic across
 * thread counts even though the interleaving is not. Used for
 * aggregates that span partitions of the parallel kernel (e.g. the
 * FAM media's request classification, incremented by every media
 * module's partition); everything partition-local stays a plain
 * Counter, which is cheaper to bump.
 */
class SharedCounter
{
  public:
    SharedCounter&
    operator++()
    {
        value_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    SharedCounter&
    operator+=(std::uint64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
        return *this;
    }

    [[nodiscard]] std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Only valid while writers are quiescent (warmup barrier/teardown). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A per-job (tenant) counter table: one slot per JobId, sized at
 * registration. The multi-tenant sibling of SharedCounter — slots are
 * relaxed atomics because job-tagged requests from several parallel
 * partitions (every FAM media module, every node's STU) bump the same
 * table. Each slot is a sum of its own increments, and sums are
 * order-independent, so the table stays byte-deterministic across
 * thread counts exactly as SharedCounter does; see DESIGN.md
 * "Multi-tenant job model".
 */
class JobStatTable
{
  public:
    explicit JobStatTable(unsigned jobs) : slots_(jobs) {}

    void
    add(JobId job, std::uint64_t delta = 1)
    {
        slots_[job].fetch_add(delta, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t
    value(JobId job) const
    {
        return slots_[job].load(std::memory_order_relaxed);
    }

    [[nodiscard]] unsigned
    jobs() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    /** Only valid while writers are quiescent (warmup barrier/teardown). */
    void
    reset()
    {
        for (auto& slot : slots_)
            slot.store(0, std::memory_order_relaxed);
    }

  private:
    std::vector<std::atomic<std::uint64_t>> slots_;
};

/** A fixed-bucket histogram with mean/max tracking. */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket; @param buckets count. */
    explicit Histogram(std::uint64_t bucket_width = 1,
                       std::size_t buckets = 16);

    void sample(std::uint64_t value);
    void reset();

    [[nodiscard]] std::uint64_t samples() const { return samples_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] std::uint64_t max() const { return max_; }
    [[nodiscard]] std::uint64_t bucket(std::size_t i) const;
    [[nodiscard]] std::size_t numBuckets() const { return counts_.size(); }

    /**
     * Nearest-rank percentile over the bucketed distribution:
     * the lower edge of the first bucket whose cumulative count
     * reaches ceil(p * samples). Exact for bucket_width == 1
     * distributions (each bucket is one value); otherwise quantized to
     * the bucket edge. 0 when the histogram is empty. @p p in (0, 1].
     */
    [[nodiscard]] std::uint64_t percentile(double p) const;
    [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
    [[nodiscard]] std::uint64_t p95() const { return percentile(0.95); }
    [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }

#if FAMSIM_CHECK
    /** Owner stamp, set by StatRegistry at creation (wiring owner). */
    check::Tag checkTag;
#endif

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Owning registry of named statistics.
 *
 * Returned references remain valid for the registry's lifetime
 * (statistics are never removed).
 */
class StatRegistry
{
  public:
    /** Create (or fetch) a counter. Re-registering returns the original. */
    Counter& counter(const std::string& name, const std::string& desc);
    /** Create (or fetch) a thread-shared counter. */
    SharedCounter& sharedCounter(const std::string& name,
                                 const std::string& desc);
    /** Create (or fetch) a histogram. */
    Histogram& histogram(const std::string& name, const std::string& desc,
                         std::uint64_t bucket_width = 1,
                         std::size_t buckets = 16);
    /**
     * Create (or fetch) a histogram whose JSON dump additionally
     * carries p50/p95/p99 percentile keys. A separate registration
     * flavor so the plain-histogram JSON shape (and with it every
     * pre-existing golden) never changes; used by the
     * observability-gated latency-breakdown histograms
     * (Component::obsHistogram).
     */
    Histogram& histogramWithPercentiles(const std::string& name,
                                        const std::string& desc,
                                        std::uint64_t bucket_width = 1,
                                        std::size_t buckets = 16);
    /**
     * Create (or fetch) a per-job counter table with @p jobs slots.
     * Re-registering must use the same slot count.
     */
    JobStatTable& jobTable(const std::string& name, const std::string& desc,
                           unsigned jobs);

    /**
     * Value lookup by full name: counters and shared counters return
     * their count, histograms their mean. Unknown
     * names and unsupported kinds (per-job tables have no single
     * value) panic rather than returning something misleading.
     */
    [[nodiscard]] double get(const std::string& name) const;
    /** Whether a statistic with this exact name exists. */
    [[nodiscard]] bool has(const std::string& name) const;
    /** Sum of all counters whose name ends with @p suffix. */
    [[nodiscard]] double sumMatching(const std::string& suffix) const;
    /**
     * Slot-wise sum of every per-job table whose name ends with
     * @p suffix (e.g. ".job_acm_hits" totals the per-node STU tables).
     * Empty when no table matches.
     */
    [[nodiscard]] std::vector<std::uint64_t>
    sumJobTables(const std::string& suffix) const;

    /** Reset every statistic (used to discard warmup). */
    void resetAll();

    /** Human-readable dump, sorted by name. */
    void dump(std::ostream& os) const;
    /** Machine-readable "name,value" CSV dump. */
    void dumpCsv(std::ostream& os) const;
    /**
     * Machine-readable JSON dump, sorted by name. Deterministic:
     * identical registry contents produce byte-identical output
     * (doubles use shortest round-trip formatting), so the result can
     * be compared against golden files.
     */
    void dumpJson(std::ostream& os, int indent = 0) const;
    /** dumpJson() into a string. */
    [[nodiscard]] std::string jsonString() const;

  private:
    struct Entry {
        std::string desc;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<SharedCounter> shared;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<JobStatTable> jobs;
        /** Emit p50/p95/p99 in dumpJson (histogramWithPercentiles). */
        bool percentiles = false;

        /** Integer value of the counter flavor held, if any. */
        [[nodiscard]] bool
        countValue(std::uint64_t& out) const
        {
            if (counter) {
                out = counter->value();
                return true;
            }
            if (shared) {
                out = shared->value();
                return true;
            }
            return false;
        }
    };

    std::map<std::string, Entry> entries_;
};

} // namespace famsim

#endif // FAMSIM_SIM_STATS_HH
