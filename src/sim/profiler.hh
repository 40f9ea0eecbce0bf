/**
 * @file
 * Profiler — wall-clock accounting of where host time goes.
 *
 * The sim-time trace (trace_sink.hh) answers "what did the simulated
 * system do"; the profiler answers "what did the *host* spend its time
 * on": per-partition drain (inbox flush) and exec seconds per window,
 * the coordinator's serial sections (arbitration merge, window bounds,
 * global ops), and the whole run's wall clock. Everything here is
 * host-timing and therefore explicitly NONDETERMINISTIC — it is
 * exported as a separate "profile" block that is never part of golden
 * comparisons (see DESIGN.md "Observability layer").
 *
 * Writer discipline mirrors the kernel's: each partition's accumulator
 * is written only by the worker that owns the partition during an
 * epoch (the epoch barriers publish the writes), the coordinator
 * fields only between epochs, the wall clock only by the caller of
 * System::run.
 */

#ifndef FAMSIM_SIM_PROFILER_HH
#define FAMSIM_SIM_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace famsim {

/** Wall-clock profile of one System::run. */
class Profiler
{
  public:
    /** Monotonic second-resolution stopwatch for profile sections. */
    class Timer
    {
      public:
        // lint-allow(wall-clock): host-profiling stopwatch; output goes to the profile block only, never into sim state or goldens
        Timer() : start_(std::chrono::steady_clock::now()) {}

        [[nodiscard]] double
        seconds() const
        {
            return std::chrono::duration<double>(
                       // lint-allow(wall-clock): host-profiling stopwatch; never feeds sim state
                       std::chrono::steady_clock::now() - start_)
                .count();
        }

      private:
        // lint-allow(wall-clock): host-profiling stopwatch; never feeds sim state
        std::chrono::steady_clock::time_point start_;
    };

    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /** Size the per-partition accumulators (parallel runs only). */
    void
    setPartitions(std::uint32_t partitions)
    {
        parts_.assign(partitions, PartTimes{});
    }

    void
    addDrain(std::uint32_t partition, double seconds)
    {
        parts_[partition].drain += seconds;
    }

    void
    addExec(std::uint32_t partition, double seconds)
    {
        parts_[partition].exec += seconds;
    }

    /** Coordinator-serial time between epochs (arbitration, bounds,
     *  global ops). */
    void addCoordinator(double seconds) { coordinator_ += seconds; }

    void setWall(double seconds) { wall_ = seconds; }
    void setThreads(unsigned threads) { threads_ = threads; }

    void
    setWindows(std::uint64_t windows, std::uint64_t widened)
    {
        windows_ = windows;
        widened_ = widened;
    }

    [[nodiscard]] double wallSeconds() const { return wall_; }
    [[nodiscard]] std::uint64_t windows() const { return windows_; }
    [[nodiscard]] double coordinatorSeconds() const { return coordinator_; }

    /** Sum of all partitions' inbox-flush seconds. */
    [[nodiscard]] double
    drainSeconds() const
    {
        double total = 0.0;
        for (const PartTimes& t : parts_)
            total += t.drain;
        return total;
    }

    /** Sum of all partitions' window-execution seconds. */
    [[nodiscard]] double
    execSeconds() const
    {
        double total = 0.0;
        for (const PartTimes& t : parts_)
            total += t.exec;
        return total;
    }

    /**
     * The "profile" JSON block (object only, no surrounding key).
     * Nondeterministic by construction: values are host wall-clock.
     */
    void writeJson(std::ostream& os, int indent = 0) const;

  private:
    struct PartTimes {
        double drain = 0.0; //!< inbox flush at each window's start
        double exec = 0.0;  //!< event execution (exec epochs)
    };

    std::vector<PartTimes> parts_;
    double coordinator_ = 0.0;
    double wall_ = 0.0;
    unsigned threads_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t widened_ = 0;
};

} // namespace famsim

#endif // FAMSIM_SIM_PROFILER_HH
