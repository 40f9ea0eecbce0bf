/**
 * @file
 * TraceSink — deterministic Chrome trace-event output.
 *
 * Components emit sim-time spans, instants and counter samples into
 * per-lane buffers (one lane per psim partition: nodes first, then FAM
 * media modules, the broker last — the serial kernel passes the same
 * lane ids explicitly, so both kernels produce the same lanes). Each
 * lane has exactly one writer at any time: the worker thread currently
 * executing that partition, or the coordinator/serial loop while the
 * workers are quiescent. No locks, no atomics on the emit path.
 *
 * write() flushes everything as Chrome `trace_event` JSON (loadable in
 * Perfetto / chrome://tracing), globally sorted by event *content* —
 * (ts, lane, phase, name, dur, arg) — not by emission order. Two runs
 * that produce the same multiset of events therefore produce
 * byte-identical files, which is what makes the trace of a
 * warmup-free scenario identical across `--threads {0,1,4}`: the
 * kernels may interleave same-tick work differently, but the set of
 * lifecycle events is the same. Packets carry no id, so nothing in
 * the output names an individual packet.
 *
 * Timestamps are emitted in microseconds (ticks are picoseconds, so
 * ts = ticks / 1e6) through json::writeNumber's shortest round-trip
 * formatting — deterministic for a given tick value.
 */

#ifndef FAMSIM_SIM_TRACE_SINK_HH
#define FAMSIM_SIM_TRACE_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace famsim {

/** Buffered, deterministic Chrome trace-event sink. */
class TraceSink
{
  public:
    /** Event category bits (--trace-filter). */
    enum Category : unsigned {
        kPacket = 1u << 0, //!< packet-lifecycle spans/instants
        kPsim = 1u << 1,   //!< parallel-kernel windows/counters
        kAll = kPacket | kPsim,
    };

    /**
     * @param lanes timeline lane count (psim partition count:
     *        nodes + media modules + broker).
     * @param categories mask of Category bits to record.
     */
    explicit TraceSink(std::uint32_t lanes, unsigned categories = kAll);

    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /** Whether events of @p category are recorded (callers gate any
     *  nontrivial argument computation on this). */
    [[nodiscard]] bool
    wants(unsigned category) const
    {
        return (categories_ & category) != 0;
    }

    [[nodiscard]] std::uint32_t lanes() const
    {
        return static_cast<std::uint32_t>(lanes_.size());
    }

    /** Display name of @p lane ("node0", "media1", "broker"). */
    void setLaneName(std::uint32_t lane, std::string name);

    /**
     * Complete span [start, end] on @p lane. @p name must be a string
     * literal (stored by pointer, compared by content at flush).
     */
    void
    span(unsigned category, std::uint32_t lane, const char* name,
         Tick start, Tick end, std::uint64_t arg = 0)
    {
        if (!wants(category))
            return;
        push(lane, 'X', name, start, end >= start ? end - start : 0, arg);
    }

    /** Instant event at @p ts on @p lane. */
    void
    instant(unsigned category, std::uint32_t lane, const char* name,
            Tick ts, std::uint64_t arg = 0)
    {
        if (!wants(category))
            return;
        push(lane, 'i', name, ts, 0, arg);
    }

    /** Counter-track sample (@p value plotted over time) on @p lane. */
    void
    counter(unsigned category, std::uint32_t lane, const char* name,
            Tick ts, std::uint64_t value)
    {
        if (!wants(category))
            return;
        push(lane, 'C', name, ts, 0, value);
    }

    /** Total buffered events (tests; cheap, coordinator-only). */
    [[nodiscard]] std::uint64_t size() const;

    /**
     * Flush everything as one Chrome trace JSON object. Only valid
     * while emitters are quiescent (after the run).
     */
    void write(std::ostream& os) const;

  private:
    struct Event {
        Tick ts;
        Tick dur;
        std::uint32_t lane;
        std::uint32_t seq; //!< per-lane emission index (sort stability)
        char ph;
        const char* name;
        std::uint64_t arg;
    };

    void
    push(std::uint32_t lane, char ph, const char* name, Tick ts, Tick dur,
         std::uint64_t arg)
    {
        auto& buf = lanes_[lane].events;
        Event ev;
        ev.ts = ts;
        ev.dur = dur;
        ev.lane = lane;
        ev.seq = static_cast<std::uint32_t>(buf.size());
        ev.ph = ph;
        ev.name = name;
        ev.arg = arg;
        buf.push_back(ev);
    }

    struct Lane {
        std::string name;
        std::vector<Event> events;
    };

    unsigned categories_;
    std::vector<Lane> lanes_;
};

} // namespace famsim

#endif // FAMSIM_SIM_TRACE_SINK_HH
