/**
 * @file
 * Workload trace record/replay.
 *
 * famsim's synthetic generators stand in for the paper's benchmark
 * binaries; trace support closes the loop for users who *do* have real
 * address traces (e.g. from Pin, DynamoRIO or gem5): record any
 * WorkloadGen to a file, or replay a file as a WorkloadGen. Modeled on
 * SST prospero's reader family: one open() dispatch in front of a
 * binary decoder (plain or gzip-compressed) and a text parser.
 *
 * Three on-disk formats (full spec in DESIGN.md "Trace format"):
 *  - binary ("FAMSIMTRACE2"): header {magic, u64 record count,
 *    u64 footprint page count}, then the footprint pages (u64 each,
 *    writer order), then packed 13-byte records
 *    {u64 vaddr, u32 gap, u8 flags} (little endian).
 *  - text ("*.txt"): `<vaddr> <gap> R|W [B]` lines plus optional
 *    `F <page>` footprint lines and `#` comments.
 *  - gzip ("*.gz"): a gzip stream whose decompressed bytes are a
 *    binary trace, read by the same decoder through zlib.
 *
 * Readers stream records in fixed-size chunks, so multi-GB traces
 * never need the whole operation list resident; the trace loops when
 * exhausted so cores can run arbitrary instruction budgets.
 */

#ifndef FAMSIM_WORKLOAD_TRACE_HH
#define FAMSIM_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/stream_gen.hh"

namespace famsim {

/** On-disk trace encodings (see file comment). */
enum class TraceFormat : std::uint8_t { Binary, Text, Gzip };

/** @return printable name of a trace format. */
[[nodiscard]] constexpr const char*
toString(TraceFormat format)
{
    switch (format) {
      case TraceFormat::Binary: return "binary";
      case TraceFormat::Text: return "text";
      case TraceFormat::Gzip: return "gzip";
    }
    return "?";
}

/** Format implied by a path: ".gz" = gzip, ".txt" = text, else binary. */
[[nodiscard]] TraceFormat traceFormatForPath(const std::string& path);

/**
 * Writes memory-op records to a trace file (binary, text or gzip).
 *
 * Every write is checked: a disk-full or I/O error fatals immediately
 * instead of reporting success over a silently truncated file. The
 * gzip backend buffers records and emits the stream at close() (gzip
 * cannot patch the record count back into the header); binary and
 * text stream records as they are appended.
 */
class TraceWriter
{
  public:
    /** Open @p path; the format is inferred from the extension. */
    explicit TraceWriter(const std::string& path);
    TraceWriter(const std::string& path, TraceFormat format);
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /**
     * Declare the replay footprint (every VA page the stream can
     * touch, in prefault order). Must be called before the first
     * append; replayers prefault exactly these pages, which is what
     * makes a recorded run's replay bit-identical to the original.
     */
    void setFootprint(const std::vector<std::uint64_t>& pages);

    /** Append one operation. */
    void append(const MemOpDesc& op);

    /** Record @p count ops from @p source (also returns them). */
    std::vector<MemOpDesc> record(WorkloadGen& source,
                                  std::uint64_t count);

    /** Flush and finalize the header. Called by the destructor too. */
    void close();

    [[nodiscard]] std::uint64_t written() const { return count_; }
    [[nodiscard]] TraceFormat format() const { return format_; }

    /** Backend interface (one per TraceFormat; see trace.cc). */
    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
    TraceFormat format_;
    std::uint64_t count_ = 0;
    bool closed_ = false;
    bool appended_ = false;
};

/**
 * Replays a trace file as a WorkloadGen.
 *
 * open() sniffs the content (gzip magic, famsim binary magic, else
 * text) and returns the matching backend. Records stream through a
 * fixed-size chunk buffer and the payload rewinds when exhausted, so
 * replay never holds the full trace in memory. The header record
 * count is validated against the actual payload — a truncated file,
 * trailing garbage or a stale count from a writer that crashed before
 * close() all fatal instead of silently replaying a partial stream.
 */
class TraceReader : public WorkloadGen
{
  public:
    /** Open @p path with the backend matching its content. */
    [[nodiscard]] static std::unique_ptr<TraceReader>
    open(const std::string& path);

    MemOpDesc next() final;
    [[nodiscard]] std::vector<std::uint64_t>
    footprintPages() const final
    {
        return footprint_;
    }

    /** Total records in the trace (one replay loop). */
    [[nodiscard]] std::uint64_t size() const { return count_; }
    [[nodiscard]] const std::string& path() const { return path_; }
    [[nodiscard]] TraceFormat format() const { return format_; }

  protected:
    TraceReader(std::string path, TraceFormat format);

    /** Records per streamed chunk (~104 KiB of MemOpDesc). */
    static constexpr std::size_t kChunkRecords = 8192;

    /**
     * Fill @p buf (capacity kChunkRecords) with the next records;
     * @return the number delivered, 0 at end of payload.
     */
    virtual std::size_t refill(std::vector<MemOpDesc>& buf) = 0;
    /** Seek back to the first record (after a 0-record refill). */
    virtual void rewindPayload() = 0;

    std::string path_;
    TraceFormat format_;
    std::uint64_t count_ = 0;
    std::vector<std::uint64_t> footprint_;

  private:
    std::vector<MemOpDesc> buf_;
    std::size_t pos_ = 0;
    std::size_t len_ = 0;
};

/**
 * Pass-through WorkloadGen that records everything the wrapped
 * generator produces — the capture side of scenario self-replay: run
 * any existing scenario with its cores wrapped, and the consumed
 * streams (plus the full synthetic footprint) land in trace files
 * whose replay reproduces the run bit-identically.
 */
class RecordingWorkload : public WorkloadGen
{
  public:
    RecordingWorkload(std::unique_ptr<WorkloadGen> inner,
                      const std::string& path, TraceFormat format);

    MemOpDesc
    next() override
    {
        MemOpDesc op = inner_->next();
        writer_.append(op);
        return op;
    }

    [[nodiscard]] std::vector<std::uint64_t>
    footprintPages() const override
    {
        return inner_->footprintPages();
    }

  private:
    std::unique_ptr<WorkloadGen> inner_;
    TraceWriter writer_;
};

} // namespace famsim

#endif // FAMSIM_WORKLOAD_TRACE_HH
