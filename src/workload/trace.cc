#include "workload/trace.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include <zlib.h>

#include "sim/logging.hh"

namespace famsim {
namespace {

// Binary layout (DESIGN.md "Trace format"): 11-byte magic prefix plus
// one version character, so future layouts stay distinguishable.
constexpr char kMagicPrefix[11] = {'F', 'A', 'M', 'S', 'I', 'M',
                                   'T', 'R', 'A', 'C', 'E'};
constexpr char kVersion = '2';
constexpr std::size_t kMagicSize = sizeof(kMagicPrefix) + 1;
constexpr std::size_t kHeaderSize = kMagicSize + 16;
constexpr std::size_t kRecordSize = 13; // u64 vaddr + u32 gap + u8 flags

constexpr std::uint8_t kFlagWrite = 1;
constexpr std::uint8_t kFlagBlocking = 2;
constexpr std::uint8_t kKnownFlags = kFlagWrite | kFlagBlocking;

/** Header {magic, version, u64 record count, u64 footprint count}. */
void
encodeHeader(std::uint64_t count, std::uint64_t footprint_count,
             unsigned char* out)
{
    std::memcpy(out, kMagicPrefix, sizeof(kMagicPrefix));
    out[sizeof(kMagicPrefix)] = kVersion;
    std::memcpy(out + kMagicSize, &count, 8);
    std::memcpy(out + kMagicSize + 8, &footprint_count, 8);
}

void
encodeRecord(const MemOpDesc& op, unsigned char* out)
{
    std::uint64_t vaddr = op.vaddr;
    std::uint32_t gap = op.gap;
    std::uint8_t flags =
        static_cast<std::uint8_t>((op.write ? kFlagWrite : 0) |
                                  (op.blocking ? kFlagBlocking : 0));
    std::memcpy(out, &vaddr, 8);
    std::memcpy(out + 8, &gap, 4);
    out[12] = flags;
}

MemOpDesc
decodeRecord(const unsigned char* in, const std::string& path,
             std::uint64_t index)
{
    MemOpDesc op;
    std::uint64_t vaddr = 0;
    std::uint32_t gap = 0;
    std::memcpy(&vaddr, in, 8);
    std::memcpy(&gap, in + 8, 4);
    std::uint8_t flags = in[12];
    if ((flags & ~kKnownFlags) != 0) {
        FAMSIM_FATAL("trace '", path, "' record ", index,
                     " has unknown flag bits ", unsigned(flags),
                     " (corrupt file?)");
    }
    op.vaddr = vaddr;
    op.gap = gap;
    op.write = (flags & kFlagWrite) != 0;
    op.blocking = (flags & kFlagBlocking) != 0;
    return op;
}

void
writeU64(std::ofstream& out, std::uint64_t value)
{
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/** Format one op as a text-trace line. */
std::string
textLine(const MemOpDesc& op)
{
    std::ostringstream os;
    os << "0x" << std::hex << op.vaddr << std::dec << " " << op.gap
       << " " << (op.write ? 'W' : 'R');
    if (op.blocking)
        os << " B";
    os << "\n";
    return os.str();
}

/** Parse `[0-9]+` (decimal) or `0x[0-9a-fA-F]+` (hex) into a u64. */
bool
parseU64Token(const std::string& token, std::uint64_t& out)
{
    const bool hex = token.size() > 2 && token.compare(0, 2, "0x") == 0;
    const char* first = token.data() + (hex ? 2 : 0);
    const char* last = token.data() + token.size();
    // from_chars takes no sign, whitespace or prefix, so the whole
    // token must be digits of the chosen base.
    const auto [end, ec] = std::from_chars(first, last, out, hex ? 16 : 10);
    return ec == std::errc() && end == last;
}

} // namespace

TraceFormat
traceFormatForPath(const std::string& path)
{
    auto ends_with = [&](const char* suffix) {
        std::size_t n = std::strlen(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    if (ends_with(".gz"))
        return TraceFormat::Gzip;
    if (ends_with(".txt"))
        return TraceFormat::Text;
    return TraceFormat::Binary;
}

// ===================================================== TraceWriter ==

/**
 * Backend interface: every write is checked so a failed or partial
 * write (disk full, I/O error) fatals instead of leaving a silently
 * truncated file behind a "recorded N ops" success message.
 */
struct TraceWriter::Impl {
    virtual ~Impl() = default;
    virtual void footprint(const std::vector<std::uint64_t>& pages) = 0;
    virtual void append(const MemOpDesc& op) = 0;
    virtual void close(std::uint64_t count) = 0;
};

namespace {

class BinaryWriterImpl final : public TraceWriter::Impl
{
  public:
    explicit BinaryWriterImpl(const std::string& path)
        : path_(path), out_(path, std::ios::binary | std::ios::trunc)
    {
        if (!out_) {
            FAMSIM_FATAL("cannot open trace file '", path,
                         "' for writing");
        }
        writeHeader(0, 0);
        check("header write");
    }

    void
    footprint(const std::vector<std::uint64_t>& pages) override
    {
        footprintCount_ = pages.size();
        for (std::uint64_t page : pages)
            writeU64(out_, page);
        check("footprint write");
    }

    void
    append(const MemOpDesc& op) override
    {
        unsigned char rec[kRecordSize];
        encodeRecord(op, rec);
        out_.write(reinterpret_cast<const char*>(rec), sizeof(rec));
        check("record write");
    }

    void
    close(std::uint64_t count) override
    {
        out_.seekp(0);
        writeHeader(count, footprintCount_);
        out_.flush();
        check("close");
        out_.close();
        check("close");
    }

  private:
    void
    writeHeader(std::uint64_t count, std::uint64_t footprint_count)
    {
        unsigned char header[kHeaderSize];
        encodeHeader(count, footprint_count, header);
        out_.write(reinterpret_cast<const char*>(header), sizeof(header));
    }

    void
    check(const char* what)
    {
        if (!out_) {
            FAMSIM_FATAL("trace ", what, " to '", path_,
                         "' failed (disk full?)");
        }
    }

    std::string path_;
    std::ofstream out_;
    std::uint64_t footprintCount_ = 0;
};

class TextWriterImpl final : public TraceWriter::Impl
{
  public:
    explicit TextWriterImpl(const std::string& path)
        : path_(path), out_(path, std::ios::trunc)
    {
        if (!out_) {
            FAMSIM_FATAL("cannot open trace file '", path,
                         "' for writing");
        }
        out_ << "# famsim-trace text v1\n";
        check("header write");
    }

    void
    footprint(const std::vector<std::uint64_t>& pages) override
    {
        for (std::uint64_t page : pages)
            out_ << "F 0x" << std::hex << page << std::dec << "\n";
        check("footprint write");
    }

    void
    append(const MemOpDesc& op) override
    {
        out_ << textLine(op);
        check("record write");
    }

    void
    close(std::uint64_t) override
    {
        out_.flush();
        check("close");
        out_.close();
        check("close");
    }

  private:
    void
    check(const char* what)
    {
        if (!out_) {
            FAMSIM_FATAL("trace ", what, " to '", path_,
                         "' failed (disk full?)");
        }
    }

    std::string path_;
    std::ofstream out_;
};

/**
 * Owning wrapper for a zlib gzFile. The binary reader's constructor
 * can FATAL after gzopen (bad magic, truncation, ...),
 * and under ScopedThrowOnError that throw skips the half-constructed
 * object's destructor — but member destructors still run, so holding
 * the handle here instead of in a raw gzFile closes it on every path.
 */
struct GzHandle
{
    gzFile gz = nullptr;

    GzHandle() = default;
    GzHandle(const GzHandle&) = delete;
    GzHandle& operator=(const GzHandle&) = delete;
    ~GzHandle() { close(); }

    int
    close()
    {
        if (gz == nullptr)
            return Z_OK;
        int rc = gzclose(gz);
        gz = nullptr;
        return rc;
    }
};

/**
 * Gzip cannot seek back to patch the record count into the header, so
 * this backend buffers the records and emits the whole stream at
 * close() — the writer-side memory cost of a compressed capture.
 */
class GzipWriterImpl final : public TraceWriter::Impl
{
  public:
    explicit GzipWriterImpl(const std::string& path) : path_(path)
    {
        gz_.gz = gzopen(path.c_str(), "wb");
        if (gz_.gz == nullptr) {
            FAMSIM_FATAL("cannot open trace file '", path,
                         "' for writing");
        }
    }

    void
    footprint(const std::vector<std::uint64_t>& pages) override
    {
        footprint_ = pages;
    }

    void
    append(const MemOpDesc& op) override
    {
        records_.resize(records_.size() + kRecordSize);
        encodeRecord(op, records_.data() + records_.size() - kRecordSize);
    }

    void
    close(std::uint64_t count) override
    {
        unsigned char header[kHeaderSize];
        encodeHeader(count, footprint_.size(), header);
        write(header, sizeof(header));
        if (!footprint_.empty()) {
            write(footprint_.data(),
                  footprint_.size() * sizeof(std::uint64_t));
        }
        if (!records_.empty())
            write(records_.data(), records_.size());
        int rc = gz_.close();
        if (rc != Z_OK) {
            FAMSIM_FATAL("trace close of '", path_, "' failed (gzip rc ",
                         rc, ", disk full?)");
        }
    }

  private:
    void
    write(const void* data, std::size_t bytes)
    {
        // gzwrite takes an unsigned chunk length; split giant buffers.
        const auto* p = static_cast<const unsigned char*>(data);
        while (bytes > 0) {
            unsigned chunk = static_cast<unsigned>(
                std::min<std::size_t>(bytes, 1u << 30));
            if (gzwrite(gz_.gz, p, chunk) != static_cast<int>(chunk)) {
                FAMSIM_FATAL("trace write to '", path_,
                             "' failed (disk full?)");
            }
            p += chunk;
            bytes -= chunk;
        }
    }

    std::string path_;
    GzHandle gz_;
    std::vector<std::uint64_t> footprint_;
    std::vector<unsigned char> records_;
};

std::unique_ptr<TraceWriter::Impl>
makeWriterImpl(const std::string& path, TraceFormat format)
{
    switch (format) {
      case TraceFormat::Binary:
        return std::make_unique<BinaryWriterImpl>(path);
      case TraceFormat::Text:
        return std::make_unique<TextWriterImpl>(path);
      case TraceFormat::Gzip:
        return std::make_unique<GzipWriterImpl>(path);
    }
    FAMSIM_PANIC("unreachable trace format");
}

} // namespace

TraceWriter::TraceWriter(const std::string& path)
    : TraceWriter(path, traceFormatForPath(path))
{
}

TraceWriter::TraceWriter(const std::string& path, TraceFormat format)
    : impl_(makeWriterImpl(path, format)), format_(format)
{
}

TraceWriter::~TraceWriter()
{
    // close() fatals on I/O errors; when an earlier write already
    // fataled (throwing under ScopedThrowOnError) a second fatal
    // during unwinding would terminate, so skip the implicit close.
    if (std::uncaught_exceptions() == 0)
        close();
}

void
TraceWriter::setFootprint(const std::vector<std::uint64_t>& pages)
{
    FAMSIM_ASSERT(!closed_, "footprint on a closed trace");
    FAMSIM_ASSERT(!appended_,
                  "trace footprint must be set before the first record");
    impl_->footprint(pages);
}

void
TraceWriter::append(const MemOpDesc& op)
{
    FAMSIM_ASSERT(!closed_, "append to a closed trace");
    appended_ = true;
    impl_->append(op);
    ++count_;
}

std::vector<MemOpDesc>
TraceWriter::record(WorkloadGen& source, std::uint64_t count)
{
    std::vector<MemOpDesc> ops;
    ops.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        ops.push_back(source.next());
        append(ops.back());
    }
    return ops;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    impl_->close(count_);
}

// ===================================================== TraceReader ==

TraceReader::TraceReader(std::string path, TraceFormat format)
    : path_(std::move(path)), format_(format)
{
    buf_.resize(kChunkRecords);
}

MemOpDesc
TraceReader::next()
{
    if (pos_ == len_) {
        len_ = refill(buf_);
        if (len_ == 0) {
            rewindPayload();
            len_ = refill(buf_);
            FAMSIM_ASSERT(len_ > 0,
                          "trace '", path_, "' rewind produced no records");
        }
        pos_ = 0;
    }
    return buf_[pos_++];
}

namespace {

/** Sorted-unique footprint for formats that don't carry one. */
std::vector<std::uint64_t>
derivedFootprint(const std::set<std::uint64_t>& pages)
{
    return {pages.begin(), pages.end()};
}

/**
 * The binary decoder, for plain and gzip files alike. zlib passes a
 * plain file through unchanged (gzdirect), so one header parser, one
 * record loop and one gzseek rewind serve both encodings; only the
 * open-time validation differs (see the constructor).
 */
class BinaryReaderImpl final : public TraceReader
{
  public:
    BinaryReaderImpl(const std::string& path, TraceFormat format)
        : TraceReader(path, format)
    {
        gz_.gz = gzopen(path.c_str(), "rb");
        if (gz_.gz == nullptr)
            FAMSIM_FATAL("cannot open trace file '", path, "'");

        char magic[kMagicSize];
        readExact(magic, sizeof(magic), "header");
        if (std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) != 0)
            FAMSIM_FATAL("'", path, "' is not a famsim trace");
        const char version = magic[kMagicSize - 1];
        if (version != kVersion) {
            FAMSIM_FATAL("trace '", path, "' has unsupported version '",
                         std::string(1, version), "' (this famsim reads "
                         "version 2; DESIGN.md \"Trace format\" shows how "
                         "to convert a version 1 file)");
        }
        std::uint64_t footprint_count = 0;
        readExact(&count_, 8, "header");
        readExact(&footprint_count, 8, "header");

        // The header counts are claims, not facts: a writer that died
        // before close() leaves the placeholder (0) with records on
        // disk, and a corrupted or concatenated file carries trailing
        // bytes. A plain file is checked against its size up front; a
        // compressed stream cannot be, so it gets one streaming pass
        // that decodes every record and then probes for trailing
        // bytes. The same pass derives the footprint of a trace
        // written without one.
        if (format == TraceFormat::Binary)
            checkFileSize(footprint_count);
        readFootprint(footprint_count);
        payloadStart_ = kHeaderSize + footprint_count * 8;
        const bool derive = footprint_.empty();
        if (format == TraceFormat::Gzip || derive) {
            std::set<std::uint64_t> pages;
            std::vector<MemOpDesc> chunk(kChunkRecords);
            remaining_ = count_;
            for (std::size_t n = 0; (n = refill(chunk)) > 0;) {
                if (derive) {
                    for (std::size_t i = 0; i < n; ++i)
                        pages.insert(chunk[i].vaddr / kPageSize);
                }
            }
            unsigned char probe = 0;
            if (gzread(gz_.gz, &probe, 1) > 0)
                trailingBytesFatal();
            if (derive)
                footprint_ = derivedFootprint(pages);
        }
        if (count_ == 0)
            FAMSIM_FATAL("trace '", path, "' contains no records");
        rewindPayload();
    }

  protected:
    std::size_t
    refill(std::vector<MemOpDesc>& buf) override
    {
        const std::size_t want =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                remaining_, buf.size()));
        if (want == 0)
            return 0;
        raw_.resize(want * kRecordSize);
        readExact(raw_.data(), raw_.size(), "payload");
        const std::uint64_t base = count_ - remaining_;
        for (std::size_t i = 0; i < want; ++i) {
            buf[i] = decodeRecord(raw_.data() + i * kRecordSize, path_,
                                  base + i);
        }
        remaining_ -= want;
        return want;
    }

    void
    rewindPayload() override
    {
        if (gzseek(gz_.gz, static_cast<z_off_t>(payloadStart_), SEEK_SET) < 0)
            FAMSIM_FATAL("trace '", path_, "' rewind failed");
        remaining_ = count_;
    }

  private:
    /**
     * A plain file must hold exactly what its header implies. Compare
     * by division, so a corrupt count cannot wrap header + 8F + 13N
     * around to the real size.
     */
    void
    checkFileSize(std::uint64_t footprint_count) const
    {
        std::error_code ec;
        const std::uint64_t file_size =
            std::filesystem::file_size(path_, ec);
        if (ec)
            FAMSIM_FATAL("cannot stat trace '", path_, "': ", ec.message());
        const std::uint64_t body =
            file_size - std::min<std::uint64_t>(file_size, kHeaderSize);
        if (footprint_count > body / 8 ||
            count_ > (body - footprint_count * 8) / kRecordSize) {
            FAMSIM_FATAL("trace '", path_, "' truncated: header claims ",
                         footprint_count, " footprint pages and ", count_,
                         " records but the file holds ", file_size,
                         " bytes");
        }
        if (body != footprint_count * 8 + count_ * kRecordSize)
            trailingBytesFatal();
    }

    /**
     * Read the footprint section a chunk at a time, so a corrupt count
     * fails at the end of the data instead of allocating its claim.
     */
    void
    readFootprint(std::uint64_t footprint_count)
    {
        for (std::uint64_t left = footprint_count; left > 0;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, kChunkRecords));
            footprint_.resize(footprint_.size() + n);
            readExact(footprint_.data() + footprint_.size() - n, n * 8,
                      "footprint");
            left -= n;
        }
    }

    /** Read exactly @p bytes (at most one chunk) or fatal. */
    void
    readExact(void* out, std::size_t bytes, const char* what)
    {
        // gzread returns short only at end of stream or on an error.
        const int got = gzread(gz_.gz, out, static_cast<unsigned>(bytes));
        if (got == static_cast<int>(bytes))
            return;
        int errnum = Z_OK;
        const char* msg = gzerror(gz_.gz, &errnum);
        if (errnum != Z_OK && errnum != Z_STREAM_END) {
            FAMSIM_FATAL("trace '", path_, "' ", what, " read failed: ",
                         msg);
        }
        FAMSIM_FATAL("trace '", path_, "' truncated in the ", what);
    }

    [[noreturn]] void
    trailingBytesFatal() const
    {
        FAMSIM_FATAL("trace '", path_, "' has trailing bytes beyond the ",
                     count_, " records its header claims (stale header "
                     "from a crashed writer, or a corrupt file)");
    }

    GzHandle gz_;
    std::uint64_t payloadStart_ = 0;
    std::uint64_t remaining_ = 0;
    std::vector<unsigned char> raw_;
};

class TextReaderImpl final : public TraceReader
{
  public:
    explicit TextReaderImpl(const std::string& path)
        : TraceReader(path, TraceFormat::Text), in_(path)
    {
        if (!in_)
            FAMSIM_FATAL("cannot open trace file '", path, "'");

        // Validation pass: parse every line once, counting records and
        // collecting the footprint (explicit F lines in file order, or
        // derived from the ops when absent), then rewind for replay.
        std::set<std::uint64_t> derived;
        MemOpDesc op;
        bool is_footprint = false;
        std::uint64_t page = 0;
        std::string line;
        while (std::getline(in_, line)) {
            ++lineNo_;
            if (!parseLine(line, op, is_footprint, page))
                continue; // comment / blank
            if (is_footprint)
                footprint_.push_back(page);
            else {
                ++count_;
                derived.insert(op.vaddr / kPageSize);
            }
        }
        if (count_ == 0)
            FAMSIM_FATAL("trace '", path, "' contains no records");
        if (footprint_.empty())
            footprint_ = derivedFootprint(derived);
        rewindPayload();
    }

  protected:
    std::size_t
    refill(std::vector<MemOpDesc>& buf) override
    {
        std::size_t n = 0;
        std::string line;
        MemOpDesc op;
        bool is_footprint = false;
        std::uint64_t page = 0;
        while (n < buf.size() && std::getline(in_, line)) {
            ++lineNo_;
            if (!parseLine(line, op, is_footprint, page) || is_footprint)
                continue;
            buf[n++] = op;
        }
        return n;
    }

    void
    rewindPayload() override
    {
        in_.clear();
        in_.seekg(0);
        if (!in_)
            FAMSIM_FATAL("trace '", path_, "' rewind failed");
        lineNo_ = 0;
    }

  private:
    /**
     * Grammar (DESIGN.md "Trace format"): blank lines and lines
     * starting with '#' are ignored; `F <page>` declares a footprint
     * page; `<vaddr> <gap> R|W [B]` is one record. Numbers are
     * decimal or 0x-prefixed hex.
     */
    bool
    parseLine(const std::string& line, MemOpDesc& op,
              bool& is_footprint, std::uint64_t& page)
    {
        std::istringstream is(line);
        std::string tok[4];
        int n = 0;
        while (n < 4 && (is >> tok[n]))
            ++n;
        std::string extra;
        if (n == 4 && (is >> extra))
            bad("trailing tokens");
        if (n == 0 || tok[0][0] == '#')
            return false;
        if (tok[0] == "F") {
            if (n != 2 || !parseU64Token(tok[1], page))
                bad("footprint line must be 'F <page>'");
            is_footprint = true;
            return true;
        }
        is_footprint = false;
        std::uint64_t gap = 0;
        if (n < 3 || !parseU64Token(tok[0], op.vaddr) ||
            !parseU64Token(tok[1], gap) ||
            gap > std::numeric_limits<std::uint32_t>::max())
            bad("record line must be '<vaddr> <gap> R|W [B]'");
        op.gap = static_cast<unsigned>(gap);
        if (tok[2] == "R")
            op.write = false;
        else if (tok[2] == "W")
            op.write = true;
        else
            bad("op must be R or W");
        op.blocking = false;
        if (n == 4) {
            if (tok[3] != "B")
                bad("trailing token must be B");
            op.blocking = true;
        }
        return true;
    }

    [[noreturn]] void
    bad(const char* why)
    {
        FAMSIM_FATAL("trace '", path_, "' line ", lineNo_, ": ", why);
    }

    std::ifstream in_;
    std::uint64_t lineNo_ = 0;
};

} // namespace

std::unique_ptr<TraceReader>
TraceReader::open(const std::string& path)
{
    // Sniff the content, prospero-style, instead of trusting the
    // extension: gzip magic, then the famsim binary magic, else text.
    unsigned char head[2] = {0, 0};
    std::size_t got = 0;
    {
        std::ifstream probe(path, std::ios::binary);
        if (!probe)
            FAMSIM_FATAL("cannot open trace file '", path, "'");
        probe.read(reinterpret_cast<char*>(head), sizeof(head));
        got = static_cast<std::size_t>(probe.gcount());
    }
    if (got == 2 && head[0] == 0x1f && head[1] == 0x8b)
        return std::make_unique<BinaryReaderImpl>(path, TraceFormat::Gzip);
    if (got == 2 && head[0] == kMagicPrefix[0] && head[1] == kMagicPrefix[1])
        return std::make_unique<BinaryReaderImpl>(path, TraceFormat::Binary);
    return std::make_unique<TextReaderImpl>(path);
}

// ============================================== RecordingWorkload ==

RecordingWorkload::RecordingWorkload(std::unique_ptr<WorkloadGen> inner,
                                     const std::string& path,
                                     TraceFormat format)
    : inner_(std::move(inner)), writer_(path, format)
{
    // Record the generator's *full* reachable footprint, not just the
    // pages the recorded prefix happens to touch: replay prefaults
    // exactly what the original run prefaulted, which is what makes
    // the round trip bit-identical.
    writer_.setFootprint(inner_->footprintPages());
}

} // namespace famsim
