/**
 * @file
 * Tests for workload trace record/replay: round trips across the
 * binary/text/gzip encodings, streaming chunk behaviour, header
 * validation (truncation, trailing garbage, stale counts, bad
 * versions, corrupt footprint counts), a seeded mutation fuzz of every
 * reader, writer I/O error checking and the scenario-level
 * record -> replay bit-identity contract.
 */

#include <gtest/gtest.h>
#include <zlib.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/trace.hh"

namespace famsim {
namespace {

namespace fs = std::filesystem;

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = fs::temp_directory_path() /
                ("famsim_trace_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        path_ = base_;
        path_ += ".trace";
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(base_, ec);
        for (const char* ext : {".trace", ".txt", ".gz", ".dir"}) {
            fs::path p = base_;
            p += ext;
            fs::remove_all(p, ec);
        }
    }

    /** Sibling path with a different extension. */
    [[nodiscard]] std::string
    pathWithExt(const char* ext) const
    {
        fs::path p = base_;
        p += ext;
        return p.string();
    }

    /** Overwrite one byte of the file at @p offset. */
    void
    patchByte(const std::string& path, std::uint64_t offset,
              unsigned char value) const
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(reinterpret_cast<const char*>(&value), 1);
        ASSERT_TRUE(f.good());
    }

    fs::path base_;
    fs::path path_;
};

void
expectSameOps(const std::vector<MemOpDesc>& expected, TraceReader& reader)
{
    for (std::size_t i = 0; i < expected.size(); ++i) {
        MemOpDesc got = reader.next();
        EXPECT_EQ(got.vaddr, expected[i].vaddr) << "record " << i;
        EXPECT_EQ(got.gap, expected[i].gap) << "record " << i;
        EXPECT_EQ(got.write, expected[i].write) << "record " << i;
        EXPECT_EQ(got.blocking, expected[i].blocking) << "record " << i;
    }
}

std::vector<TraceFormat>
allFormats()
{
    return {TraceFormat::Binary, TraceFormat::Text, TraceFormat::Gzip};
}

std::vector<unsigned char>
readBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string& path, const std::vector<unsigned char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** Write @p bytes to @p path as one gzip stream. */
void
writeGzip(const std::string& path, const std::vector<unsigned char>& bytes)
{
    gzFile gz = gzopen(path.c_str(), "wb");
    ASSERT_NE(gz, nullptr);
    const int written =
        gzwrite(gz, bytes.data(), static_cast<unsigned>(bytes.size()));
    const int rc = gzclose(gz);
    ASSERT_EQ(written, static_cast<int>(bytes.size()));
    ASSERT_EQ(rc, Z_OK);
}

TEST_F(TraceTest, RoundTripsRecordsInEveryFormat)
{
    for (TraceFormat format : allFormats()) {
        SCOPED_TRACE(toString(format));
        StreamGen gen(profiles::byName("mcf"), 0x1000000, 5, 0);
        std::vector<MemOpDesc> recorded;
        {
            TraceWriter writer(path_.string(), format);
            writer.setFootprint(gen.footprintPages());
            recorded = writer.record(gen, 500);
            EXPECT_EQ(writer.written(), 500u);
        }
        auto reader = TraceReader::open(path_.string());
        EXPECT_EQ(reader->size(), 500u);
        EXPECT_EQ(reader->format(), format);
        expectSameOps(recorded, *reader);
    }
}

TEST_F(TraceTest, ReplayLoops)
{
    {
        TraceWriter writer(path_.string());
        MemOpDesc op;
        op.vaddr = 0x1234;
        writer.append(op);
        op.vaddr = 0x5678;
        writer.append(op);
    }
    auto reader = TraceReader::open(path_.string());
    EXPECT_EQ(reader->next().vaddr, 0x1234u);
    EXPECT_EQ(reader->next().vaddr, 0x5678u);
    EXPECT_EQ(reader->next().vaddr, 0x1234u); // wrapped
    EXPECT_EQ(reader->next().vaddr, 0x5678u);
}

TEST_F(TraceTest, StreamsAcrossChunkBoundaries)
{
    // More records than two refill chunks, so replay must cross the
    // chunk boundary and then wrap mid-chunk.
    const std::uint64_t n = 2 * 8192 + 37;
    {
        TraceWriter writer(path_.string());
        MemOpDesc op;
        for (std::uint64_t i = 0; i < n; ++i) {
            op.vaddr = i;
            op.gap = static_cast<unsigned>(i % 7);
            op.write = (i % 3) == 0;
            writer.append(op);
        }
    }
    auto reader = TraceReader::open(path_.string());
    EXPECT_EQ(reader->size(), n);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(reader->next().vaddr, i);
    EXPECT_EQ(reader->next().vaddr, 0u); // wrapped
}

TEST_F(TraceTest, FootprintPreservesWriterOrder)
{
    // Prefault order matters for replay determinism, so the footprint
    // section must round-trip in writer order, not sorted.
    const std::vector<std::uint64_t> pages = {42, 7, 99, 7, 13};
    for (TraceFormat format : allFormats()) {
        SCOPED_TRACE(toString(format));
        {
            TraceWriter writer(path_.string(), format);
            writer.setFootprint(pages);
            MemOpDesc op;
            op.vaddr = 0x1000;
            writer.append(op);
        }
        auto reader = TraceReader::open(path_.string());
        EXPECT_EQ(reader->footprintPages(), pages);
    }
}

TEST_F(TraceTest, FootprintDerivedWhenUnset)
{
    // A writer that never declared a footprint still replays with a
    // usable (sorted, unique) footprint derived from the records.
    for (TraceFormat format : allFormats()) {
        SCOPED_TRACE(toString(format));
        {
            TraceWriter writer(path_.string(), format);
            MemOpDesc op;
            for (std::uint64_t vaddr :
                 {3 * kPageSize + 8, 1 * kPageSize, 3 * kPageSize}) {
                op.vaddr = vaddr;
                writer.append(op);
            }
        }
        auto reader = TraceReader::open(path_.string());
        const std::vector<std::uint64_t> expected = {1, 3};
        EXPECT_EQ(reader->footprintPages(), expected);
    }
}

TEST_F(TraceTest, FootprintMatchesSource)
{
    StreamGen gen(profiles::uniformTest(1 << 20), 0x4000000, 9, 0);
    {
        TraceWriter writer(path_.string());
        writer.setFootprint(gen.footprintPages());
        writer.record(gen, 2000);
    }
    auto reader = TraceReader::open(path_.string());
    EXPECT_EQ(reader->footprintPages(), gen.footprintPages());
}

TEST_F(TraceTest, FormatForPathFollowsExtension)
{
    EXPECT_EQ(traceFormatForPath("a/b/x.trace"), TraceFormat::Binary);
    EXPECT_EQ(traceFormatForPath("x.bin"), TraceFormat::Binary);
    EXPECT_EQ(traceFormatForPath("x.txt"), TraceFormat::Text);
    EXPECT_EQ(traceFormatForPath("x.trace.txt"), TraceFormat::Text);
    EXPECT_EQ(traceFormatForPath("x.gz"), TraceFormat::Gzip);
    EXPECT_EQ(traceFormatForPath("x.trace.gz"), TraceFormat::Gzip);
}

TEST_F(TraceTest, OpenSniffsContentNotExtension)
{
    // A text trace behind a ".trace" name still opens as text, and a
    // binary trace behind ".txt" as binary: open() sniffs bytes.
    MemOpDesc op;
    op.vaddr = 0xabcd;
    {
        TraceWriter writer(path_.string(), TraceFormat::Text);
        writer.append(op);
    }
    auto as_text = TraceReader::open(path_.string());
    EXPECT_EQ(as_text->format(), TraceFormat::Text);
    EXPECT_EQ(as_text->next().vaddr, 0xabcdu);

    {
        TraceWriter writer(pathWithExt(".txt"), TraceFormat::Binary);
        writer.append(op);
    }
    auto as_binary = TraceReader::open(pathWithExt(".txt"));
    EXPECT_EQ(as_binary->format(), TraceFormat::Binary);
    EXPECT_EQ(as_binary->next().vaddr, 0xabcdu);
}

TEST_F(TraceTest, TextAndGzipMatchBinary)
{
    // Same generator, three encodings: the decoded streams must agree
    // record for record (text is the lossy-looking one: decimal
    // serialization must still be exact for 64-bit addresses).
    std::vector<MemOpDesc> ops;
    {
        StreamGen gen(profiles::byName("mcf"), 0x7fff00000000ULL, 11, 3);
        for (int i = 0; i < 1000; ++i)
            ops.push_back(gen.next());
    }
    for (TraceFormat format : allFormats()) {
        SCOPED_TRACE(toString(format));
        {
            TraceWriter writer(path_.string(), format);
            for (const auto& op : ops)
                writer.append(op);
        }
        auto reader = TraceReader::open(path_.string());
        EXPECT_EQ(reader->size(), ops.size());
        expectSameOps(ops, *reader);
    }
}

TEST_F(TraceTest, TextGrammarParsesHexFlagsAndComments)
{
    {
        std::ofstream out(path_);
        out << "# hand-written trace\n"
               "F 16\n"
               "F 2\n"
               "\n"
               "0x10000 3 R\n"
               "65536 0 W B\n"
               "0x2abc 12 W\n"
               "0100 0 R\n"; // decimal despite the leading zero
    }
    auto reader = TraceReader::open(path_.string());
    EXPECT_EQ(reader->format(), TraceFormat::Text);
    EXPECT_EQ(reader->size(), 4u);
    const std::vector<std::uint64_t> footprint = {16, 2};
    EXPECT_EQ(reader->footprintPages(), footprint);

    MemOpDesc op = reader->next();
    EXPECT_EQ(op.vaddr, 0x10000u);
    EXPECT_EQ(op.gap, 3u);
    EXPECT_FALSE(op.write);
    EXPECT_FALSE(op.blocking);
    op = reader->next();
    EXPECT_EQ(op.vaddr, 65536u);
    EXPECT_TRUE(op.write);
    EXPECT_TRUE(op.blocking);
    op = reader->next();
    EXPECT_EQ(op.vaddr, 0x2abcu);
    EXPECT_EQ(op.gap, 12u);
    op = reader->next();
    EXPECT_EQ(op.vaddr, 100u);
    EXPECT_EQ(op.gap, 0u);
    EXPECT_FALSE(op.write);
}

TEST_F(TraceTest, MissingFileFatals)
{
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open("/nonexistent/famsim.trace"),
                 SimError);
}

TEST_F(TraceTest, CorruptMagicFatals)
{
    {
        std::ofstream out(path_);
        out << "not a trace file at all, definitely long enough";
    }
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open(path_.string()), SimError);
}

TEST_F(TraceTest, TruncatedBinaryFatals)
{
    {
        TraceWriter writer(path_.string());
        StreamGen gen(profiles::byName("mcf"), 0x1000000, 5, 0);
        writer.record(gen, 100);
    }
    // Chop the last record short: the header still claims 100 records.
    fs::resize_file(path_, fs::file_size(path_) - 5);
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open(path_.string()), SimError);
}

TEST_F(TraceTest, TrailingGarbageFatals)
{
    {
        TraceWriter writer(path_.string());
        StreamGen gen(profiles::byName("mcf"), 0x1000000, 5, 0);
        writer.record(gen, 100);
    }
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "junk";
    }
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open(path_.string()), SimError);
}

TEST_F(TraceTest, StaleHeaderCountFatals)
{
    // A writer that crashed before close() leaves the placeholder
    // count (0) in the header; the payload bytes are then "trailing"
    // and the reader must refuse rather than replay nothing.
    {
        TraceWriter writer(path_.string());
        StreamGen gen(profiles::byName("mcf"), 0x1000000, 5, 0);
        writer.record(gen, 100);
    }
    for (unsigned char count_lo : {0, 99, 101}) {
        SCOPED_TRACE(static_cast<int>(count_lo));
        patchByte(path_.string(), 12, count_lo); // count u64 LE @12
        ScopedThrowOnError guard;
        EXPECT_THROW(TraceReader::open(path_.string()), SimError);
    }
}

TEST_F(TraceTest, EmptyTraceFatals)
{
    {
        TraceWriter writer(path_.string());
        writer.close();
    }
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open(path_.string()), SimError);
}

TEST_F(TraceTest, UnsupportedVersionFatals)
{
    {
        TraceWriter writer(path_.string());
        MemOpDesc op;
        writer.append(op);
    }
    // '1' is the retired footprint-less layout (DESIGN.md "Trace
    // format" converts it); '9' stands for any future one.
    for (char version : {'1', '9'}) {
        SCOPED_TRACE(version);
        // Version char after the prefix.
        patchByte(path_.string(), 11, static_cast<unsigned char>(version));
        ScopedThrowOnError guard;
        EXPECT_THROW(TraceReader::open(path_.string()), SimError);
    }
}

TEST_F(TraceTest, CorruptFootprintCountFatals)
{
    // The footprint count (u64 LE @20) is a claim. Plain: top byte
    // 0x20 makes 8 * count wrap back to the real section size, so the
    // size check must not multiply. Gzip: 2^40 + 5 pages (8 TiB) must
    // run out of data, not be allocated before any of it is read.
    {
        TraceWriter writer(path_.string());
        writer.setFootprint({1, 2, 3, 4, 5});
        MemOpDesc op;
        op.vaddr = kPageSize;
        writer.append(op);
    }
    std::vector<unsigned char> image = readBytes(path_.string());
    patchByte(path_.string(), 27, 0x20);
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open(path_.string()), SimError);

    image[25] = 0x01; // footprint count 5 + 2^40
    writeGzip(pathWithExt(".gz"), image);
    EXPECT_THROW(TraceReader::open(pathWithExt(".gz")), SimError);
}

TEST_F(TraceTest, CorruptFlagBitsFatal)
{
    {
        TraceWriter writer(path_.string());
        writer.setFootprint({1});
        MemOpDesc op;
        op.vaddr = kPageSize;
        writer.append(op);
    }
    // Flags byte of the only record is the last byte of the file.
    patchByte(path_.string(), fs::file_size(path_) - 1, 0xff);
    auto reader = TraceReader::open(path_.string());
    ScopedThrowOnError guard;
    EXPECT_THROW(reader->next(), SimError);
}

TEST_F(TraceTest, TextBadLineFatals)
{
    // Numbers are `[0-9]+` or `0x[0-9a-fA-F]+`, so a signed number
    // is a malformed line like any other.
    for (const char* bad : {"0x2000 zero W", "-1 0 R", "+5 0 R"}) {
        SCOPED_TRACE(bad);
        {
            std::ofstream out(path_);
            out << "# famsim-trace text v1\n"
                   "0x1000 0 R\n"
                << bad << "\n"; // line 3
        }
        ScopedThrowOnError guard;
        try {
            (void)TraceReader::open(path_.string());
            ADD_FAILURE() << "expected SimError";
        } catch (const SimError& e) {
            EXPECT_NE(std::string(e.what()).find("line 3"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(TraceTest, GzipTruncatedFatals)
{
    {
        TraceWriter writer(path_.string(), TraceFormat::Gzip);
        StreamGen gen(profiles::byName("mcf"), 0x1000000, 5, 0);
        writer.record(gen, 200);
    }
    // Cut mid-deflate-stream (chopping only the 8-byte gzip trailer
    // can still inflate completely); the open-time validation scan
    // must hit the short read.
    fs::resize_file(path_, fs::file_size(path_) / 2);
    ScopedThrowOnError guard;
    EXPECT_THROW(TraceReader::open(path_.string()), SimError);
}

TEST_F(TraceTest, MutatedTracesReadOrFatalCleanly)
{
    // Seeded mutants of a valid trace in every encoding: each must
    // replay one full loop plus one record (crossing the rewind) or
    // fatal cleanly. Any other exception (bad_alloc or length_error
    // from a corrupt count, ...) is a reader bug.
    Rng rng(0x7ace, 5);
    std::vector<MemOpDesc> ops(64);
    for (MemOpDesc& op : ops) {
        op.vaddr = rng.next64() >> 16;
        op.gap = rng.below(1000);
        op.write = rng.below(2) == 1;
        op.blocking = rng.below(4) == 0;
    }
    std::vector<std::uint64_t> footprint;
    for (std::size_t i = 0; i < 5; ++i)
        footprint.push_back(ops[i].vaddr / kPageSize);

    const std::vector<TraceFormat> formats = allFormats();
    std::vector<std::vector<unsigned char>> originals;
    for (TraceFormat format : formats) {
        TraceWriter writer(path_.string(), format);
        writer.setFootprint(footprint);
        for (const MemOpDesc& op : ops)
            writer.append(op);
        writer.close();
        originals.push_back(readBytes(path_.string()));
    }
    // A gzip stream decompresses to the plain binary file (formats[0]),
    // so a gzip header edit patches that image and re-compresses it.
    const std::vector<unsigned char>& plain = originals[0];
    constexpr std::uint32_t kHeaderBytes = 28;
    constexpr int kMutantsPerFormat = 500;
    const char* const kKinds[] = {"byte flip", "truncation",
                                  "header edit"};

    ScopedThrowOnError guard;
    for (std::size_t f = 0; f < formats.size(); ++f) {
        const TraceFormat format = formats[f];
        for (int i = 0; i < kMutantsPerFormat; ++i) {
            const int kind = i % 3;
            const bool regzip = kind == 2 && format == TraceFormat::Gzip;
            std::vector<unsigned char> bytes = regzip ? plain : originals[f];
            const auto size = static_cast<std::uint32_t>(bytes.size());
            if (kind == 0) {
                bytes[rng.below(size)] ^=
                    static_cast<unsigned char>(1 + rng.below(255));
            } else if (kind == 1) {
                bytes.resize(rng.below(size));
            } else {
                bytes[rng.below(kHeaderBytes)] =
                    static_cast<unsigned char>(rng.below(256));
            }
            if (regzip)
                writeGzip(path_.string(), bytes);
            else
                writeBytes(path_.string(), bytes);

            try {
                auto reader = TraceReader::open(path_.string());
                for (std::uint64_t r = 0; r <= reader->size(); ++r)
                    (void)reader->next();
            } catch (const SimError&) {
                // A clean fatal.
            } catch (const std::exception& e) {
                ADD_FAILURE() << toString(format) << " mutant " << i
                              << " (" << kKinds[kind] << "): " << e.what();
            }
        }
    }
}

TEST_F(TraceTest, WriteErrorFatalsInsteadOfReportingSuccess)
{
    // /dev/full returns ENOSPC on write: the writer must fatal, not
    // close "successfully" over a truncated trace.
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    ScopedThrowOnError guard;
    EXPECT_THROW(
        {
            TraceWriter writer("/dev/full", TraceFormat::Binary);
            MemOpDesc op;
            for (int i = 0; i < 100000; ++i)
                writer.append(op);
            writer.close();
        },
        SimError);
}

TEST_F(TraceTest, FootprintAfterFirstAppendAsserts)
{
    TraceWriter writer(path_.string());
    MemOpDesc op;
    writer.append(op);
    ScopedThrowOnError guard;
    EXPECT_THROW(writer.setFootprint({1}), SimError);
}

TEST_F(TraceTest, RecordingWorkloadIsTransparent)
{
    // The wrapper must hand through the exact stream and footprint of
    // the inner generator, and the trace it leaves behind must replay
    // the consumed prefix.
    const StreamProfile profile = profiles::byName("mcf");
    StreamGen reference(profile, 0x1000000, 21, 2);
    std::vector<MemOpDesc> expected;
    for (int i = 0; i < 300; ++i)
        expected.push_back(reference.next());

    {
        RecordingWorkload recording(
            std::make_unique<StreamGen>(profile, 0x1000000, 21, 2),
            path_.string(), TraceFormat::Binary);
        EXPECT_EQ(recording.footprintPages(),
                  reference.footprintPages());
        for (int i = 0; i < 300; ++i) {
            MemOpDesc got = recording.next();
            EXPECT_EQ(got.vaddr, expected[i].vaddr);
            EXPECT_EQ(got.gap, expected[i].gap);
        }
    }
    auto reader = TraceReader::open(path_.string());
    EXPECT_EQ(reader->size(), 300u);
    EXPECT_EQ(reader->footprintPages(), reference.footprintPages());
    expectSameOps(expected, *reader);
}

TEST_F(TraceTest, ScenarioRecordReplayRoundTripsBitIdentically)
{
    // The acceptance contract of the trace frontend: running a
    // scenario, recording it, and replaying the recording all export
    // byte-identical stats JSON.
    Scenario scenario;
    scenario.name = "test.trace_roundtrip";
    scenario.figure = "test";
    scenario.headlineMetric = "ipc";
    scenario.config = makeConfig(profiles::uniformTest(4ull << 20),
                                 ArchKind::DeactN, 4000);
    scenario.config.nodes = 1;
    scenario.config.coresPerNode = 2;
    scenario.config.seed = 3;

    const std::string dir = pathWithExt(".dir");
    const std::string synthetic = runScenarioJson(scenario);
    const std::string recorded = recordScenarioTraces(scenario, dir);
    const std::string replayed = replayScenarioJson(scenario, dir);
    EXPECT_EQ(synthetic, recorded);
    EXPECT_EQ(synthetic, replayed);

    // The text round trip must be exact too (decimal serialization).
    const std::string text_dir = pathWithExt(".txtdir");
    const std::string recorded_text =
        recordScenarioTraces(scenario, text_dir, TraceFormat::Text);
    const std::string replayed_text =
        replayScenarioJson(scenario, text_dir);
    EXPECT_EQ(synthetic, recorded_text);
    EXPECT_EQ(synthetic, replayed_text);
    std::error_code ec;
    fs::remove_all(text_dir, ec);
}

} // namespace
} // namespace famsim
