/**
 * @file
 * The streamed checkpoint path: the folded CRC against slice-by-8,
 * the pinned bytes of a fixed Trainer state's checkpoint, streamed
 * round trips across the staging-buffer boundary, and the two
 * corrupt-length regressions (a flipped high bit in the header's
 * size, an inflated tensor rank) that must come back as typed errors.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint_rig.h"

namespace bertprof {
namespace {

namespace fs = std::filesystem;
using testing::CheckpointRig;
using testing::fixUpHeader;
using testing::kHeaderSizeAt;
using testing::kPayloadAt;
using testing::readBytes;
using testing::writeBytes;

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "bp_stream_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> buf(n);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.uniformInt(0, 255));
    return buf;
}

// --------------------------------------------------------------------
// CRC-32: the PCLMULQDQ fold against slice-by-8
// --------------------------------------------------------------------

TEST(Crc32Fold, MatchesSliceBy8AtEveryLengthAndAlignment)
{
    // On a CPU without PCLMULQDQ both sides run slice-by-8.
    const std::vector<unsigned char> buf = randomBytes(4100 + 16, 27);
    for (std::size_t len = 0; len <= 4100; ++len) {
        for (std::size_t start = 0; start < 16; ++start) {
            const auto seed = static_cast<std::uint32_t>(
                len * 0x9E3779B1u + start);
            ASSERT_EQ(crc32(buf.data() + start, len, seed),
                      crc32SliceBy8(buf.data() + start, len, seed))
                << "len=" << len << " start=" << start;
        }
    }
}

TEST(Crc32Fold, ChainedSeedsMatchOneCall)
{
    const std::vector<unsigned char> buf = randomBytes(3 << 20, 28);
    const std::uint32_t whole = crc32SliceBy8(buf.data(), buf.size());
    EXPECT_EQ(crc32(buf.data(), buf.size()), whole);
    Rng rng(29);
    for (int trial = 0; trial < 20; ++trial) {
        std::uint32_t chained = 0;
        std::size_t at = 0;
        while (at < buf.size()) {
            const auto n = std::min<std::size_t>(
                buf.size() - at,
                static_cast<std::size_t>(rng.uniformInt(0, 300000)));
            chained = crc32(buf.data() + at, n, chained);
            at += n;
        }
        ASSERT_EQ(chained, whole) << "trial " << trial;
    }
}

// --------------------------------------------------------------------
// The format, pinned
// --------------------------------------------------------------------

TEST(CheckpointFormat, FixedTrainerStateHasGoldenSizeAndCrc)
{
    // Iteration 0 of the nano model: parameters from a seeded
    // initializer, no optimizer moments yet, and both RNG streams.
    // Any change to the field encoding, the field order or the
    // container moves these two numbers.
    const std::string dir = freshDir("golden");
    CheckpointRig rig(testing::nanoCheckpointConfig(), dir);
    ASSERT_TRUE(rig.trainer.saveCheckpoint().ok());
    const std::string file = readBytes(dir + "/ckpt-0.bpck");
    std::uint32_t header_crc = 0;
    std::memcpy(&header_crc, file.data() + testing::kHeaderCrcAt, 4);
    EXPECT_EQ(file.size(), 33296u);
    EXPECT_EQ(header_crc, 0xE4CF8139u);
    EXPECT_EQ(crc32SliceBy8(file.data() + kPayloadAt,
                            file.size() - kPayloadAt),
              header_crc);
}

TEST(CheckpointFormat, StreamedPayloadEqualsTheInMemoryEncoding)
{
    // Tensors below, at and above the staging size, with small fields
    // between them, so every path of the staged writer and reader
    // runs: staged, flushed-then-staged, and straight through.
    const std::vector<std::int64_t> sizes = {
        3, static_cast<std::int64_t>(kStagingBytes / 4) - 1,
        static_cast<std::int64_t>(kStagingBytes / 4),
        static_cast<std::int64_t>(kStagingBytes / 4) * 5 / 2, 7};
    std::vector<Tensor> tensors;
    Rng rng(31);
    for (const std::int64_t n : sizes) {
        tensors.emplace_back(Shape({n}));
        for (std::int64_t i = 0; i < n; ++i)
            tensors.back().at(i) = static_cast<float>(rng.uniformInt(-99, 99));
    }
    const auto emit = [&](StateWriter &w) {
        for (std::size_t i = 0; i < tensors.size(); ++i) {
            w.i64("index", static_cast<std::int64_t>(i));
            w.str("label", std::string(i * 3, 'q'));
            w.tensor("t", tensors[i]);
            w.f64("after", 0.25 * static_cast<double>(i));
        }
    };
    StateWriter memory;
    emit(memory);

    CheckpointManagerOptions opt;
    opt.dir = freshDir("straddle");
    CheckpointManager mgr(opt);
    ASSERT_TRUE(mgr.save(1, [&](BinaryWriter &out) {
                       StateWriter w(out);
                       emit(w);
                   }).ok());
    EXPECT_EQ(readBytes(mgr.pathForStep(1)).substr(kPayloadAt),
              memory.payload());

    std::int64_t step = 0;
    const IoStatus loaded = mgr.loadLatest(
        [&](BinaryReader &in, std::int64_t) {
            StateReader r(in);
            for (std::size_t i = 0; i < tensors.size(); ++i) {
                std::int64_t index = -1;
                std::string label;
                Tensor t(tensors[i].shape());
                double after = 0.0;
                if (!r.i64("index", index) || !r.str("label", label) ||
                    !r.tensor("t", t) || !r.f64("after", after))
                    return r.status();
                EXPECT_EQ(index, static_cast<std::int64_t>(i));
                EXPECT_EQ(label, std::string(i * 3, 'q'));
                EXPECT_EQ(std::memcmp(t.data(), tensors[i].data(),
                                      static_cast<std::size_t>(t.numel()) *
                                          sizeof(float)),
                          0);
                EXPECT_EQ(after, 0.25 * static_cast<double>(i));
            }
            EXPECT_EQ(in.remaining(), 0u);
            return r.status();
        },
        step);
    ASSERT_TRUE(loaded.ok()) << loaded.toString();
    EXPECT_EQ(step, 1);
}

TEST(CheckpointFormat, TornStreamedWriteKeepsTheFirstHalfOfTheFile)
{
    // The torn temp file holds exactly the first half of the bytes a
    // clean save writes, header included, and the committed file is
    // untouched.
    const std::string dir = freshDir("torn");
    const std::string path = dir + "/x.bpck";
    const std::string payload(3 * kStagingBytes + 11, 'p');
    ASSERT_TRUE(writeFileAtomic(path, "committed").ok());
    const std::string committed = readBytes(path);
    ASSERT_TRUE(writeFileAtomic(dir + "/clean.bpck", payload).ok());
    const std::string clean = readBytes(dir + "/clean.bpck");

    FaultInjector::instance().configure("torn@io.write:1");
    EXPECT_EQ(writeFileAtomic(path, payload).error, IoError::WriteFailed);
    FaultInjector::instance().reset();
    EXPECT_EQ(readBytes(path), committed);
    EXPECT_EQ(readBytes(path + ".tmp"), clean.substr(0, clean.size() / 2));
}

// --------------------------------------------------------------------
// Corrupt lengths come back as typed errors
// --------------------------------------------------------------------

TEST(CheckpointRegression, FlippedHighSizeBitFallsBackToTheOlderCheckpoint)
{
    // The header's size is outside the CRC. With bit 44 flipped it
    // claims 16 TiB; it must be rejected against the file's length
    // before it sizes anything, and the store must serve step 5.
    CheckpointManagerOptions opt;
    opt.dir = freshDir("size_bit");
    opt.ioRetries = 1;
    CheckpointManager mgr(opt);
    ASSERT_TRUE(mgr.save(5, std::string(4096, 'a')).ok());
    ASSERT_TRUE(mgr.save(10, std::string(4096, 'b')).ok());
    const std::string newest = mgr.pathForStep(10);
    std::string file = readBytes(newest);
    // Bit 44 of the little-endian u64 is bit 4 of its byte 5.
    file[kHeaderSizeAt + 5] =
        static_cast<char>(file[kHeaderSizeAt + 5] ^ 0x10);
    writeBytes(newest, file);

    std::string payload;
    EXPECT_EQ(readFileValidated(newest, payload).error, IoError::Truncated);
    std::int64_t step = 0;
    ASSERT_TRUE(mgr.loadLatest(payload, step).ok());
    EXPECT_EQ(step, 5);
    EXPECT_EQ(payload, std::string(4096, 'a'));
}

TEST(CheckpointRegression, FlippedHighSizeBitResumesTheOlderTrainerState)
{
    const std::string dir = freshDir("size_bit_trainer");
    std::int64_t older = 0;
    {
        CheckpointRig rig(testing::nanoCheckpointConfig(), dir);
        rig.trainer.trainStep();
        ASSERT_TRUE(rig.trainer.saveCheckpoint().ok());
        older = rig.trainer.iteration();
        rig.trainer.trainStep();
        ASSERT_TRUE(rig.trainer.saveCheckpoint().ok());
        const std::string newest =
            dir + "/ckpt-" + std::to_string(rig.trainer.iteration()) +
            ".bpck";
        std::string file = readBytes(newest);
        file[kHeaderSizeAt + 5] =
            static_cast<char>(file[kHeaderSizeAt + 5] ^ 0x10);
        writeBytes(newest, file);
    }
    CheckpointRig resumed(testing::nanoCheckpointConfig(), dir, 99);
    const IoStatus s = resumed.trainer.resumeLatest();
    ASSERT_TRUE(s.ok()) << s.toString();
    EXPECT_EQ(resumed.trainer.iteration(), older);
}

/** Offset of the rank word of the first tensor field in a payload
 *  that holds one tensor field named `name` and nothing before it. */
std::size_t
rankOffset(const std::string &name)
{
    return 1 + 4 + name.size();
}

TEST(CheckpointRegression, InflatedTensorRankIsBadFormat)
{
    StateWriter w;
    w.tensor("w", Tensor(Shape({2, 3})));
    std::string payload = w.payload();
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(payload.data() + rankOffset("w"), &huge, sizeof huge);

    StateReader r(payload);
    Tensor out(Shape({2, 3}));
    EXPECT_FALSE(r.tensor("w", out));
    EXPECT_EQ(r.status().error, IoError::BadFormat);

    // The same bytes behind a valid CRC, through the file path.
    CheckpointManagerOptions opt;
    opt.dir = freshDir("rank");
    CheckpointManager mgr(opt);
    ASSERT_TRUE(mgr.save(1, payload).ok());
    std::int64_t step = 0;
    const IoStatus s = mgr.loadLatest(
        [&](BinaryReader &in, std::int64_t) {
            StateReader fr(in);
            Tensor t(Shape({2, 3}));
            fr.tensor("w", t);
            return fr.status();
        },
        step);
    EXPECT_EQ(s.error, IoError::BadFormat) << s.toString();
}

TEST(CheckpointRegression, StringLengthPastThePayloadIsBadFormat)
{
    StateWriter w;
    w.str("s", "short");
    std::string payload = w.payload();
    const std::uint32_t huge = 0xFFFFFFF0u;
    // tag, name length, name, then the value's length word.
    std::memcpy(payload.data() + 1 + 4 + 1, &huge, sizeof huge);
    StateReader r(payload);
    std::string out;
    EXPECT_FALSE(r.str("s", out));
    EXPECT_EQ(r.status().error, IoError::BadFormat);
}

TEST(CheckpointRegression, FileShorterThanItsDeclaredSizeIsTruncated)
{
    const std::string dir = freshDir("short");
    const std::string path = dir + "/x.bpck";
    ASSERT_TRUE(writeFileAtomic(path, std::string(5000, 'z')).ok());
    std::string file = readBytes(path);
    file.resize(file.size() - 1);
    writeBytes(path, file);
    std::string payload;
    EXPECT_EQ(readFileValidated(path, payload).error, IoError::Truncated);
    EXPECT_TRUE(payload.empty());

    // Fixing the header to the shorter length makes it valid again.
    fixUpHeader(file);
    writeBytes(path, file);
    ASSERT_TRUE(readFileValidated(path, payload).ok());
    EXPECT_EQ(payload, std::string(4999, 'z'));
}

} // namespace
} // namespace bertprof
