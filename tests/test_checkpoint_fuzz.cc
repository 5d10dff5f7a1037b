/**
 * @file
 * Seeded mutation fuzzer for the checkpoint container and
 * StateReader. It saves a real checkpoint of a small trained model,
 * maps every field of its payload, and derives mutants from it: bit
 * flips, truncations, and length / rank / dim / size words inflated
 * to hostile values, each both as is (the container must catch it)
 * and with the header's size and CRC rewritten to match (so the
 * field decoder is reached). Every mutant is resumed through the
 * Trainer and decoded from memory by a StateReader that expects the
 * original fields; each must load or return a typed IoStatus, never
 * crash, abort on an allocation, or read past the payload (the
 * `robust` label runs this under ASan and UBSan).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "checkpoint_rig.h"
#include "util/logging.h"

namespace bertprof {
namespace {

namespace fs = std::filesystem;
using testing::CheckpointRig;
using testing::fixUpHeader;
using testing::kHeaderSizeAt;
using testing::kPayloadAt;
using testing::readBytes;
using testing::writeBytes;

// StateWriter's field tags (io/checkpoint.cc).
constexpr std::uint8_t kTagI64 = 1;
constexpr std::uint8_t kTagF32 = 2;
constexpr std::uint8_t kTagF64 = 3;
constexpr std::uint8_t kTagStr = 4;
constexpr std::uint8_t kTagTensor = 5;

/** One field of the original payload and where its words sit (file
 *  offsets). */
struct Field {
    std::uint8_t tag = 0;
    std::string name;
    std::vector<std::int64_t> dims;
    std::size_t nameLenAt = 0;
    std::size_t strLenAt = 0; ///< kTagStr only
    std::size_t rankAt = 0;   ///< kTagTensor only
    std::vector<std::size_t> dimAt;
};

template <typename T>
T
readAt(const std::string &bytes, std::size_t at)
{
    T v;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
}

template <typename T>
std::string
withWord(std::string bytes, std::size_t at, T v)
{
    std::memcpy(bytes.data() + at, &v, sizeof v);
    return bytes;
}

/** Walk a well-formed payload (this test's own saved file). */
std::vector<Field>
mapFields(const std::string &file)
{
    std::vector<Field> fields;
    std::size_t at = kPayloadAt;
    while (at < file.size()) {
        Field f;
        f.tag = static_cast<std::uint8_t>(file[at]);
        f.nameLenAt = at + 1;
        const auto name_len = readAt<std::uint32_t>(file, f.nameLenAt);
        f.name = file.substr(f.nameLenAt + 4, name_len);
        at = f.nameLenAt + 4 + name_len;
        switch (f.tag) {
        case kTagI64:
        case kTagF64:
            at += 8;
            break;
        case kTagF32:
            at += 4;
            break;
        case kTagStr:
            f.strLenAt = at;
            at += 4 + readAt<std::uint32_t>(file, at);
            break;
        case kTagTensor: {
            f.rankAt = at;
            const auto rank = readAt<std::uint32_t>(file, at);
            at += 4;
            std::int64_t numel = 1;
            for (std::uint32_t d = 0; d < rank; ++d, at += 8) {
                f.dimAt.push_back(at);
                f.dims.push_back(readAt<std::int64_t>(file, at));
                numel *= f.dims.back();
            }
            at += 1 + static_cast<std::size_t>(numel) * sizeof(float);
            break;
        }
        default:
            ADD_FAILURE() << "unknown tag " << int(f.tag) << " at " << at;
            return fields;
        }
        fields.push_back(std::move(f));
    }
    EXPECT_EQ(at, file.size());
    return fields;
}

/** Decode `payload` expecting exactly the original fields. */
IoStatus
decodeAsOriginal(const std::string &payload,
                 const std::vector<Field> &fields)
{
    StateReader r(payload);
    for (const Field &f : fields) {
        switch (f.tag) {
        case kTagI64: {
            std::int64_t v;
            r.i64(f.name, v);
            break;
        }
        case kTagF32: {
            float v;
            r.f32(f.name, v);
            break;
        }
        case kTagF64: {
            double v;
            r.f64(f.name, v);
            break;
        }
        case kTagStr: {
            std::string v;
            r.str(f.name, v);
            break;
        }
        case kTagTensor: {
            Tensor t{Shape(f.dims)};
            r.tensor(f.name, t);
            break;
        }
        }
        if (!r.status().ok())
            break;
    }
    return r.status();
}

struct Mutant {
    std::string kind;
    std::string file;
    /** True when the header was rewritten to match the payload. */
    bool fixedUp = false;
};

std::vector<Mutant>
makeMutants(const std::string &original, const std::vector<Field> &fields)
{
    std::vector<Mutant> out;
    const auto add = [&](const std::string &kind, std::string file,
                         bool fix) {
        if (fix)
            fixUpHeader(file);
        out.push_back({kind, std::move(file), fix});
    };
    const auto both = [&](const std::string &kind, const std::string &file) {
        add(kind, file, false);
        add(kind, file, true);
    };

    Rng rng(20240927);
    const auto pick = [&](std::size_t lo, std::size_t hi) {
        return static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    };

    // Bit flips: anywhere as is, in the payload with the fix-up.
    for (int i = 0; i < 300; ++i) {
        const bool fix = i % 2 == 1;
        std::string file = original;
        const int flips = 1 + i % 3;
        for (int k = 0; k < flips; ++k) {
            const std::size_t at =
                pick(fix ? kPayloadAt : 0, original.size() - 1);
            file[at] = static_cast<char>(file[at] ^ (1 << pick(0, 7)));
        }
        add(flips == 1 && !fix ? "flip1" : "flips", file, fix);
    }
    // Truncations, including inside the header.
    for (int i = 0; i < 80; ++i) {
        const std::size_t keep = i < 22 ? static_cast<std::size_t>(i)
                                        : pick(0, original.size() - 1);
        add("truncate", original.substr(0, keep), false);
        if (keep >= kPayloadAt)
            add("truncate", original.substr(0, keep), true);
    }
    // The header's size word: every bit, and one past the file.
    for (int bit = 0; bit < 64; ++bit) {
        const auto size = readAt<std::uint64_t>(original, kHeaderSizeAt);
        add("size-bit", withWord(original, kHeaderSizeAt,
                                 size ^ (std::uint64_t{1} << bit)),
            false);
    }
    add("size+1",
        withWord(original, kHeaderSizeAt,
                 std::uint64_t{original.size() - kPayloadAt + 1}),
        false);

    // Length, rank and dim words inflated to hostile values.
    for (const Field &f : fields) {
        const std::size_t rest = original.size() - f.nameLenAt - 4;
        for (const std::uint32_t v :
             {0xFFFFFFFFu, 0x80000000u, static_cast<std::uint32_t>(rest + 1),
              0u})
            both("name-length", withWord(original, f.nameLenAt, v));
        if (f.tag == kTagStr) {
            const std::size_t left = original.size() - f.strLenAt - 4;
            for (const std::uint32_t v :
                 {0xFFFFFFFFu, 0x7FFFFFFFu,
                  static_cast<std::uint32_t>(left + 1)})
                both("str-length", withWord(original, f.strLenAt, v));
        }
        if (f.tag == kTagTensor) {
            for (const std::uint32_t v :
                 {0xFFFFFFFFu, 0x10000u,
                  static_cast<std::uint32_t>(f.dims.size() + 1), 0u})
                both("rank", withWord(original, f.rankAt, v));
            for (const std::size_t at : f.dimAt) {
                for (const std::int64_t v :
                     {std::numeric_limits<std::int64_t>::max(),
                      std::int64_t{-1}, std::int64_t{1} << 40})
                    both("dim", withWord(original, at, v));
            }
        }
    }
    return out;
}

TEST(CheckpointFuzz, EveryMutantLoadsOrReturnsATypedError)
{
    const std::string dir =
        ::testing::TempDir() + "bp_ckpt_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // A real checkpoint with optimizer moments: two trained steps.
    std::string original;
    std::int64_t step = 0;
    {
        CheckpointRig rig(testing::nanoCheckpointConfig(), dir);
        rig.trainer.trainStep();
        rig.trainer.trainStep();
        ASSERT_TRUE(rig.trainer.saveCheckpoint().ok());
        step = rig.trainer.iteration();
    }
    const std::string path =
        dir + "/ckpt-" + std::to_string(step) + ".bpck";
    original = readBytes(path);
    const std::vector<Field> fields = mapFields(original);
    ASSERT_GT(fields.size(), 20u);
    ASSERT_TRUE(decodeAsOriginal(original.substr(kPayloadAt), fields).ok());

    const std::vector<Mutant> mutants = makeMutants(original, fields);
    ASSERT_GT(mutants.size(), 1000u);

    // One trainer resumes every mutant; its state between mutants is
    // whatever the last one left, which is what resume must tolerate.
    CheckpointRig target(testing::nanoCheckpointConfig(), dir, 5);
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Error); // one fallback warning per mutant
    std::map<std::string, int> outcomes;
    for (const Mutant &m : mutants) {
        writeBytes(path, m.file);
        const IoStatus resumed = target.trainer.resumeLatest();
        ASSERT_TRUE(resumed.ok() || !resumed.message.empty())
            << m.kind << ": untyped failure";
        if (m.kind == "flip1" || m.kind == "size-bit" ||
            m.kind == "size+1") {
            EXPECT_FALSE(resumed.ok()) << m.kind << " went undetected";
        }
        ++outcomes[m.kind + (m.fixedUp ? "_crc_" : "_") +
                   ioErrorName(resumed.error)];

        if (m.file.size() >= kPayloadAt) {
            const IoStatus decoded =
                decodeAsOriginal(m.file.substr(kPayloadAt), fields);
            ASSERT_TRUE(decoded.ok() ||
                        decoded.error == IoError::BadFormat)
                << m.kind << ": " << decoded.toString();
        }
    }
    setLogLevel(level);

    // The fix-up mutants must have reached the field decoder.
    int decoder_rejections = 0;
    for (const auto &[key, count] : outcomes) {
        if (key.find("_crc_bad-format") != std::string::npos)
            decoder_rejections += count;
        RecordProperty(key, count);
    }
    EXPECT_GT(decoder_rejections, 500);
}

} // namespace
} // namespace bertprof
