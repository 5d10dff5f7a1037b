/**
 * @file
 * A small training stack for the checkpoint tests: one Trainer and
 * everything it borrows, built the same way every time, plus helpers
 * to read and rewrite a checkpoint file's bytes.
 */

#ifndef BERTPROF_TESTS_CHECKPOINT_RIG_H
#define BERTPROF_TESTS_CHECKPOINT_RIG_H

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/bertprof.h"
#include "io/crc32.h"

namespace bertprof {
namespace testing {

/** A one-layer model whose checkpoint is a few tens of KiB. */
inline BertConfig
nanoCheckpointConfig()
{
    BertConfig c;
    c.name = "bert-nano";
    c.numLayers = 1;
    c.dModel = 16;
    c.numHeads = 2;
    c.dFf = 32;
    c.vocabSize = 64;
    c.maxPositions = 16;
    c.batch = 2;
    c.seqLen = 8;
    c.maxPredictions = 2;
    return c;
}

/** Trainer options that enable the store without cadenced saves. */
inline TrainerOptions
manualCheckpoints(const std::string &dir)
{
    TrainerOptions o;
    o.checkpointEvery = 1'000'000;
    o.checkpointDir = dir;
    o.keepLast = 8;
    o.ioRetries = 1;
    return o;
}

/** One Trainer and everything it borrows (holds its own addresses,
 *  so it is neither copied nor moved). */
struct CheckpointRig {
    BertConfig config;
    NnRuntime rt;
    BertPretrainer model;
    SyntheticDataset dataset;
    Lamb lamb;
    GradScaler scaler;
    LrSchedule schedule;
    Trainer trainer;

    CheckpointRig(const BertConfig &c, const std::string &dir,
                  std::uint64_t seed = 1234)
        : config(c), rt(), model(config, &rt), dataset(config, 77),
          lamb(OptimizerConfig{}), scaler(1024.0f),
          schedule(1e-3f, 4, 40, DecayKind::Polynomial, 1.0),
          trainer(model, lamb, scaler, schedule, dataset, rt,
                  manualCheckpoints(dir))
    {
        rt.dropoutP = 0.1f;
        Rng init(seed);
        model.initialize(init);
    }

    CheckpointRig(const CheckpointRig &) = delete;
    CheckpointRig &operator=(const CheckpointRig &) = delete;
};

inline std::string
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
}

inline void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << path;
}

/** Container header offsets (io/binary_io.h). */
constexpr std::size_t kHeaderSizeAt = 8;
constexpr std::size_t kHeaderCrcAt = 16;
constexpr std::size_t kPayloadAt = 20;

/** Rewrite the header's size and CRC to match the payload bytes
 *  that follow it, so a mutated payload reaches the decoder. */
inline void
fixUpHeader(std::string &file)
{
    const std::uint64_t size = file.size() - kPayloadAt;
    const std::uint32_t crc = crc32(file.data() + kPayloadAt, size);
    std::memcpy(file.data() + kHeaderSizeAt, &size, sizeof size);
    std::memcpy(file.data() + kHeaderCrcAt, &crc, sizeof crc);
}

} // namespace testing
} // namespace bertprof

#endif // BERTPROF_TESTS_CHECKPOINT_RIG_H
