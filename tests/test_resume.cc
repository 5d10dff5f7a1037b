/**
 * @file
 * End-to-end resume tests for the hardened training loop: a run
 * checkpointed at step k and restarted from that checkpoint must
 * continue bitwise-identically to the uninterrupted run — parameters,
 * optimizer moments, scaler state, step counters, and the sample
 * stream — at 1 thread and at 8 threads. Also covers checkpoint
 * cadence/pruning, resume-after-corruption fallback, config-mismatch
 * rejection, and preemption (kill@optim.step) via a death test.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/bertprof.h"
#include "runtime/config.h"

namespace bertprof {
namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "bp_resume_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

BertConfig
tinyConfig()
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

/** A self-contained training run (identical construction each time). */
struct TrainRun {
    BertConfig config;
    NnRuntime rt;
    BertPretrainer model;
    SyntheticDataset dataset;
    Lamb lamb;
    GradScaler scaler;
    LrSchedule schedule;
    Trainer trainer;

    explicit TrainRun(TrainerOptions options)
        : config(tinyConfig()), rt(), model(config, &rt),
          dataset(config, 77), lamb(OptimizerConfig{}),
          scaler(1024.0f),
          schedule(1e-3f, 4, 40, DecayKind::Polynomial, 1.0),
          trainer(model, lamb, scaler, schedule, dataset, rt, options)
    {
        rt.dropoutP = 0.1f; // exercise the dropout RNG stream too
        Rng init(1234);
        model.initialize(init);
    }
};

bool
bitsEqual(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

void
expectRunsBitwiseEqual(TrainRun &a, TrainRun &b)
{
    auto pa = a.model.parameters();
    auto pb = b.model.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_TRUE(bitsEqual(pa[i]->value, pb[i]->value))
            << "parameter " << pa[i]->name << " diverged";
    EXPECT_EQ(a.trainer.iteration(), b.trainer.iteration());
    EXPECT_EQ(a.lamb.stepCount(), b.lamb.stepCount());
    EXPECT_EQ(a.scaler.scale(), b.scaler.scale());
    EXPECT_EQ(a.scaler.skippedSteps(), b.scaler.skippedSteps());
    // Both RNG streams must be at the same position.
    EXPECT_EQ(a.rt.rng.serialize(), b.rt.rng.serialize());
    EXPECT_EQ(a.dataset.rngState(), b.dataset.rngState());
}

/**
 * The core acceptance criterion: train 2k steps uninterrupted vs.
 * train k steps, tear the whole stack down, rebuild, resume from the
 * checkpoint at k, train to 2k — identical bits on every parameter,
 * counter, and RNG stream. With `switch_fusion` every run trains the
 * first k steps with BERTPROF_FUSION off and the resumed half with it
 * on: fusion is eval-only, so training bits must not see the knob.
 */
void
resumeMatchesUninterrupted(int threads, bool switch_fusion = false)
{
    struct FusionGuard {
        ~FusionGuard() { clearFusionModeOverride(); }
    } fusion_guard;
    if (switch_fusion)
        setFusionMode(FusionMode::Off);
    setNumThreads(threads);
    const int k = 6;
    const std::string tag = std::to_string(threads) +
                            (switch_fusion ? "_fusion_switch" : "");
    const std::string dir = freshDir("equiv_t" + tag);

    TrainerOptions options;
    options.checkpointEvery = k;
    options.checkpointDir = dir;

    // Uninterrupted: 2k steps in one process lifetime.
    TrainRun full(options);
    for (int i = 0; i < 2 * k; ++i)
        full.trainer.trainStep();

    // Interrupted: k steps, destruction (simulates the crash), then a
    // fresh stack resumes from the step-k checkpoint.
    const std::string dir2 = freshDir("equiv2_t" + tag);
    TrainerOptions options2 = options;
    options2.checkpointDir = dir2;
    {
        TrainRun first_half(options2);
        for (int i = 0; i < k; ++i)
            first_half.trainer.trainStep();
    }
    if (switch_fusion)
        setFusionMode(FusionMode::On);
    TrainRun resumed(options2);
    ASSERT_TRUE(resumed.trainer.resumeLatest().ok());
    EXPECT_EQ(resumed.trainer.iteration(), k);
    for (int i = 0; i < k; ++i)
        resumed.trainer.trainStep();

    expectRunsBitwiseEqual(full, resumed);

    // The step-2k checkpoint files are byte-identical too (the format
    // holds no timestamps), which is what scripts/check_resume.sh
    // verifies with cmp(1) from the outside.
    std::string payload_full, payload_resumed;
    std::int64_t step_full = 0, step_resumed = 0;
    CheckpointManagerOptions mgr_full, mgr_resumed;
    mgr_full.dir = dir;
    mgr_resumed.dir = dir2;
    ASSERT_TRUE(CheckpointManager(mgr_full)
                    .loadLatest(payload_full, step_full)
                    .ok());
    ASSERT_TRUE(CheckpointManager(mgr_resumed)
                    .loadLatest(payload_resumed, step_resumed)
                    .ok());
    EXPECT_EQ(step_full, 2 * k);
    EXPECT_EQ(step_resumed, 2 * k);
    EXPECT_EQ(payload_full, payload_resumed);
}

TEST(Resume, MatchesUninterruptedRunAtOneThread)
{
    resumeMatchesUninterrupted(1);
}

TEST(Resume, MatchesUninterruptedRunAtEightThreads)
{
    resumeMatchesUninterrupted(8);
}

TEST(Resume, FusionSwitchedOnAtResumeMatchesAtOneThread)
{
    resumeMatchesUninterrupted(1, /*switch_fusion=*/true);
}

TEST(Resume, FusionSwitchedOnAtResumeMatchesAtEightThreads)
{
    resumeMatchesUninterrupted(8, /*switch_fusion=*/true);
}

TEST(Resume, ResumedDatasetConsumesTheIdenticalSampleStream)
{
    const std::string dir = freshDir("stream");
    TrainerOptions options;
    options.checkpointEvery = 3;
    options.checkpointDir = dir;

    TrainRun a(options);
    for (int i = 0; i < 3; ++i)
        a.trainer.trainStep();
    const PretrainBatch next_a = a.dataset.nextBatch();

    TrainRun b(options);
    ASSERT_TRUE(b.trainer.resumeLatest().ok());
    const PretrainBatch next_b = b.dataset.nextBatch();

    EXPECT_EQ(next_a.tokenIds, next_b.tokenIds);
    EXPECT_EQ(next_a.mlmPositions, next_b.mlmPositions);
    EXPECT_EQ(next_a.mlmLabels, next_b.mlmLabels);
    EXPECT_EQ(next_a.nspLabels, next_b.nspLabels);
}

TEST(Resume, CadenceAndPruningFollowTheOptions)
{
    const std::string dir = freshDir("cadence");
    TrainerOptions options;
    options.checkpointEvery = 2;
    options.checkpointDir = dir;
    options.keepLast = 2;

    TrainRun run(options);
    int saves = 0;
    for (int i = 0; i < 9; ++i) {
        const TrainStepResult r = run.trainer.trainStep();
        saves += r.checkpointSaved ? 1 : 0;
    }
    EXPECT_EQ(saves, 4); // after steps 2, 4, 6, 8

    CheckpointManagerOptions mgr;
    mgr.dir = dir;
    const auto steps = CheckpointManager(mgr).listSteps();
    ASSERT_EQ(steps.size(), 2u); // pruned to keepLast
    EXPECT_EQ(steps[0], 6);
    EXPECT_EQ(steps[1], 8);
}

TEST(Resume, FallsBackToLastGoodWhenNewestIsCorrupt)
{
    const std::string dir = freshDir("fallback");
    TrainerOptions options;
    options.checkpointEvery = 2;
    options.checkpointDir = dir;

    TrainRun a(options);
    for (int i = 0; i < 4; ++i)
        a.trainer.trainStep();

    // Truncate the step-4 checkpoint as a torn write would.
    CheckpointManagerOptions mgr;
    mgr.dir = dir;
    const std::string newest = CheckpointManager(mgr).pathForStep(4);
    fs::resize_file(newest, fs::file_size(newest) / 3);

    TrainRun b(options);
    ASSERT_TRUE(b.trainer.resumeLatest().ok());
    EXPECT_EQ(b.trainer.iteration(), 2); // last good, not the torn one
}

TEST(Resume, EmptyDirectoryReportsNotFound)
{
    TrainerOptions options;
    options.checkpointEvery = 2;
    options.checkpointDir = freshDir("empty");
    TrainRun run(options);
    EXPECT_EQ(run.trainer.resumeLatest().error, IoError::NotFound);
    EXPECT_EQ(run.trainer.iteration(), 0); // untouched, fresh start
}

TEST(Resume, ConfigMismatchIsRejected)
{
    const std::string dir = freshDir("config_mismatch");
    TrainerOptions options;
    options.checkpointEvery = 2;
    options.checkpointDir = dir;

    TrainRun a(options);
    for (int i = 0; i < 2; ++i)
        a.trainer.trainStep();

    // Same checkpoint directory, differently shaped model.
    BertConfig other = tinyConfig();
    other.dModel = 32;
    other.dFf = 64;
    NnRuntime rt;
    BertPretrainer model(other, &rt);
    Rng init(1234);
    model.initialize(init);
    SyntheticDataset dataset(other, 77);
    Lamb lamb((OptimizerConfig()));
    GradScaler scaler(1024.0f);
    LrSchedule schedule(1e-3f, 4, 40, DecayKind::Polynomial, 1.0);
    Trainer trainer(model, lamb, scaler, schedule, dataset, rt,
                    options);
    const IoStatus s = trainer.resumeLatest();
    EXPECT_EQ(s.error, IoError::BadFormat);
    EXPECT_NE(s.message.find("cfg.dmodel"), std::string::npos)
        << s.message;
}

TEST(Resume, OptimizerKindMismatchIsRejected)
{
    const std::string dir = freshDir("optim_mismatch");
    TrainerOptions options;
    options.checkpointEvery = 2;
    options.checkpointDir = dir;

    TrainRun a(options);
    for (int i = 0; i < 2; ++i)
        a.trainer.trainStep();

    // Same model shape, but the resuming stack runs Adam, not LAMB.
    BertConfig config = tinyConfig();
    NnRuntime rt;
    BertPretrainer model(config, &rt);
    Rng init(1234);
    model.initialize(init);
    SyntheticDataset dataset(config, 77);
    Adam adam((OptimizerConfig()));
    GradScaler scaler(1024.0f);
    LrSchedule schedule(1e-3f, 4, 40, DecayKind::Polynomial, 1.0);
    Trainer trainer(model, adam, scaler, schedule, dataset, rt,
                    options);
    const IoStatus s = trainer.resumeLatest();
    EXPECT_EQ(s.error, IoError::BadFormat);
    EXPECT_NE(s.message.find("lamb"), std::string::npos) << s.message;
}

// --------------------------------------------------------------------
// Preemption: kill@optim.step, then resume
// --------------------------------------------------------------------

/**
 * The injector's Kill executes std::_Exit(137) inside the optimizer
 * step. threadsafe death tests fork+exec, so the child re-runs this
 * test body with a clean thread pool and actually dies at step k+1;
 * the parent only checks the exit code.
 */
TEST(ResumeDeathTest, KillAtOptimizerStepThenResumeMatches)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const int k = 4;
    const std::string dir = ::testing::TempDir() + "bp_resume_kill";

    TrainerOptions options;
    options.checkpointEvery = k;
    options.checkpointDir = dir;

    EXPECT_EXIT(
        {
            // Child process: fresh directory, train until the armed
            // kill fires entering optimizer step k+1 (1-based).
            fs::remove_all(dir);
            fs::create_directories(dir);
            FaultInjector::instance().configure(
                "kill@optim.step:" + std::to_string(k + 1));
            TrainRun victim(options);
            for (int i = 0; i < 2 * k; ++i)
                victim.trainer.trainStep();
        },
        ::testing::ExitedWithCode(137), "");

    // Parent: the victim died after the step-k checkpoint; resume and
    // finish, then compare against an uninterrupted run.
    TrainRun resumed(options);
    ASSERT_TRUE(resumed.trainer.resumeLatest().ok());
    EXPECT_EQ(resumed.trainer.iteration(), k);
    while (resumed.trainer.iteration() < 2 * k)
        resumed.trainer.trainStep();

    TrainerOptions options_full = options;
    options_full.checkpointDir = freshDir("kill_full");
    TrainRun full(options_full);
    for (int i = 0; i < 2 * k; ++i)
        full.trainer.trainStep();

    expectRunsBitwiseEqual(full, resumed);
    fs::remove_all(dir);
}

} // namespace
} // namespace bertprof
