/**
 * @file
 * Crash-safe training-loop driver: one object that owns the step
 * sequence (schedule -> batch -> forward/backward -> unscale ->
 * optimizer) plus the robustness machinery around it — non-finite
 * loss/gradient skip-steps, cadenced checkpoints through the
 * crash-safe I/O layer, and bitwise-deterministic resume.
 *
 * A checkpoint captures *everything* the loop consumes: iteration
 * index, model parameters, optimizer moments, loss-scaler state, the
 * dropout RNG, and the dataset RNG. Resuming from step k therefore
 * replays the exact arithmetic (and the exact sample stream) the
 * uninterrupted run would have executed, at any thread count the
 * deterministic substrate supports.
 */

#ifndef BERTPROF_TRAIN_TRAINER_H
#define BERTPROF_TRAIN_TRAINER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "io/checkpoint.h"
#include "nn/bert_pretrainer.h"
#include "optim/grad_scaler.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"

namespace bertprof {

/** Checkpoint knobs for the training loop. */
struct TrainerOptions {
    /** Save every N completed iterations (0 disables checkpoints). */
    std::int64_t checkpointEvery = 0;
    /** Directory for `ckpt-<step>.bpck` (required when enabled). */
    std::string checkpointDir;
    /** Checkpoints retained after a successful save. */
    int keepLast = 3;
    /** Attempts per checkpoint I/O op on transient failure. */
    int ioRetries = 3;
    /** Base retry backoff in ms (doubles per attempt). */
    double ioBackoffMs = 1.0;
};

/** What one trainStep() did with the computed gradients. */
enum class StepStatus {
    /** Gradients were finite; the optimizer update was applied. */
    Applied,
    /** Loss went NaN/Inf; gradients discarded, scale backed off. */
    SkippedNonFiniteLoss,
    /** A gradient went NaN/Inf in unscale; step skipped, backoff. */
    SkippedNonFiniteGrad,
};

/** Human-readable tag for a StepStatus. */
const char *stepStatusName(StepStatus status);

/** Everything one trainStep() produced. */
struct TrainStepResult {
    PretrainStepResult metrics;
    StepStatus status = StepStatus::Applied;
    /** Learning rate the schedule assigned to this step. */
    float lr = 0.0f;
    /** True when this step's cadenced checkpoint save succeeded. */
    bool checkpointSaved = false;
    /** Status of the cadenced save (success() when none was due). */
    IoStatus checkpointStatus;
};

/**
 * Hardened pre-training loop over externally owned components (the
 * trainer borrows them; their lifetime must cover the trainer's).
 */
class Trainer
{
  public:
    Trainer(BertPretrainer &model, Optimizer &optimizer,
            GradScaler &scaler, const LrSchedule &schedule,
            SyntheticDataset &dataset, NnRuntime &rt,
            TrainerOptions options = {});

    /**
     * Run one training step: set the scheduled LR, draw a batch,
     * forward/backward with loss scaling, skip the update when the
     * loss or any gradient is non-finite (backing off the scale),
     * otherwise apply the optimizer; then save a checkpoint if the
     * cadence is due. A failed save is reported in the result but
     * never aborts training.
     */
    TrainStepResult trainStep();

    /** Completed iterations (checkpoint steps use this index). */
    std::int64_t iteration() const { return iteration_; }

    /** True when a checkpoint cadence/directory was configured. */
    bool checkpointingEnabled() const { return manager_ != nullptr; }

    /**
     * Persist the full training state for the current iteration
     * through the crash-safe store. Requires checkpointingEnabled().
     */
    IoStatus saveCheckpoint();

    /**
     * Restore the newest loadable checkpoint (walking past corrupt
     * or truncated files). NotFound means a fresh start — no usable
     * checkpoint in the directory. Any other error means a payload
     * from an incompatible model/optimizer/config; training state is
     * then unspecified and the run should be rebuilt from scratch.
     * Requires checkpointingEnabled().
     */
    IoStatus resumeLatest();

    const TrainerOptions &options() const { return options_; }

  private:
    /** Emit iteration + config + model + optim + scaler + RNGs. */
    void writeState(StateWriter &writer);
    /** Decode the fields writeState() emitted for `step`. */
    IoStatus readState(StateReader &reader, std::int64_t step);

    BertPretrainer &model_;
    Optimizer &optimizer_;
    GradScaler &scaler_;
    const LrSchedule &schedule_;
    SyntheticDataset &dataset_;
    NnRuntime &rt_;
    TrainerOptions options_;
    std::vector<Parameter *> params_;
    std::unique_ptr<CheckpointManager> manager_;
    std::int64_t iteration_ = 0;
};

} // namespace bertprof

#endif // BERTPROF_TRAIN_TRAINER_H
