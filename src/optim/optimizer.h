/**
 * @file
 * Optimizer interface for the CPU substrate. LAMB (the optimizer the
 * paper identifies as the second-largest runtime contributor) and
 * Adam are implemented on top; both execute as the two-stage
 * per-tensor structure of the paper's Fig. 7 (stage 1 computes the
 * update direction and statistics, stage 2 applies it), and both keep
 * FP32 state regardless of training precision.
 */

#ifndef BERTPROF_OPTIM_OPTIMIZER_H
#define BERTPROF_OPTIM_OPTIMIZER_H

#include <cstdint>
#include <vector>

#include "io/checkpoint.h"
#include "nn/module.h"
#include "runtime/profiler.h"

namespace bertprof {

/** Hyperparameters shared across the optimizers. */
struct OptimizerConfig {
    float learningRate = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-6f;
    /** Decoupled weight decay (skipped for noDecay parameters). */
    float weightDecay = 0.01f;
    /** Clip the global gradient L2 norm (0 disables clipping). */
    float maxGradNorm = 0.0f;
};

/** Base class: owns hyperparameters, step count, and profiling. */
class Optimizer
{
  public:
    explicit Optimizer(OptimizerConfig config, Profiler *profiler = nullptr)
        : config_(config), profiler_(profiler)
    {
    }
    virtual ~Optimizer() = default;

    /** Apply one update to every parameter using its .grad. */
    virtual void step(const std::vector<Parameter *> &params) = 0;

    /** Short kind tag ("adam", "lamb", ...) stamped into checkpoints
     *  so state is never loaded into the wrong update rule. */
    virtual const char *kindName() const = 0;

    /**
     * Serialize kind, step count, and all per-parameter state (Adam/
     * LAMB moments, SGD velocity) for `params` in order. A resumed
     * optimizer continues bitwise identically to an uninterrupted
     * one. `params` must be the same ordered set passed to step().
     */
    virtual void saveState(const std::vector<Parameter *> &params,
                           StateWriter &writer) const;

    /**
     * Restore state written by saveState() for the same parameter
     * ordering. Kind or shape mismatches are typed errors (the
     * optimizer is left partially loaded — discard it on failure).
     */
    virtual IoStatus loadState(const std::vector<Parameter *> &params,
                               StateReader &reader);

    /** Number of steps taken so far. */
    std::int64_t stepCount() const { return steps_; }

    /** Adjust the learning rate (e.g. for warmup schedules). */
    void setLearningRate(float lr) { config_.learningRate = lr; }

    const OptimizerConfig &config() const { return config_; }

  protected:
    /**
     * Global gradient L2 norm over `params`, bitwise the same at every
     * thread count. Records the GradNorm reduction kernel.
     */
    double globalGradNorm(const std::vector<Parameter *> &params);

    /**
     * The scale that enforces maxGradNorm on globalGradNorm() (1.0
     * when clipping is off or unneeded).
     */
    float globalGradScale(const std::vector<Parameter *> &params);

    /**
     * Entry contract shared by every step() implementation: no null
     * parameters, every gradient shaped like its value, and (debug
     * builds only) every gradient finite before it is consumed.
     */
    void checkParams(const std::vector<Parameter *> &params) const;

    OptimizerConfig config_;
    Profiler *profiler_;
    std::int64_t steps_ = 0;
};

} // namespace bertprof

#endif // BERTPROF_OPTIM_OPTIMIZER_H
