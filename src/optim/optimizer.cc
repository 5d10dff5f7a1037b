#include "optim/optimizer.h"

#include <cmath>
#include <vector>

#include "runtime/fault_injection.h"
#include "runtime/parallel_for.h"
#include "tensor/contracts.h"
#include "util/logging.h"

namespace bertprof {

void
Optimizer::checkParams(const std::vector<Parameter *> &params) const
{
    // Fault site `optim.step`: a kill spec here simulates preemption
    // at optimizer-step entry — after backward, before any parameter
    // is touched — the worst moment short of a mid-update crash,
    // which the crash-safe checkpoint protocol makes unobservable.
    faultAt("optim.step");
    for (const Parameter *param : params) {
        BP_REQUIRE(param != nullptr);
        BP_CHECK_SAME_SHAPE(param->grad, param->value);
        BP_CHECK_NO_ALIAS(param->grad, param->value);
        BP_DCHECK_FINITE(param->grad);
    }
}

void
Optimizer::saveState(const std::vector<Parameter *> &params,
                     StateWriter &writer) const
{
    (void)params;
    writer.str("optim.kind", kindName());
    writer.i64("optim.steps", steps_);
}

IoStatus
Optimizer::loadState(const std::vector<Parameter *> &params,
                     StateReader &reader)
{
    (void)params;
    std::string kind;
    std::int64_t steps = 0;
    if (!reader.str("optim.kind", kind) ||
        !reader.i64("optim.steps", steps)) {
        return reader.status();
    }
    if (kind != kindName()) {
        return IoStatus::failure(
            IoError::BadFormat,
            "checkpoint holds state for optimizer '" + kind +
                "', cannot load into '" + kindName() + "'");
    }
    steps_ = steps;
    return IoStatus::success();
}

double
Optimizer::globalGradNorm(const std::vector<Parameter *> &params)
{
    ScopedKernel k(profiler_, "opt.grad_l2_norm", OpKind::Reduction,
                   Phase::Update, LayerScope::Optimizer,
                   SubLayer::GradNorm);
    // Sum of squares on the runtime's fixed chunk grid, as in LAMB
    // stage 1, with chunk partials merged in chunk order: the same bits
    // at every thread count, 1 included. Inside a chunk, squares go
    // into kLanes float lanes for one block of kBlock elements (8 terms
    // a lane), and each block's lanes into kLanes double lanes; the
    // float step keeps the loop at memory bandwidth on the baseline
    // ISA, where widening every element to double would not.
    double sum_sq = 0.0;
    std::int64_t total = 0;
    std::vector<double> partials;
    for (const Parameter *param : params) {
        const float *g = param->grad.data();
        const std::int64_t n = param->grad.numel();
        partials.assign(
            static_cast<std::size_t>(chunkCount(n, kElementwiseGrain)), 0.0);
        parallelForChunks(
            0, n, kElementwiseGrain,
            [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
                constexpr int kLanes = 16;
                constexpr std::int64_t kBlock = 128;
                double lanes[kLanes] = {};
                for (std::int64_t b = lo; b < hi; b += kBlock) {
                    float block[kLanes] = {};
                    if (hi - b >= kBlock) {
                        for (std::int64_t j = 0; j < kBlock; j += kLanes) {
                            for (int l = 0; l < kLanes; ++l) {
                                const float v = g[b + j + l];
                                block[l] += v * v;
                            }
                        }
                    } else {
                        for (std::int64_t j = 0; j < hi - b; ++j) {
                            const float v = g[b + j];
                            block[j % kLanes] += v * v;
                        }
                    }
                    for (int l = 0; l < kLanes; ++l)
                        lanes[l] += block[l];
                }
                double chunk_sum = 0.0;
                for (int l = 0; l < kLanes; ++l)
                    chunk_sum += lanes[l];
                partials[static_cast<std::size_t>(c)] = chunk_sum;
            });
        for (const double p : partials)
            sum_sq += p;
        total += n;
    }
    k.setStats(elementwiseStats(total, 1, 0, 2));
    return std::sqrt(sum_sq);
}

float
Optimizer::globalGradScale(const std::vector<Parameter *> &params)
{
    const double global_norm = globalGradNorm(params);
    if (config_.maxGradNorm <= 0.0f || global_norm <= config_.maxGradNorm ||
        global_norm == 0.0) {
        return 1.0f;
    }
    return static_cast<float>(config_.maxGradNorm / global_norm);
}

} // namespace bertprof
