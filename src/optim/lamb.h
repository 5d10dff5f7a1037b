/**
 * @file
 * LAMB (You et al., "Reducing BERT Pre-Training Time from 3 Days to
 * 76 Minutes") — the layer-wise adaptive large-batch optimizer BERT
 * pre-training uses and the paper's Takeaway 1 target. Per tensor:
 * Adam-style moment updates, then the update is rescaled by the trust
 * ratio ||w|| / ||update||. A global gradient-norm pre-normalization
 * runs first, which serializes the update against the whole backprop
 * (Sec. 3.2.3 of the paper).
 */

#ifndef BERTPROF_OPTIM_LAMB_H
#define BERTPROF_OPTIM_LAMB_H

#include <unordered_map>
#include <vector>

#include "optim/optimizer.h"

namespace bertprof {

/** LAMB optimizer with per-parameter m/v state and trust ratio. */
class Lamb : public Optimizer
{
  public:
    explicit Lamb(OptimizerConfig config, Profiler *profiler = nullptr)
        : Optimizer(config, profiler)
    {
    }

    void step(const std::vector<Parameter *> &params) override;

    const char *kindName() const override { return "lamb"; }

    void saveState(const std::vector<Parameter *> &params,
                   StateWriter &writer) const override;
    IoStatus loadState(const std::vector<Parameter *> &params,
                       StateReader &reader) override;

    /** The trust ratio applied on the most recent step (testing). */
    double lastTrustRatio(const Parameter *param) const;

  private:
    struct State {
        Tensor m;
        Tensor v;
        double lastTrust = 1.0;
        State(const Shape &shape) : m(shape), v(shape) {}
    };
    std::unordered_map<const Parameter *, State> state_;
    /** Stage 1's per-chunk (||w||^2, ||u||^2) partials, reused. */
    std::vector<double> partials_;
};

} // namespace bertprof

#endif // BERTPROF_OPTIM_LAMB_H
