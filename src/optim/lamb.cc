#include "optim/lamb.h"

#include <cmath>

#include "runtime/parallel_for.h"
#include "util/logging.h"

namespace bertprof {

void
Lamb::step(const std::vector<Parameter *> &params)
{
    checkParams(params);
    ++steps_;
    // LAMB's global pre-normalization: the L2 norm across all
    // gradients must complete before any parameter can update.
    const float scale = globalGradScale(params);
    const float inv_bc1 = static_cast<float>(
        1.0 / (1.0 - std::pow(config_.beta1, static_cast<double>(steps_))));
    const float inv_bc2 = static_cast<float>(
        1.0 / (1.0 - std::pow(config_.beta2, static_cast<double>(steps_))));
    const float beta1 = config_.beta1;
    const float beta2 = config_.beta2;
    const float eps = config_.epsilon;

    for (Parameter *param : params) {
        auto [it, inserted] =
            state_.try_emplace(param, param->value.shape());
        State &st = it->second;
        const std::int64_t n = param->value.numel();
        float *w = param->value.data();
        const float *g = param->grad.data();
        float *m = st.m.data();
        float *v = st.v.data();
        const float wd = param->noDecay ? 0.0f : config_.weightDecay;
        // The update direction, a pure float function of the updated
        // moments and the not-yet-updated weight. Stage 1 sums its
        // squares; stage 2 recomputes it instead of keeping a
        // parameter-sized buffer, and gets the same bits.
        const auto direction = [=](float mi, float vi, float wi) {
            return (mi * inv_bc1) / (std::sqrt(vi * inv_bc2) + eps) +
                   wd * wi;
        };

        // Stage 1 (the paper's LAMBStage1): moment updates and the two
        // norms for the trust ratio in one pass. Reads w, g, m, v and
        // writes m, v. Each chunk of the runtime's fixed grid keeps
        // its own partial sums (kLanes interleaved double accumulators
        // so the adds pipeline), merged below in chunk order: the
        // same bits at every thread count, 1 included.
        double w_sq = 0.0;
        double u_sq = 0.0;
        {
            ScopedKernel k(profiler_, param->name + ".lamb.stage1",
                           OpKind::Elementwise, Phase::Update,
                           LayerScope::Optimizer, SubLayer::LambStage1);
            k.setStats(elementwiseStats(n, 4, 2, 14));
            const std::int64_t chunks = chunkCount(n, kElementwiseGrain);
            partials_.assign(static_cast<std::size_t>(2 * chunks), 0.0);
            parallelForChunks(
                0, n, kElementwiseGrain,
                [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
                    // Blocks of kBlock: a float pass (vectorizes) leaves
                    // the direction in a stack buffer, then kLanes
                    // interleaved double accumulators sum the squares.
                    constexpr int kLanes = 8;
                    constexpr std::int64_t kBlock = 512;
                    double wl[kLanes] = {};
                    double ul[kLanes] = {};
                    float ub[kBlock];
                    // Local copies: read through the by-reference
                    // capture, they could alias the m/v stores, and
                    // the float pass would not vectorize.
                    const float gs = scale;
                    const auto dir = direction;
                    for (std::int64_t b = lo; b < hi; b += kBlock) {
                        const std::int64_t len =
                            hi - b < kBlock ? hi - b : kBlock;
                        float *mb = m + b;
                        float *vb = v + b;
                        const float *wb = w + b;
                        const float *gb = g + b;
                        for (std::int64_t j = 0; j < len; ++j) {
                            const float gi = gb[j] * gs;
                            const float mi =
                                beta1 * mb[j] + (1.0f - beta1) * gi;
                            const float vi =
                                beta2 * vb[j] + (1.0f - beta2) * gi * gi;
                            mb[j] = mi;
                            vb[j] = vi;
                            ub[j] = dir(mi, vi, wb[j]);
                        }
                        std::int64_t j = 0;
                        for (; j + kLanes <= len; j += kLanes) {
                            for (int l = 0; l < kLanes; ++l) {
                                const double wv = wb[j + l];
                                const double uv = ub[j + l];
                                wl[l] += wv * wv;
                                ul[l] += uv * uv;
                            }
                        }
                        for (int l = 0; j < len; ++j, ++l) {
                            const double wv = wb[j];
                            const double uv = ub[j];
                            wl[l] += wv * wv;
                            ul[l] += uv * uv;
                        }
                    }
                    double ws = 0.0;
                    double us = 0.0;
                    for (int l = 0; l < kLanes; ++l) {
                        ws += wl[l];
                        us += ul[l];
                    }
                    partials_[static_cast<std::size_t>(2 * c)] = ws;
                    partials_[static_cast<std::size_t>(2 * c + 1)] = us;
                });
            for (std::int64_t c = 0; c < chunks; ++c) {
                w_sq += partials_[static_cast<std::size_t>(2 * c)];
                u_sq += partials_[static_cast<std::size_t>(2 * c + 1)];
            }
        }

        // Trust ratio: ||w|| / ||update||, defaulting to 1 when
        // either norm vanishes (You et al., Algorithm 2).
        const double w_norm = std::sqrt(w_sq);
        const double u_norm = std::sqrt(u_sq);
        const double trust =
            (w_norm > 0.0 && u_norm > 0.0) ? w_norm / u_norm : 1.0;
        st.lastTrust = trust;

        // Stage 2 (LAMBStage2): apply the rescaled update, recomputing
        // the direction from m, v, w.
        {
            ScopedKernel k(profiler_, param->name + ".lamb.stage2",
                           OpKind::Elementwise, Phase::Update,
                           LayerScope::Optimizer, SubLayer::LambStage2);
            k.setStats(elementwiseStats(n, 3, 1, 8));
            const float step_size = static_cast<float>(
                config_.learningRate * trust);
            parallelFor(0, n, kElementwiseGrain,
                        [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i)
                                w[i] -= step_size *
                                        direction(m[i], v[i], w[i]);
                        });
        }
    }
}

double
Lamb::lastTrustRatio(const Parameter *param) const
{
    auto it = state_.find(param);
    BP_REQUIRE(it != state_.end());
    return it->second.lastTrust;
}

void
Lamb::saveState(const std::vector<Parameter *> &params,
                StateWriter &writer) const
{
    Optimizer::saveState(params, writer);
    writer.i64("lamb.params", static_cast<std::int64_t>(params.size()));
    for (const Parameter *param : params) {
        const auto it = state_.find(param);
        writer.i64(param->name + ".has", it != state_.end() ? 1 : 0);
        if (it != state_.end()) {
            writer.tensor(param->name + ".m", it->second.m);
            writer.tensor(param->name + ".v", it->second.v);
            writer.f64(param->name + ".trust", it->second.lastTrust);
        }
    }
}

IoStatus
Lamb::loadState(const std::vector<Parameter *> &params,
                StateReader &reader)
{
    IoStatus status = Optimizer::loadState(params, reader);
    if (!status.ok())
        return status;
    std::int64_t count = 0;
    if (!reader.i64("lamb.params", count))
        return reader.status();
    if (count != static_cast<std::int64_t>(params.size())) {
        return IoStatus::failure(
            IoError::BadFormat,
            "checkpoint holds lamb state for " + std::to_string(count) +
                " parameters, model has " +
                std::to_string(params.size()));
    }
    state_.clear();
    for (Parameter *param : params) {
        std::int64_t has = 0;
        if (!reader.i64(param->name + ".has", has))
            return reader.status();
        if (has == 0)
            continue;
        auto [it, inserted] =
            state_.try_emplace(param, param->value.shape());
        if (!reader.tensor(param->name + ".m", it->second.m) ||
            !reader.tensor(param->name + ".v", it->second.v) ||
            !reader.f64(param->name + ".trust", it->second.lastTrust)) {
            return reader.status();
        }
    }
    return IoStatus::success();
}

} // namespace bertprof
