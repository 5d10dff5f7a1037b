#include "optim/grad_scaler.h"

#include <cstdint>
#include <cstring>

#include "util/logging.h"

namespace bertprof {

namespace {

/** Exponent field of an IEEE-754 float. */
constexpr std::uint32_t kExponentMask = 0x7f800000u;

} // namespace

GradScaler::GradScaler(float initial_scale, float growth_factor,
                       float backoff_factor, std::int64_t growth_interval)
    : scale_(initial_scale), growthFactor_(growth_factor),
      backoffFactor_(backoff_factor), growthInterval_(growth_interval)
{
    BP_REQUIRE(initial_scale > 0.0f);
    BP_REQUIRE(growth_factor > 1.0f);
    BP_REQUIRE(backoff_factor > 0.0f && backoff_factor < 1.0f);
    BP_REQUIRE(growth_interval >= 1);
}

bool
GradScaler::unscale(const std::vector<Parameter *> &params)
{
    // One branch-free pass per parameter: scale every element and
    // OR together a non-finite flag taken from the input's exponent
    // bits (all ones for inf and NaN). Finite elements get the same
    // bits as a checked loop; a non-finite one zeroes everything below.
    const float inv = 1.0f / scale_;
    std::uint32_t nonfinite = 0;
    for (Parameter *param : params) {
        float *g = param->grad.data();
        const std::int64_t n = param->grad.numel();
        std::uint32_t flag = 0;
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &g[i], sizeof(bits));
            flag |= static_cast<std::uint32_t>((bits & kExponentMask) ==
                                               kExponentMask);
            g[i] *= inv;
        }
        nonfinite |= flag;
    }
    const bool finite = nonfinite == 0;
    if (!finite) {
        // The step must be skipped; leave no stale scaled gradients.
        for (Parameter *param : params)
            param->zeroGrad();
    }
    return finite;
}

void
GradScaler::update(bool grads_finite)
{
    if (!grads_finite) {
        scale_ *= backoffFactor_;
        if (scale_ < 1.0f)
            scale_ = 1.0f;
        stableSteps_ = 0;
        ++skipped_;
        return;
    }
    if (++stableSteps_ >= growthInterval_) {
        scale_ *= growthFactor_;
        stableSteps_ = 0;
    }
}

void
GradScaler::saveState(StateWriter &writer) const
{
    writer.f32("scaler.scale", scale_);
    writer.i64("scaler.stable", stableSteps_);
    writer.i64("scaler.skipped", skipped_);
}

IoStatus
GradScaler::loadState(StateReader &reader)
{
    float scale = 0.0f;
    std::int64_t stable = 0, skipped = 0;
    if (!reader.f32("scaler.scale", scale) ||
        !reader.i64("scaler.stable", stable) ||
        !reader.i64("scaler.skipped", skipped)) {
        return reader.status();
    }
    if (!(scale > 0.0f)) {
        return IoStatus::failure(IoError::BadFormat,
                                 "checkpointed loss scale is not "
                                 "positive");
    }
    scale_ = scale;
    stableSteps_ = stable;
    skipped_ = skipped;
    return IoStatus::success();
}

} // namespace bertprof
