#include "io/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "util/logging.h"

namespace fs = std::filesystem;

namespace bertprof {

namespace {

// Field type tags. A tag/name pair precedes every field so the reader
// can diagnose exactly where a stale or foreign payload diverges.
constexpr std::uint8_t kTagI64 = 1;
constexpr std::uint8_t kTagF32 = 2;
constexpr std::uint8_t kTagF64 = 3;
constexpr std::uint8_t kTagStr = 4;
constexpr std::uint8_t kTagTensor = 5;

const char *
tagName(std::uint8_t tag)
{
    switch (tag) {
    case kTagI64:
        return "i64";
    case kTagF32:
        return "f32";
    case kTagF64:
        return "f64";
    case kTagStr:
        return "str";
    case kTagTensor:
        return "tensor";
    default:
        return "?";
    }
}

} // namespace

void
StateWriter::i64(const std::string &name, std::int64_t v)
{
    out_->u8(kTagI64);
    out_->str(name);
    out_->i64(v);
}

void
StateWriter::f32(const std::string &name, float v)
{
    out_->u8(kTagF32);
    out_->str(name);
    out_->f32(v);
}

void
StateWriter::f64(const std::string &name, double v)
{
    out_->u8(kTagF64);
    out_->str(name);
    out_->f64(v);
}

void
StateWriter::str(const std::string &name, const std::string &v)
{
    out_->u8(kTagStr);
    out_->str(name);
    out_->str(v);
}

void
StateWriter::tensor(const std::string &name, const Tensor &t)
{
    out_->u8(kTagTensor);
    out_->str(name);
    const Shape &shape = t.shape();
    out_->u32(static_cast<std::uint32_t>(shape.rank()));
    for (int d = 0; d < shape.rank(); ++d)
        out_->i64(shape.dim(d));
    out_->u8(t.dtype() == DType::F16 ? 1 : 0);
    out_->bytes(t.data(),
                static_cast<std::size_t>(t.numel()) * sizeof(float));
}

StateReader::StateReader(std::string payload)
    : own_(std::move(payload)), in_(&own_)
{
}

StateReader::StateReader(BinaryReader &in) : own_(std::string()), in_(&in)
{
}

void
StateReader::fail(IoError error, const std::string &message)
{
    if (status_.ok())
        status_ = IoStatus::failure(error, message);
}

bool
StateReader::readHeader(const std::string &name, std::uint8_t tag)
{
    if (!status_.ok())
        return false;
    const std::uint8_t got_tag = in_->u8();
    const std::string got_name = in_->str();
    if (in_->failed()) {
        fail(IoError::BadFormat,
             "payload ended while expecting field '" + name + "'");
        return false;
    }
    if (got_tag != tag || got_name != name) {
        fail(IoError::BadFormat,
             "expected field '" + name + "' (" + tagName(tag) +
                 "), found '" + got_name + "' (" + tagName(got_tag) +
                 ")");
        return false;
    }
    return true;
}

bool
StateReader::i64(const std::string &name, std::int64_t &out)
{
    if (!readHeader(name, kTagI64))
        return false;
    out = in_->i64();
    if (in_->failed()) {
        fail(IoError::BadFormat, "truncated i64 field '" + name + "'");
        return false;
    }
    return true;
}

bool
StateReader::f32(const std::string &name, float &out)
{
    if (!readHeader(name, kTagF32))
        return false;
    out = in_->f32();
    if (in_->failed()) {
        fail(IoError::BadFormat, "truncated f32 field '" + name + "'");
        return false;
    }
    return true;
}

bool
StateReader::f64(const std::string &name, double &out)
{
    if (!readHeader(name, kTagF64))
        return false;
    out = in_->f64();
    if (in_->failed()) {
        fail(IoError::BadFormat, "truncated f64 field '" + name + "'");
        return false;
    }
    return true;
}

bool
StateReader::str(const std::string &name, std::string &out)
{
    if (!readHeader(name, kTagStr))
        return false;
    out = in_->str();
    if (in_->failed()) {
        fail(IoError::BadFormat, "truncated str field '" + name + "'");
        return false;
    }
    return true;
}

bool
StateReader::tensor(const std::string &name, Tensor &out)
{
    if (!readHeader(name, kTagTensor))
        return false;
    // The rank is compared before any dim is read, so a corrupt rank
    // sizes nothing.
    const Shape &expect = out.shape();
    const std::uint32_t rank = in_->u32();
    bool same = rank == static_cast<std::uint32_t>(expect.rank());
    for (int d = 0; same && d < expect.rank(); ++d)
        same = in_->i64() == expect.dim(d);
    const std::uint8_t half = same ? in_->u8() : 0;
    if (in_->failed()) {
        fail(IoError::BadFormat,
             "truncated tensor header for field '" + name + "'");
        return false;
    }
    if (!same) {
        fail(IoError::BadFormat,
             "tensor field '" + name +
                 "' has a checkpointed shape incompatible with " +
                 out.toString());
        return false;
    }
    in_->bytes(out.data(),
               static_cast<std::size_t>(out.numel()) * sizeof(float));
    if (in_->failed()) {
        fail(IoError::BadFormat,
             "truncated tensor data for field '" + name + "'");
        return false;
    }
    if (half != 0)
        out.castToHalfStorage();
    return true;
}

CheckpointManager::CheckpointManager(CheckpointManagerOptions options)
    : options_(std::move(options))
{
    BP_REQUIRE(!options_.dir.empty());
    BP_REQUIRE(options_.keepLast >= 1);
    BP_REQUIRE(options_.ioRetries >= 1);
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
}

std::string
CheckpointManager::pathForStep(std::int64_t step) const
{
    return options_.dir + "/ckpt-" + std::to_string(step) + ".bpck";
}

std::vector<std::int64_t>
CheckpointManager::listSteps() const
{
    std::vector<std::int64_t> steps;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(options_.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("ckpt-", 0) != 0 ||
            name.size() <= 10 ||
            name.compare(name.size() - 5, 5, ".bpck") != 0) {
            continue;
        }
        const std::string digits = name.substr(5, name.size() - 10);
        char *end = nullptr;
        const long long step = std::strtoll(digits.c_str(), &end, 10);
        if (end != nullptr && *end == '\0')
            steps.push_back(step);
    }
    std::sort(steps.begin(), steps.end());
    return steps;
}

RetryPolicy
CheckpointManagerOptions::retryPolicy() const
{
    RetryPolicy policy;
    policy.attempts = ioRetries;
    policy.backoffMs = ioBackoffMs;
    policy.maxBackoffMs = ioMaxBackoffMs;
    policy.seed = ioRetrySeed;
    return policy;
}

IoStatus
CheckpointManager::save(std::int64_t step, const PayloadEmitter &emit)
{
    const std::string path = pathForStep(step);
    const IoStatus status =
        withRetries(options_.retryPolicy(),
                    [&] { return writeFileAtomic(path, emit); });
    if (!status.ok())
        return status;

    // Prune beyond keepLast only after the new checkpoint is durable,
    // so a failed save never reduces the recovery options.
    const std::vector<std::int64_t> steps = listSteps();
    const std::size_t keep = static_cast<std::size_t>(options_.keepLast);
    if (steps.size() > keep) {
        for (std::size_t i = 0; i < steps.size() - keep; ++i) {
            std::error_code ec;
            fs::remove(pathForStep(steps[i]), ec);
        }
    }
    return status;
}

IoStatus
CheckpointManager::save(std::int64_t step, const std::string &payload)
{
    return save(step, [&](BinaryWriter &out) {
        out.bytes(payload.data(), payload.size());
    });
}

IoStatus
CheckpointManager::loadLatest(const StepDecoder &decode,
                              std::int64_t &stepOut)
{
    const std::vector<std::int64_t> steps = listSteps();
    IoStatus last = IoStatus::failure(
        IoError::NotFound, "no checkpoint found in " + options_.dir);
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        const std::string path = pathForStep(*it);
        bool decoded = false;
        const IoStatus status =
            withRetries(options_.retryPolicy(), [&] {
                return readFileValidated(path, [&](BinaryReader &in) {
                    decoded = true;
                    return decode(in, *it);
                });
            });
        if (status.ok() || decoded) {
            stepOut = *it;
            return status;
        }
        BP_LOG(Warn) << "checkpoint " << path
                     << " unusable, falling back to an older one ("
                     << status.toString() << ")";
        last = status;
    }
    return last;
}

IoStatus
CheckpointManager::loadLatest(std::string &payloadOut,
                              std::int64_t &stepOut)
{
    payloadOut.clear();
    return loadLatest(
        [&](BinaryReader &in, std::int64_t) {
            return in.rest(payloadOut)
                       ? IoStatus::success()
                       : IoStatus::failure(IoError::Truncated,
                                           "checkpoint payload truncated");
        },
        stepOut);
}

} // namespace bertprof
