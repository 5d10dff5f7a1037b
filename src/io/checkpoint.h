/**
 * @file
 * Versioned checkpoint payloads and the on-disk checkpoint store.
 *
 * StateWriter / StateReader put a self-describing, named-field layer
 * on top of the binary container: every field carries a type tag and
 * its name, and the reader verifies both before decoding, so a
 * checkpoint written by a different code revision fails with a
 * precise BadFormat message ("expected field 'adam.m' ...") instead
 * of silently misreading bytes. Tensors round-trip bitwise (raw FP32
 * bit patterns), which is what makes resumed runs exactly equal to
 * uninterrupted ones.
 *
 * CheckpointManager owns a directory of `ckpt-<step>.bpck` files:
 * cadenced saves stream through the crash-safe writer (with bounded
 * retry-with-backoff on transient failures), old checkpoints are
 * pruned to `keepLast`, and loadLatest() walks newest -> oldest until
 * a file validates — the last-good fallback that makes a torn or
 * corrupt newest checkpoint a warning, not a lost run.
 */

#ifndef BERTPROF_IO_CHECKPOINT_H
#define BERTPROF_IO_CHECKPOINT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/binary_io.h"
#include "io/io_status.h"
#include "tensor/tensor.h"

namespace bertprof {

/**
 * Encodes a checkpoint payload of named, typed fields. It writes
 * through a BinaryWriter: its own in-memory one by default, or the
 * streaming one a save hands out, so tensor bytes go from the tensor
 * to the file with no payload-sized copy.
 */
class StateWriter
{
  public:
    StateWriter() : out_(&own_) {}
    /** Encode through `out`, which must outlive this writer. */
    explicit StateWriter(BinaryWriter &out) : out_(&out) {}
    StateWriter(const StateWriter &) = delete;
    StateWriter &operator=(const StateWriter &) = delete;

    void i64(const std::string &name, std::int64_t v);
    void f32(const std::string &name, float v);
    void f64(const std::string &name, double v);
    void str(const std::string &name, const std::string &v);
    /** Shape + dtype + raw FP32 bit patterns (bitwise round-trip). */
    void tensor(const std::string &name, const Tensor &t);

    /** The in-memory payload (empty when bound to another writer). */
    const std::string &payload() const { return own_.buffer(); }

  private:
    BinaryWriter own_;
    BinaryWriter *out_;
};

/**
 * Decodes a payload written by StateWriter, from memory or from a
 * validated checkpoint file. Fields must be read in the order they
 * were written; the first name/type/shape mismatch or underrun
 * latches a typed error and every later read returns false, so call
 * sites may decode a whole section and check status() once. Every
 * length and rank is checked before it sizes anything.
 */
class StateReader
{
  public:
    explicit StateReader(std::string payload);
    /** Decode from `in`, which must outlive this reader. */
    explicit StateReader(BinaryReader &in);
    StateReader(const StateReader &) = delete;
    StateReader &operator=(const StateReader &) = delete;

    bool i64(const std::string &name, std::int64_t &out);
    bool f32(const std::string &name, float &out);
    bool f64(const std::string &name, double &out);
    bool str(const std::string &name, std::string &out);
    /** `out` must already have the expected shape; a checkpointed
     *  shape mismatch is a BadFormat error, not a resize. */
    bool tensor(const std::string &name, Tensor &out);

    const IoStatus &status() const { return status_; }

  private:
    bool readHeader(const std::string &name, std::uint8_t tag);
    void fail(IoError error, const std::string &message);

    BinaryReader own_;
    BinaryReader *in_;
    IoStatus status_;
};

/** Knobs for the on-disk checkpoint store. */
struct CheckpointManagerOptions {
    /** Directory the `ckpt-<step>.bpck` files live in (created). */
    std::string dir;
    /** Checkpoints retained after a successful save (>= 1). */
    int keepLast = 3;
    /** Attempts per save/load on transient I/O failure (>= 1). */
    int ioRetries = 3;
    /** Base backoff between retries; doubles per attempt (jittered
     *  per RetryPolicy, capped at ioMaxBackoffMs). */
    double ioBackoffMs = 1.0;
    /** Cap on the exponential backoff growth. */
    double ioMaxBackoffMs = 1000.0;
    /** Seed for the deterministic retry jitter stream. */
    std::uint64_t ioRetrySeed = 0;

    /** The equivalent withRetries() policy. */
    RetryPolicy retryPolicy() const;
};

/** Crash-safe store of step-indexed checkpoints in one directory. */
class CheckpointManager
{
  public:
    explicit CheckpointManager(CheckpointManagerOptions options);

    /**
     * Persist the payload `emit` writes as the checkpoint for `step`
     * (crash-safe, streamed, re-run on transient failure) and prune
     * old checkpoints. On failure the store is unchanged and training
     * can continue.
     */
    IoStatus save(std::int64_t step, const PayloadEmitter &emit);

    /** save() of an in-memory payload. */
    IoStatus save(std::int64_t step, const std::string &payload);

    /** Decodes the payload of the checkpoint for `step`. */
    using StepDecoder =
        std::function<IoStatus(BinaryReader &in, std::int64_t step)>;

    /**
     * Find the newest checkpoint that validates, falling back to
     * older ones past corrupt/truncated files (each skip logged),
     * and stream its payload to `decode`; `decode`'s status is
     * returned as is, with no fallback, since a valid file that does
     * not decode means an incompatible run. NotFound when the
     * directory holds no loadable checkpoint.
     */
    IoStatus loadLatest(const StepDecoder &decode, std::int64_t &stepOut);

    /** loadLatest() into an in-memory payload. */
    IoStatus loadLatest(std::string &payloadOut, std::int64_t &stepOut);

    /** Steps with a checkpoint file present, ascending. */
    std::vector<std::int64_t> listSteps() const;

    /** `dir/ckpt-<step>.bpck`. */
    std::string pathForStep(std::int64_t step) const;

    const CheckpointManagerOptions &options() const { return options_; }

  private:
    CheckpointManagerOptions options_;
};

} // namespace bertprof

#endif // BERTPROF_IO_CHECKPOINT_H
