/**
 * @file
 * Little-endian binary serialization plus the crash-safe file
 * container every checkpoint rides in.
 *
 * Container layout (all integers little-endian):
 *
 *   u32  magic   0x314B5042 ("BPK1")
 *   u32  version format version of the payload
 *   u64  payload size in bytes
 *   u32  crc32   CRC-32 of the payload bytes
 *   ...  payload
 *
 * The container is streamed both ways through one kStagingBytes
 * buffer, so no buffer is ever the size of the payload.
 * writeFileAtomic() follows the standard crash-safe protocol: write
 * to `<path>.tmp` (the payload emitter writes through a BinaryWriter
 * bound to the file, and the size and CRC land in the header last),
 * fsync, then rename(2) over `path` — a reader never observes a
 * half-written file under POSIX rename atomicity, and a crash at any
 * instant leaves either the old file or the new one, never a blend.
 * readFileValidated() checks magic, version, the declared length
 * against the file's, and the CRC (pass 1) before a single payload
 * byte is handed to the decoder (pass 2), returning typed IoStatus
 * errors instead of aborting.
 *
 * Fault-injection sites (runtime/fault_injection.h): `io.write`
 * (torn / ioerr), `io.commit` (torn = crash before rename), and
 * `io.read` (ioerr) — the hooks the robustness tests use to prove
 * the recovery paths.
 */

#ifndef BERTPROF_IO_BINARY_IO_H
#define BERTPROF_IO_BINARY_IO_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "io/io_status.h"

namespace bertprof {

/** Size of the one staging buffer a streaming BinaryWriter or
 *  BinaryReader holds: the bound on the memory checkpoint I/O takes
 *  beyond the state itself. */
constexpr std::size_t kStagingBytes = std::size_t{1} << 20;

/**
 * Little-endian binary encoder. Default-constructed, it grows an
 * in-memory buffer(); bound to a file, it streams: small values are
 * staged in one kStagingBytes buffer, runs of kStagingBytes or more
 * go from the caller's memory straight to write(2), and a running
 * CRC-32 covers every byte that reached the file.
 */
class BinaryWriter
{
  public:
    BinaryWriter() = default;
    /** Streams to the open file `fd` (not owned) at its offset. */
    explicit BinaryWriter(int fd);
    BinaryWriter(const BinaryWriter &) = delete;
    BinaryWriter &operator=(const BinaryWriter &) = delete;

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    /** Exact bit pattern — round-trips are bitwise. */
    void f32(float v);
    /** Exact bit pattern — round-trips are bitwise. */
    void f64(double v);
    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);
    /** Raw bytes, no length prefix. */
    void bytes(const void *data, std::size_t size);

    /** Write out the staged bytes. False once any write to the file
     *  failed (the first failure latches; later output is dropped). */
    bool flush();
    /** Bytes encoded so far. */
    std::uint64_t size() const { return size_; }
    /** CRC-32 of the bytes flushed to the file so far. */
    std::uint32_t crc() const { return crc_; }
    /** The in-memory encoding (empty when streaming). */
    const std::string &buffer() const { return buf_; }

  private:
    void drain(const char *data, std::size_t size);

    std::string buf_;
    int fd_ = -1;
    std::unique_ptr<char[]> stage_;
    std::size_t staged_ = 0;
    std::uint64_t size_ = 0;
    std::uint32_t crc_ = 0;
    bool failed_ = false;
};

/**
 * Sequential reader over a payload held in memory or streamed from a
 * file through one kStagingBytes buffer (runs of kStagingBytes or
 * more are read straight into the destination). Every read is
 * bounded by the bytes left; the first underrun or read error
 * latches failed(), and every later read returns zero values, so
 * callers may decode a whole record and check once.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(std::string data);
    /** The `size` bytes of the open file `fd` (not owned) that start
     *  at `offset`. */
    BinaryReader(int fd, std::uint64_t offset, std::uint64_t size);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    float f32();
    double f64();
    /** Length-prefixed string; a length past the end fails. */
    std::string str();
    /** Copy `size` raw bytes into `out`. */
    void bytes(void *out, std::size_t size);
    /** Every byte left, into `out`; false (and `out` empty) on a
     *  read error. */
    bool rest(std::string &out);

    bool failed() const { return failed_; }
    std::uint64_t remaining() const { return (end_ - pos_) + unread_; }

  private:
    bool take(void *out, std::size_t size);
    const char *window() const;

    std::string data_;
    int fd_ = -1;
    std::unique_ptr<char[]> stage_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    std::uint64_t offset_ = 0;
    std::uint64_t unread_ = 0;
    bool failed_ = false;
};

/** Format version stamped into the container header. */
constexpr std::uint32_t kCheckpointFormatVersion = 1;

/**
 * Encodes one container's payload into a streaming writer. It may run
 * more than once: a retried save re-runs it on a fresh temp file.
 */
using PayloadEmitter = std::function<void(BinaryWriter &out)>;

/**
 * Decodes a validated payload; its status becomes the read's. It runs
 * only after the magic, version, length and CRC checks passed.
 */
using PayloadDecoder = std::function<IoStatus(BinaryReader &in)>;

/**
 * Crash-safely replace `path` with header + the payload `emit`
 * writes (temp file, fsync, atomic rename, directory fsync). Returns
 * typed errors; on failure the previous contents of `path` are
 * untouched.
 */
IoStatus writeFileAtomic(const std::string &path,
                         const PayloadEmitter &emit,
                         std::uint32_t version = kCheckpointFormatVersion);

/** writeFileAtomic() of an in-memory payload. */
IoStatus writeFileAtomic(const std::string &path,
                         const std::string &payload,
                         std::uint32_t version = kCheckpointFormatVersion);

/**
 * Validate a container written by writeFileAtomic(), then stream its
 * payload to `decode`. Pass 1 checks magic, version, the declared
 * length against the file's length and the CRC, reading the payload
 * in kStagingBytes chunks; any mismatch is a typed error and `decode`
 * never runs. Pass 2 hands `decode` a reader over the same open
 * file, so its bytes are the ones pass 1 checked.
 */
IoStatus readFileValidated(const std::string &path,
                           const PayloadDecoder &decode,
                           std::uint32_t version = kCheckpointFormatVersion);

/**
 * readFileValidated() into an in-memory payload. On any error
 * `payloadOut` is left empty.
 */
IoStatus readFileValidated(const std::string &path,
                           std::string &payloadOut,
                           std::uint32_t version = kCheckpointFormatVersion);

/**
 * Checked whole-file text write for exporters (CSV, traces): builds
 * on the same error taxonomy but without the binary container or the
 * temp-file dance (reports are not crash-critical).
 */
IoStatus writeTextFile(const std::string &path, const std::string &content);

/**
 * Bounded retry-with-backoff policy for flaky storage. The delay
 * before retry i (1-based) is
 *
 *   min(backoffMs * 2^(i-1), maxBackoffMs) * (1 - jitter/2 + jitter*u)
 *
 * where u in [0, 1) is drawn from a splitmix64 stream keyed by
 * (seed, i) — deterministic and wall-clock-free, so two processes
 * started with different seeds decorrelate their retry storms while
 * any single run replays identically.
 */
struct RetryPolicy {
    /** Total tries, including the first (>= 1). */
    int attempts = 3;
    /** Base delay before the first retry, in milliseconds. */
    double backoffMs = 1.0;
    /** Cap on the exponential growth, in milliseconds. */
    double maxBackoffMs = 1000.0;
    /** Multiplicative jitter width in [0, 1]; 0 = pure exponential. */
    double jitter = 0.5;
    /** Seed for the deterministic jitter stream. */
    std::uint64_t seed = 0;
};

/**
 * Retry-attempt observer, installed by the telemetry layer (which
 * sits above io in the include DAG) so retries show up as the
 * `io.retry.attempts` counter without io depending on telemetry.
 * Called once per *retry* (not per first try) with count 1; nullptr
 * uninstalls. The installed sink must be thread-safe.
 */
using IoRetrySink = void (*)(std::int64_t retries);
void installIoRetrySink(IoRetrySink sink);

/**
 * Run `op` up to policy.attempts times, backing off per `policy`, as
 * long as it keeps failing with IoError::Transient. Any other outcome
 * (success or a permanent error) returns immediately. Each retry is
 * reported to the installed IoRetrySink, if any.
 */
IoStatus withRetries(const RetryPolicy &policy,
                     const std::function<IoStatus()> &op);

/** Legacy form: attempts + base backoff, defaults for the rest. */
IoStatus withRetries(int attempts, double backoffMs,
                     const std::function<IoStatus()> &op);

} // namespace bertprof

#endif // BERTPROF_IO_BINARY_IO_H
