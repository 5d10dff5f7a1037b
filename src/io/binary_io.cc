// Raw POSIX and stdio I/O live here by design: src/io is the one
// layer allowed to touch files directly (bplint rule unchecked-io).
// Checkpoints use open/write/pread/fsync on a descriptor so the
// payload streams through one bounded buffer in each direction.

#include "io/binary_io.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/crc32.h"
#include "runtime/fault_injection.h"
#include "util/logging.h"

namespace bertprof {

namespace {

// Host is assumed little-endian (x86/ARM Linux); the magic check on
// read rejects cross-endian files outright rather than misreading
// them.
constexpr std::uint32_t kMagic = 0x314B5042u; // "BPK1" little-endian
constexpr std::size_t kHeaderBytes = 20;

/** Write all `size` bytes at the descriptor's offset. */
bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Read exactly `size` bytes at `offset`; false on EOF or error. */
bool
readAllAt(int fd, char *out, std::size_t size, std::uint64_t offset)
{
    while (size > 0) {
        const ssize_t n =
            ::pread(fd, out, size, static_cast<off_t>(offset));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        out += n;
        size -= static_cast<std::size_t>(n);
        offset += static_cast<std::uint64_t>(n);
    }
    return true;
}

/** Closes a descriptor on every return path. */
struct FdGuard {
    int fd;
    ~FdGuard()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** fsync the directory containing `path` so the rename is durable. */
void
syncParentDir(const std::string &path)
{
    std::string dir = ".";
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos)
        dir = path.substr(0, slash == 0 ? 1 : slash);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

BinaryWriter::BinaryWriter(int fd)
    : fd_(fd), stage_(new char[kStagingBytes])
{
}

void
BinaryWriter::u8(std::uint8_t v)
{
    bytes(&v, sizeof v);
}

void
BinaryWriter::u32(std::uint32_t v)
{
    bytes(&v, sizeof v);
}

void
BinaryWriter::u64(std::uint64_t v)
{
    bytes(&v, sizeof v);
}

void
BinaryWriter::i64(std::int64_t v)
{
    bytes(&v, sizeof v);
}

void
BinaryWriter::f32(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
}

void
BinaryWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
BinaryWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
BinaryWriter::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const char *>(data);
    size_ += size;
    if (fd_ < 0) {
        buf_.append(p, size);
        return;
    }
    if (staged_ + size > kStagingBytes) {
        flush();
        if (size >= kStagingBytes) {
            drain(p, size);
            return;
        }
    }
    std::memcpy(stage_.get() + staged_, p, size);
    staged_ += size;
}

void
BinaryWriter::drain(const char *data, std::size_t size)
{
    // One staging-sized piece at a time, so the bytes the CRC just
    // read are still in cache when write(2) copies them.
    while (size > 0 && !failed_) {
        const std::size_t n = std::min(size, kStagingBytes);
        crc_ = crc32(data, n, crc_);
        failed_ = !writeAll(fd_, data, n);
        data += n;
        size -= n;
    }
}

bool
BinaryWriter::flush()
{
    if (fd_ >= 0) {
        drain(stage_.get(), staged_);
        staged_ = 0;
    }
    return !failed_;
}

BinaryReader::BinaryReader(std::string data)
    : data_(std::move(data)), end_(data_.size())
{
}

BinaryReader::BinaryReader(int fd, std::uint64_t offset,
                           std::uint64_t size)
    : fd_(fd), stage_(new char[kStagingBytes]), offset_(offset),
      unread_(size)
{
}

const char *
BinaryReader::window() const
{
    return fd_ < 0 ? data_.data() : stage_.get();
}

bool
BinaryReader::take(void *out, std::size_t size)
{
    auto *dst = static_cast<char *>(out);
    if (failed_ || size > remaining()) {
        failed_ = true;
        std::memset(out, 0, size);
        return false;
    }
    const std::size_t buffered = end_ - pos_;
    if (size <= buffered) {
        std::memcpy(dst, window() + pos_, size);
        pos_ += size;
        return true;
    }
    // Only a file-backed reader gets here: the window runs dry.
    std::memcpy(dst, window() + pos_, buffered);
    pos_ = end_;
    const std::size_t rest = size - buffered;
    bool ok;
    if (rest >= kStagingBytes) {
        ok = readAllAt(fd_, dst + buffered, rest, offset_);
        offset_ += rest;
        unread_ -= rest;
    } else {
        const auto refill = static_cast<std::size_t>(
            std::min<std::uint64_t>(unread_, kStagingBytes));
        ok = readAllAt(fd_, stage_.get(), refill, offset_);
        offset_ += refill;
        unread_ -= refill;
        end_ = refill;
        pos_ = rest;
        std::memcpy(dst + buffered, stage_.get(), rest);
    }
    if (!ok) {
        failed_ = true;
        std::memset(out, 0, size);
    }
    return ok;
}

std::uint8_t
BinaryReader::u8()
{
    std::uint8_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::uint32_t
BinaryReader::u32()
{
    std::uint32_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::uint64_t
BinaryReader::u64()
{
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
}

std::int64_t
BinaryReader::i64()
{
    std::int64_t v = 0;
    take(&v, sizeof v);
    return v;
}

float
BinaryReader::f32()
{
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

double
BinaryReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
BinaryReader::str()
{
    const std::uint32_t size = u32();
    // Bounded by the bytes left, so a corrupt length can neither
    // over-read nor allocate more than the payload holds.
    if (failed_ || size > remaining()) {
        failed_ = true;
        return "";
    }
    std::string s(size, '\0');
    take(s.data(), size);
    return s;
}

void
BinaryReader::bytes(void *out, std::size_t size)
{
    take(out, size);
}

bool
BinaryReader::rest(std::string &out)
{
    out.resize(static_cast<std::size_t>(remaining()));
    if (!take(out.data(), out.size()))
        out.clear();
    return !failed_;
}

IoStatus
writeFileAtomic(const std::string &path, const PayloadEmitter &emit,
                std::uint32_t version)
{
    const FaultKind fault = faultAt("io.write");
    if (fault == FaultKind::IoError) {
        return IoStatus::failure(
            IoError::Transient,
            "transient write failure injected for " + path);
    }

    const std::string tmp = path + ".tmp";
    FdGuard file{::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)};
    if (file.fd < 0) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "cannot open " + tmp + " for writing");
    }
    // The payload streams after a header whose size and CRC are known
    // only once it has all gone out; they are written last, in place.
    char header[kHeaderBytes] = {};
    const std::uint32_t magic = kMagic;
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &version, 4);
    BinaryWriter out(file.fd);
    bool wrote = writeAll(file.fd, header, sizeof header);
    if (wrote) {
        emit(out);
        wrote = out.flush();
    }
    if (wrote) {
        const std::uint64_t size = out.size();
        const std::uint32_t crc = out.crc();
        std::memcpy(header + 8, &size, 8);
        std::memcpy(header + 16, &crc, 4);
        wrote = ::pwrite(file.fd, header, sizeof header, 0) ==
                static_cast<ssize_t>(sizeof header);
    }
    // A torn write models dying mid-flush: only the first half of the
    // file's bytes survive in the temp file and the commit rename
    // never happens, so the previously committed checkpoint (if any)
    // stays intact.
    if (fault == FaultKind::TornWrite) {
        const auto half =
            static_cast<off_t>((sizeof header + out.size()) / 2);
        if (::ftruncate(file.fd, half) != 0) {
            BP_LOG(Warn) << "could not truncate " << tmp
                         << " for the injected torn write";
        }
        return IoStatus::failure(IoError::WriteFailed,
                                 "torn write injected for " + tmp +
                                     " (file left truncated)");
    }
    if (!wrote) {
        std::remove(tmp.c_str());
        return IoStatus::failure(IoError::WriteFailed,
                                 "short write to " + tmp);
    }
    if (::fsync(file.fd) != 0) {
        std::remove(tmp.c_str());
        return IoStatus::failure(IoError::WriteFailed,
                                 "flush/fsync failed for " + tmp);
    }
    ::close(file.fd);
    file.fd = -1;

    if (faultAt("io.commit") == FaultKind::TornWrite) {
        return IoStatus::failure(IoError::WriteFailed,
                                 "crash injected between write and "
                                 "rename for " +
                                     path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return IoStatus::failure(IoError::RenameFailed,
                                 "rename " + tmp + " -> " + path +
                                     " failed");
    }
    syncParentDir(path);
    return IoStatus::success();
}

IoStatus
writeFileAtomic(const std::string &path, const std::string &payload,
                std::uint32_t version)
{
    return writeFileAtomic(
        path,
        [&](BinaryWriter &out) { out.bytes(payload.data(), payload.size()); },
        version);
}

IoStatus
readFileValidated(const std::string &path, const PayloadDecoder &decode,
                  std::uint32_t version)
{
    if (faultAt("io.read") == FaultKind::IoError) {
        return IoStatus::failure(
            IoError::Transient,
            "transient read failure injected for " + path);
    }

    const FdGuard file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
    if (file.fd < 0)
        return IoStatus::failure(IoError::NotFound, "cannot open " + path);

    char header[kHeaderBytes];
    struct ::stat st;
    if (!readAllAt(file.fd, header, sizeof header, 0) ||
        ::fstat(file.fd, &st) != 0) {
        return IoStatus::failure(IoError::Truncated,
                                 path + " is shorter than the "
                                        "checkpoint header");
    }
    std::uint32_t magic, file_version, crc;
    std::uint64_t size;
    std::memcpy(&magic, header, 4);
    std::memcpy(&file_version, header + 4, 4);
    std::memcpy(&size, header + 8, 8);
    std::memcpy(&crc, header + 16, 4);
    if (magic != kMagic) {
        return IoStatus::failure(IoError::BadMagic,
                                 path + " is not a bertprof "
                                        "checkpoint (bad magic)");
    }
    if (file_version != version) {
        return IoStatus::failure(
            IoError::BadVersion,
            path + " has format version " +
                std::to_string(file_version) + ", expected " +
                std::to_string(version));
    }
    // The header is outside the CRC, so `size` is checked against the
    // file before it sizes anything.
    const std::uint64_t available =
        static_cast<std::uint64_t>(st.st_size) - sizeof header;
    if (size > available) {
        return IoStatus::failure(
            IoError::Truncated,
            path + " payload truncated (" + std::to_string(available) +
                " of " + std::to_string(size) + " bytes)");
    }

    // Pass 1: the CRC, in staging-sized chunks.
    {
        const std::unique_ptr<char[]> chunk(new char[kStagingBytes]);
        std::uint32_t got = 0;
        for (std::uint64_t done = 0; done < size;) {
            const auto n = static_cast<std::size_t>(
                std::min<std::uint64_t>(size - done, kStagingBytes));
            if (!readAllAt(file.fd, chunk.get(), n,
                           sizeof header + done)) {
                return IoStatus::failure(
                    IoError::Truncated,
                    path + " payload truncated (" +
                        std::to_string(done) + " of " +
                        std::to_string(size) + " bytes)");
            }
            got = crc32(chunk.get(), n, got);
            done += n;
        }
        if (got != crc) {
            return IoStatus::failure(IoError::BadChecksum,
                                     "payload CRC mismatch in " + path);
        }
    }

    // Pass 2: decode from the same open file.
    BinaryReader in(file.fd, sizeof header, size);
    return decode(in);
}

IoStatus
readFileValidated(const std::string &path, std::string &payloadOut,
                  std::uint32_t version)
{
    payloadOut.clear();
    return readFileValidated(
        path,
        [&](BinaryReader &in) {
            return in.rest(payloadOut)
                       ? IoStatus::success()
                       : IoStatus::failure(IoError::Truncated,
                                           path + " payload truncated");
        },
        version);
}

IoStatus
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return IoStatus::failure(IoError::OpenFailed,
                                 "cannot open " + path + " for writing");
    }
    const std::size_t wrote = content.empty()
                                  ? 0
                                  : std::fwrite(content.data(), 1,
                                                content.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (wrote != content.size() || !flushed)
        return IoStatus::failure(IoError::WriteFailed,
                                 "short write to " + path);
    return IoStatus::success();
}

namespace {

std::atomic<IoRetrySink> g_io_retry_sink{nullptr};

/** splitmix64: the standard 64-bit finalizing mixer. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic u in [0, 1) for retry `attempt` under `seed`. */
double
jitterUnit(std::uint64_t seed, int attempt)
{
    const std::uint64_t h =
        splitmix64(seed ^ (static_cast<std::uint64_t>(attempt) *
                           0xd1342543de82ef95ULL));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

void
installIoRetrySink(IoRetrySink sink)
{
    g_io_retry_sink.store(sink, std::memory_order_release);
}

IoStatus
withRetries(const RetryPolicy &policy,
            const std::function<IoStatus()> &op)
{
    BP_REQUIRE(policy.attempts >= 1);
    BP_REQUIRE(policy.backoffMs >= 0.0);
    BP_REQUIRE(policy.jitter >= 0.0 && policy.jitter <= 1.0);
    IoStatus status;
    for (int attempt = 0; attempt < policy.attempts; ++attempt) {
        if (attempt > 0) {
            double ms = policy.backoffMs *
                        static_cast<double>(1ULL << (attempt - 1 < 62
                                                         ? attempt - 1
                                                         : 62));
            if (ms > policy.maxBackoffMs)
                ms = policy.maxBackoffMs;
            if (policy.jitter > 0.0)
                ms *= 1.0 - policy.jitter / 2.0 +
                      policy.jitter * jitterUnit(policy.seed, attempt);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ms));
            if (IoRetrySink sink =
                    g_io_retry_sink.load(std::memory_order_acquire))
                sink(1);
            BP_LOG(Warn) << "io retry " << attempt << "/"
                         << policy.attempts - 1
                         << " after transient failure: "
                         << status.message;
        }
        status = op();
        if (status.error != IoError::Transient)
            return status;
    }
    return status;
}

IoStatus
withRetries(int attempts, double backoffMs,
            const std::function<IoStatus()> &op)
{
    RetryPolicy policy;
    policy.attempts = attempts;
    policy.backoffMs = backoffMs;
    return withRetries(policy, op);
}

const char *
ioErrorName(IoError error)
{
    switch (error) {
    case IoError::None:
        return "ok";
    case IoError::OpenFailed:
        return "open-failed";
    case IoError::WriteFailed:
        return "write-failed";
    case IoError::RenameFailed:
        return "rename-failed";
    case IoError::Transient:
        return "transient";
    case IoError::NotFound:
        return "not-found";
    case IoError::Truncated:
        return "truncated";
    case IoError::BadMagic:
        return "bad-magic";
    case IoError::BadVersion:
        return "bad-version";
    case IoError::BadChecksum:
        return "bad-checksum";
    case IoError::BadFormat:
        return "bad-format";
    }
    return "unknown";
}

std::string
IoStatus::toString() const
{
    if (ok())
        return "ok";
    std::string out = ioErrorName(error);
    if (!message.empty()) {
        out += ": ";
        out += message;
    }
    return out;
}

} // namespace bertprof
