/**
 * @file
 * The checkpoint path's memory bound, pinned independently of the
 * host: saving and resuming a Trainer state of more than 16 MiB may
 * make no single heap allocation larger than the one staging buffer
 * (kStagingBytes). This executable replaces the global operator new
 * to record the largest request made while a probe is armed, so it
 * is its own test binary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "checkpoint_rig.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_largest{0};
std::atomic<std::size_t> g_total{0};

void *
counted(std::size_t size, std::size_t align)
{
    if (g_armed.load(std::memory_order_relaxed)) {
        g_total.fetch_add(size, std::memory_order_relaxed);
        std::size_t seen = g_largest.load(std::memory_order_relaxed);
        while (size > seen &&
               !g_largest.compare_exchange_weak(seen, size,
                                                std::memory_order_relaxed)) {
        }
    }
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size == 0 ? 1 : size);
    } else if (::posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
        p = nullptr;
    }
    return p;
}

void *
countedOrThrow(std::size_t size, std::size_t align)
{
    void *p = counted(size, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedOrThrow(n, 0); }
void *operator new[](std::size_t n) { return countedOrThrow(n, 0); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedOrThrow(n, static_cast<std::size_t>(a));
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedOrThrow(n, static_cast<std::size_t>(a));
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(n, 0);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(n, 0);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace bertprof {
namespace {

namespace fs = std::filesystem;

/** Records the largest allocation made while it is alive. */
class AllocationProbe
{
  public:
    AllocationProbe()
    {
        g_largest.store(0);
        g_total.store(0);
        g_armed.store(true);
    }
    ~AllocationProbe() { g_armed.store(false); }

    std::size_t largest() const { return g_largest.load(); }
    std::size_t total() const { return g_total.load(); }
};

/**
 * Three layers at dModel 256 with dFf 768 and a 512-token vocabulary:
 * every parameter (so every optimizer moment) is at most 768 KiB, and
 * parameters plus both LAMB moments come to more than 16 MiB.
 */
BertConfig
sixteenMiBConfig()
{
    BertConfig c = testing::nanoCheckpointConfig();
    c.numLayers = 3;
    c.dModel = 256;
    c.numHeads = 4;
    c.dFf = 768;
    c.vocabSize = 512;
    c.maxPositions = 64;
    return c;
}

TEST(CheckpointMemory, SaveAndResumeAllocateNothingAboveTheStagingBuffer)
{
    const std::string dir = ::testing::TempDir() + "bp_ckpt_memory";
    fs::remove_all(dir);
    fs::create_directories(dir);

    testing::CheckpointRig live(sixteenMiBConfig(), dir);
    live.trainer.trainStep(); // so the LAMB moments exist
    {
        AllocationProbe probe;
        ASSERT_TRUE(live.trainer.saveCheckpoint().ok());
        EXPECT_LE(probe.largest(), kStagingBytes);
        // The staging buffer plus names and RNG text: nothing that
        // grows with the state.
        EXPECT_LT(probe.total(), 2 * kStagingBytes);
    }
    const std::string path =
        dir + "/ckpt-" + std::to_string(live.trainer.iteration()) + ".bpck";
    ASSERT_GE(fs::file_size(path), std::uintmax_t{16} << 20);

    testing::CheckpointRig fresh(sixteenMiBConfig(), dir, 99);
    {
        // Resume may allocate the optimizer moments it restores (each
        // one parameter's size) but no payload-sized buffer.
        AllocationProbe probe;
        const IoStatus s = fresh.trainer.resumeLatest();
        ASSERT_TRUE(s.ok()) << s.toString();
        EXPECT_LE(probe.largest(), kStagingBytes);
    }
    EXPECT_EQ(fresh.trainer.iteration(), live.trainer.iteration());
}

} // namespace
} // namespace bertprof
