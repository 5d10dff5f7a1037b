/**
 * Tests for the packed, register-blocked GEMM engine
 * (ops/gemm_microkernel.h): packed-vs-reference cross-checks over
 * shapes chosen to stress every edge path (smaller than one register
 * tile, prime extents, degenerate vectors, block-boundary
 * straddlers), all four transpose combinations, the alpha/beta
 * semantics grid, packing-layout unit tests, aliasing rejection, and
 * the BERTPROF_GEMM_IMPL resolution order. The oracle grid, the
 * batched case, k == 0 and bitwise row invariance also run against
 * every ISA variant the host supports, through each variant's entry
 * point; unsupported variants are skipped.
 */

#include <bit>
#include <cstdlib>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ops/gemm.h"
#include "ops/gemm_microkernel.h"
#include "ops/pack.h"
#include "runtime/config.h"
#include "util/rng.h"

namespace bertprof {

/** Names a variant in test output (found by ADL). */
void
PrintTo(const GemmVariant &v, std::ostream *os)
{
    *os << v.name << " (" << v.mr << "x" << v.nr << ")";
}

namespace {

/** Naive double-accumulation oracle (same as test_gemm.cc's). */
void
naiveGemm(const Tensor &a, const Tensor &b, Tensor &c, bool trans_a,
          bool trans_b, float alpha, float beta)
{
    const std::int64_t m = trans_a ? a.shape().dim(1) : a.shape().dim(0);
    const std::int64_t k = trans_a ? a.shape().dim(0) : a.shape().dim(1);
    const std::int64_t n = trans_b ? b.shape().dim(0) : b.shape().dim(1);
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a.at(p, i) : a.at(i, p);
                const float bv = trans_b ? b.at(j, p) : b.at(p, j);
                acc += static_cast<double>(av) * bv;
            }
            const float prior = beta == 0.0f ? 0.0f : beta * c.at(i, j);
            c.at(i, j) = alpha * static_cast<float>(acc) + prior;
        }
    }
}

/** c = alpha * op(a) op(b) + beta * c over rows [row_begin,
 * row_end) of c, through one variant's entry point. */
void
runVariant(const GemmVariant &v, const Tensor &a, const Tensor &b, Tensor &c,
           bool trans_a, bool trans_b, float alpha, float beta,
           std::int64_t row_begin, std::int64_t row_end)
{
    const std::int64_t m = c.shape().dim(0);
    const std::int64_t n = c.shape().dim(1);
    const std::int64_t k = trans_a ? a.shape().dim(0) : a.shape().dim(1);
    v.rows(a.data(), b.data(), c.data(), m, n, k, trans_a, trans_b, alpha,
           beta, row_begin, row_end);
}

void
runVariant(const GemmVariant &v, const Tensor &a, const Tensor &b, Tensor &c,
           bool trans_a, bool trans_b, float alpha, float beta)
{
    runVariant(v, a, b, c, trans_a, trans_b, alpha, beta, 0,
               c.shape().dim(0));
}

/** Number of elements whose bit patterns differ. */
std::int64_t
bitMismatches(const float *x, const float *y, std::int64_t count)
{
    std::int64_t bad = 0;
    for (std::int64_t i = 0; i < count; ++i)
        bad += std::bit_cast<std::uint32_t>(x[i]) !=
               std::bit_cast<std::uint32_t>(y[i]);
    return bad;
}

using GemmCall = std::function<void(const Tensor &, const Tensor &,
                                    Tensor &, bool, bool, float, float)>;

/** All four trans combos x the alpha/beta grid against the oracle. */
void
expectGridMatchesNaive(std::int64_t m, std::int64_t n, std::int64_t k,
                       const GemmCall &call)
{
    Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 104729 + k));
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
            Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            for (const float alpha : {0.0f, 1.0f, -2.5f}) {
                for (const float beta : {0.0f, 1.0f, -2.5f}) {
                    Tensor c(Shape({m, n})), ref(Shape({m, n}));
                    c.fillNormal(rng);
                    for (std::int64_t i = 0; i < c.numel(); ++i)
                        ref.at(i) = c.at(i);
                    call(a, b, c, trans_a, trans_b, alpha, beta);
                    naiveGemm(a, b, ref, trans_a, trans_b, alpha, beta);
                    // Error scales with the k-long dot products.
                    const float tol =
                        1e-4f * static_cast<float>(k > 0 ? k : 1);
                    EXPECT_LT(maxAbsDiff(c, ref), tol)
                        << "m=" << m << " n=" << n << " k=" << k
                        << " tA=" << trans_a << " tB=" << trans_b
                        << " alpha=" << alpha << " beta=" << beta;
                }
            }
        }
    }
}

using BatchedCall = std::function<void(const Tensor &, const Tensor &,
                                       Tensor &, bool, bool)>;

/** A [batch, m, n] GEMM against the oracle, one group at a time. */
void
expectBatchedMatchesNaive(const BatchedCall &call)
{
    Rng rng(31337);
    const std::int64_t batch = 5, m = 37, n = 23, k = 41;
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({batch, k, m}) : Shape({batch, m, k}));
            Tensor b(trans_b ? Shape({batch, n, k}) : Shape({batch, k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            Tensor c(Shape({batch, m, n}));
            call(a, b, c, trans_a, trans_b);

            const std::int64_t a_step = a.shape().dim(1) * a.shape().dim(2);
            const std::int64_t b_step = b.shape().dim(1) * b.shape().dim(2);
            for (std::int64_t g = 0; g < batch; ++g) {
                Tensor ag(trans_a ? Shape({k, m}) : Shape({m, k}));
                Tensor bg(trans_b ? Shape({n, k}) : Shape({k, n}));
                for (std::int64_t i = 0; i < a_step; ++i)
                    ag.at(i) = a.at(g * a_step + i);
                for (std::int64_t i = 0; i < b_step; ++i)
                    bg.at(i) = b.at(g * b_step + i);
                Tensor ref(Shape({m, n}));
                naiveGemm(ag, bg, ref, trans_a, trans_b, 1.0f, 0.0f);
                for (std::int64_t i = 0; i < m * n; ++i)
                    EXPECT_NEAR(c.at(g * m * n + i), ref.at(i), 1e-3f)
                        << "g=" << g << " tA=" << trans_a
                        << " tB=" << trans_b;
            }
        }
    }
}

class GemmMicrokernelTest : public ::testing::Test
{
  protected:
    void SetUp() override { setGemmImpl(GemmImpl::Packed); }
    void
    TearDown() override
    {
        clearGemmImplOverride();
        setNumThreads(0);
    }
};

using PackedCase = std::tuple<int, int, int>;

class PackedShapeTest : public ::testing::TestWithParam<PackedCase>
{
  protected:
    void SetUp() override { setGemmImpl(GemmImpl::Packed); }
    void TearDown() override { clearGemmImplOverride(); }
};

TEST_P(PackedShapeTest, AllTransAlphaBetaCombosMatchNaive)
{
    const auto [m, n, k] = GetParam();
    expectGridMatchesNaive(m, n, k,
                           [](const Tensor &a, const Tensor &b, Tensor &c,
                              bool trans_a, bool trans_b, float alpha,
                              float beta) {
                               gemm(a, b, c, trans_a, trans_b, alpha, beta);
                           });
}

const std::vector<PackedCase> kEdgeShapes = {
    // Smaller than one MR x NR register tile.
    PackedCase{1, 1, 1}, PackedCase{2, 3, 4}, PackedCase{3, 5, 2},
    // Degenerate row / column vectors.
    PackedCase{1, 97, 64}, PackedCase{97, 1, 64}, PackedCase{1, 1, 300},
    // Prime extents: every loop level ends in a ragged tile.
    PackedCase{7, 11, 13}, PackedCase{61, 67, 71}, PackedCase{127, 131, 257},
    // Exactly one cache block, and one element past it.
    PackedCase{96, 64, 256}, PackedCase{97, 65, 257},
    // K spanning multiple KC blocks (beta-chaining across blocks).
    PackedCase{33, 29, 600}};

INSTANTIATE_TEST_SUITE_P(EdgeAndBlockShapes, PackedShapeTest,
                         ::testing::ValuesIn(kEdgeShapes));

// ---------------------------------------------------------------------------
// Per-variant suites: each ISA variant's entry point, called directly.
// ---------------------------------------------------------------------------

std::string
variantName(const ::testing::TestParamInfo<GemmVariant> &info)
{
    return info.param.name;
}

/** Skips variants whose ISA this host (or its OS) lacks. */
void
skipUnlessSupported(const GemmVariant &v)
{
    if (!v.hostSupports())
        GTEST_SKIP() << v.name << " is not supported on this host";
}

class VariantTest : public ::testing::TestWithParam<GemmVariant>
{
  protected:
    void SetUp() override { skipUnlessSupported(GetParam()); }
};

using VariantShapeCase = std::tuple<GemmVariant, PackedCase>;

class VariantShapeTest : public ::testing::TestWithParam<VariantShapeCase>
{
  protected:
    void SetUp() override { skipUnlessSupported(std::get<0>(GetParam())); }
};

TEST_P(VariantShapeTest, AllTransAlphaBetaCombosMatchNaive)
{
    const GemmVariant &v = std::get<0>(GetParam());
    const auto [m, n, k] = std::get<1>(GetParam());
    expectGridMatchesNaive(m, n, k,
                           [&v](const Tensor &a, const Tensor &b, Tensor &c,
                                bool trans_a, bool trans_b, float alpha,
                                float beta) {
                               runVariant(v, a, b, c, trans_a, trans_b,
                                          alpha, beta);
                           });
}

std::string
variantShapeName(const ::testing::TestParamInfo<VariantShapeCase> &info)
{
    const auto [m, n, k] = std::get<1>(info.param);
    return std::string(std::get<0>(info.param).name) + "_" +
           std::to_string(m) + "x" + std::to_string(n) + "x" +
           std::to_string(k);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeAndBlockShapes, VariantShapeTest,
    ::testing::Combine(::testing::ValuesIn(gemmVariants()),
                       ::testing::ValuesIn(kEdgeShapes)),
    variantShapeName);

TEST_P(VariantTest, BatchedMatchesPerBatchNaive)
{
    // Group by group through the entry point, as batchedGemm() does.
    const GemmVariant &v = GetParam();
    expectBatchedMatchesNaive([&v](const Tensor &a, const Tensor &b,
                                   Tensor &c, bool trans_a, bool trans_b) {
        const std::int64_t batch = c.shape().dim(0);
        const std::int64_t m = c.shape().dim(1), n = c.shape().dim(2);
        const std::int64_t k = trans_a ? a.shape().dim(1) : a.shape().dim(2);
        for (std::int64_t g = 0; g < batch; ++g)
            v.rows(a.data() + g * m * k, b.data() + g * k * n,
                   c.data() + g * m * n, m, n, k, trans_a, trans_b, 1.0f,
                   0.0f, 0, m);
    });
}

TEST_P(VariantTest, ZeroKAppliesBeta)
{
    const GemmVariant &v = GetParam();
    const Tensor a(Shape({5, 0})), b(Shape({0, 7}));
    Tensor c(Shape({5, 7}));
    c.fill(3.0f);
    runVariant(v, a, b, c, false, false, 1.0f, 2.0f);
    for (std::int64_t i = 0; i < c.numel(); ++i)
        ASSERT_EQ(c.at(i), 6.0f) << v.name << " i=" << i;
    // beta == 0 overwrites, even a NaN.
    c.fill(std::numeric_limits<float>::quiet_NaN());
    runVariant(v, a, b, c, false, false, 1.0f, 0.0f);
    for (std::int64_t i = 0; i < c.numel(); ++i)
        ASSERT_EQ(c.at(i), 0.0f) << v.name << " i=" << i;
}

TEST_P(VariantTest, RowsAreBitwiseInvariantToBatchingAndMcSplits)
{
    // Kernel-level form of the serve padding gate and of thread-count
    // invariance: a row's bits may not depend on where it sits in the
    // GEMM. Rows of an M = 8 * rows GEMM must match the same rows
    // computed alone (M = rows, so they land at other tile offsets)
    // and the whole GEMM split into two calls at an MC boundary. K
    // spans two KC blocks and N ends in a ragged tile for every NR,
    // so both the beta-folding and the accumulating store run on full
    // and ragged tiles.
    const GemmVariant &v = GetParam();
    const std::int64_t rows = 13, groups = 8, m = rows * groups;
    const std::int64_t n = 45, k = kGemmKC + 44;
    ASSERT_GT(m, kGemmMC);
    Rng rng(2718);
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            for (const float beta : {0.0f, 0.75f}) {
                Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
                Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
                Tensor c0(Shape({m, n}));
                a.fillNormal(rng);
                b.fillNormal(rng);
                c0.fillNormal(rng);
                const float alpha = 1.5f;

                Tensor whole = c0.clone();
                runVariant(v, a, b, whole, trans_a, trans_b, alpha, beta);

                Tensor split = c0.clone();
                runVariant(v, a, b, split, trans_a, trans_b, alpha, beta, 0,
                           kGemmMC);
                runVariant(v, a, b, split, trans_a, trans_b, alpha, beta,
                           kGemmMC, m);
                EXPECT_EQ(bitMismatches(whole.data(), split.data(), m * n),
                          0)
                    << v.name << " MC split tA=" << trans_a
                    << " tB=" << trans_b << " beta=" << beta;

                for (std::int64_t g = 0; g < groups; ++g) {
                    Tensor ag(trans_a ? Shape({k, rows}) : Shape({rows, k}));
                    for (std::int64_t i = 0; i < rows; ++i)
                        for (std::int64_t p = 0; p < k; ++p) {
                            if (trans_a)
                                ag.at(p, i) = a.at(p, g * rows + i);
                            else
                                ag.at(i, p) = a.at(g * rows + i, p);
                        }
                    Tensor cg(Shape({rows, n}));
                    for (std::int64_t i = 0; i < rows * n; ++i)
                        cg.at(i) = c0.at(g * rows * n + i);
                    runVariant(v, ag, b, cg, trans_a, trans_b, alpha, beta);
                    EXPECT_EQ(bitMismatches(whole.data() + g * rows * n,
                                            cg.data(), rows * n),
                              0)
                        << v.name << " group " << g << " tA=" << trans_a
                        << " tB=" << trans_b << " beta=" << beta;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantTest,
                         ::testing::ValuesIn(gemmVariants()), variantName);

TEST(GemmVariants, SelectedIsWidestSupportedAndPublicPathRunsIt)
{
    const auto variants = gemmVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants[0].name, "baseline");
    EXPECT_TRUE(variants[0].hostSupports());
    const GemmVariant *widest = &variants[0];
    for (const GemmVariant &v : variants) {
        EXPECT_EQ(kGemmMC % v.mr, 0) << v.name;
        EXPECT_EQ(kGemmNC % v.nr, 0) << v.name;
        if (v.hostSupports())
            widest = &v;
    }
    const GemmVariant &selected = selectedGemmVariant();
    EXPECT_EQ(&selected, widest);
    EXPECT_EQ(kGemmMR, selected.mr);
    EXPECT_EQ(kGemmNR, selected.nr);

    // gemm() and batchedGemm() are bitwise the selected entry point.
    setGemmImpl(GemmImpl::Packed);
    Rng rng(99);
    const std::int64_t m = 70, n = 41, k = 300;
    Tensor a(Shape({m, k})), b(Shape({k, n}));
    a.fillNormal(rng);
    b.fillNormal(rng);
    Tensor via_gemm(Shape({m, n})), direct(Shape({m, n}));
    gemm(a, b, via_gemm);
    runVariant(selected, a, b, direct, false, false, 1.0f, 0.0f);
    EXPECT_EQ(bitMismatches(via_gemm.data(), direct.data(), m * n), 0);

    Tensor ab(Shape({2, m, k})), bb(Shape({2, k, n}));
    ab.fillNormal(rng);
    bb.fillNormal(rng);
    Tensor via_batched(Shape({2, m, n})), direct_b(Shape({2, m, n}));
    batchedGemm(ab, bb, via_batched);
    for (std::int64_t g = 0; g < 2; ++g)
        selected.rows(ab.data() + g * m * k, bb.data() + g * k * n,
                      direct_b.data() + g * m * n, m, n, k, false, false,
                      1.0f, 0.0f, 0, m);
    EXPECT_EQ(bitMismatches(via_batched.data(), direct_b.data(), 2 * m * n),
              0);
    clearGemmImplOverride();
}

TEST_F(GemmMicrokernelTest, PackedAndReferenceEnginesAgree)
{
    Rng rng(4242);
    const std::int64_t m = 143, n = 155, k = 301;
    for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
            Tensor a(trans_a ? Shape({k, m}) : Shape({m, k}));
            Tensor b(trans_b ? Shape({n, k}) : Shape({k, n}));
            a.fillNormal(rng);
            b.fillNormal(rng);
            Tensor c_packed(Shape({m, n})), c_ref(Shape({m, n}));

            setGemmImpl(GemmImpl::Packed);
            gemm(a, b, c_packed, trans_a, trans_b, 1.5f, 0.0f);
            setGemmImpl(GemmImpl::Reference);
            gemm(a, b, c_ref, trans_a, trans_b, 1.5f, 0.0f);

            EXPECT_LT(maxAbsDiff(c_packed, c_ref), 1e-2f)
                << "tA=" << trans_a << " tB=" << trans_b;
        }
    }
}

TEST_F(GemmMicrokernelTest, BatchedPackedMatchesPerBatchNaive)
{
    expectBatchedMatchesNaive([](const Tensor &a, const Tensor &b, Tensor &c,
                                 bool trans_a, bool trans_b) {
        batchedGemm(a, b, c, trans_a, trans_b, 1.0f, 0.0f);
    });
}

TEST_F(GemmMicrokernelTest, StatsIdenticalToReferenceEngine)
{
    Tensor a(Shape({19, 31})), b(Shape({31, 23})), c(Shape({19, 23}));
    setGemmImpl(GemmImpl::Packed);
    const KernelStats packed = gemm(a, b, c);
    setGemmImpl(GemmImpl::Reference);
    const KernelStats ref = gemm(a, b, c);
    EXPECT_EQ(packed.flops, ref.flops);
    EXPECT_EQ(packed.bytesRead, ref.bytesRead);
    EXPECT_EQ(packed.bytesWritten, ref.bytesWritten);
    EXPECT_EQ(packed.flops, 2 * 19 * 23 * 31);
}

TEST(GemmPack, PackAZeroPadsRaggedPanels)
{
    // 3x2 op(A), row-major (row_stride=2, col_stride=1), mr=4: one
    // panel, columns of op(A) laid out mr at a time, row 3 padded.
    const std::vector<float> a = {1, 2, 3, 4, 5, 6};
    std::vector<float> dst(4 * 2, -1.0f);
    packA(a.data(), 2, 1, 3, 2, 4, dst.data());
    const std::vector<float> want = {1, 3, 5, 0, 2, 4, 6, 0};
    EXPECT_EQ(dst, want);
}

TEST(GemmPack, PackATransposedMatchesLogicalView)
{
    // Storage is 2x3 (k=2 rows, m=3 cols); op(A) = A^T is 3x2 with
    // row_stride=1, col_stride=3. Same logical block as above.
    const std::vector<float> a_t = {1, 3, 5, 2, 4, 6};
    std::vector<float> dst(4 * 2, -1.0f);
    packA(a_t.data(), 1, 3, 3, 2, 4, dst.data());
    const std::vector<float> want = {1, 3, 5, 0, 2, 4, 6, 0};
    EXPECT_EQ(dst, want);
}

TEST(GemmPack, PackBZeroPadsRaggedPanels)
{
    // 2x3 op(B), row-major (row_stride=3, col_stride=1), nr=2: two
    // panels; the second holds only column 2 and pads the rest.
    const std::vector<float> b = {1, 2, 3, 4, 5, 6};
    std::vector<float> dst(2 * 2 * 2, -1.0f);
    packB(b.data(), 3, 1, 2, 3, 2, dst.data());
    const std::vector<float> want = {1, 2, 4, 5, 3, 0, 6, 0};
    EXPECT_EQ(dst, want);
}

TEST(GemmConfig, EnvironmentSelectsEngineAndOverrideWins)
{
    clearGemmImplOverride();
    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "reference", 1), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Reference);
    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "packed", 1), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);

    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "reference", 1), 0);
    setGemmImpl(GemmImpl::Packed);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);
    clearGemmImplOverride();
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Reference);

    // Unknown values fall back to the packed default (with a
    // one-time warning).
    ASSERT_EQ(::setenv("BERTPROF_GEMM_IMPL", "turbo", 1), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);

    ASSERT_EQ(::unsetenv("BERTPROF_GEMM_IMPL"), 0);
    EXPECT_EQ(configuredGemmImpl(), GemmImpl::Packed);
    EXPECT_STREQ(gemmImplName(GemmImpl::Packed), "packed");
    EXPECT_STREQ(gemmImplName(GemmImpl::Reference), "reference");
}

using GemmAliasDeath = GemmMicrokernelTest;

TEST_F(GemmAliasDeath, OutputAliasingAnInputIsRejected)
{
    Tensor a(Shape({8, 8})), b(Shape({8, 8}));
    EXPECT_EXIT(gemm(a, b, a), ::testing::ExitedWithCode(1),
                "requirement failed|contract failed");
    EXPECT_EXIT(gemm(a, b, b), ::testing::ExitedWithCode(1),
                "requirement failed|contract failed");
    Tensor ba(Shape({2, 4, 4})), bb(Shape({2, 4, 4}));
    EXPECT_EXIT(batchedGemm(ba, bb, ba), ::testing::ExitedWithCode(1),
                "requirement failed|contract failed");
}

} // namespace
} // namespace bertprof
