/**
 * @file
 * Fixture suite for the bplint rules: each feeds a known-bad source
 * snippet to lintSource() and asserts the expected rule fires at the
 * expected line — and that clean equivalents and suppression
 * directives do not fire. The snippets live in string literals, which
 * is also a regression test for the linter's own literal stripping
 * (bplint scans this file in the tree-wide lint run and must not
 * flag the rule names quoted here).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "lint.h"
#include "rules.h"

namespace {

using bplint::Finding;
using bplint::lintProject;
using bplint::LintOptions;
using bplint::lintSource;
using bplint::SourceFile;

/** Findings for `rule` only. */
std::vector<Finding>
byRule(const std::vector<Finding> &all, const std::string &rule)
{
    std::vector<Finding> out;
    for (const Finding &f : all)
        if (f.rule == rule)
            out.push_back(f);
    return out;
}

bool
firesAtLine(const std::vector<Finding> &all, const std::string &rule,
            int line)
{
    return std::any_of(all.begin(), all.end(), [&](const Finding &f) {
        return f.rule == rule && f.line == line;
    });
}

// --------------------------------------------------------------------
// Rule inventory and infrastructure.
// --------------------------------------------------------------------

TEST(BplintMeta, AllElevenRulesAreRegistered)
{
    const std::vector<std::string> rules = bplint::ruleNames();
    const char *expected[] = {"wall-clock",         "libc-rand",
                              "kernel-stats",       "op-entry-contract",
                              "parallel-capture-race", "hot-loop-alloc",
                              "must-check-io",      "env-registry",
                              "include-hygiene",    "include-dag",
                              "unchecked-io"};
    EXPECT_EQ(rules.size(), 11u);
    for (const char *rule : expected) {
        EXPECT_NE(std::find(rules.begin(), rules.end(), rule), rules.end())
            << "missing rule " << rule;
    }
}

TEST(BplintMeta, StripPreservesLineNumbersAndCode)
{
    const std::string text = "int a; // trailing\n"
                             "/* block\n   spanning */ int b;\n"
                             "const char *s = \"rand();\";\n";
    const std::string stripped = bplint::stripCommentsAndStrings(text);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
              std::count(stripped.begin(), stripped.end(), '\n'));
    EXPECT_NE(stripped.find("int a;"), std::string::npos);
    EXPECT_NE(stripped.find("int b;"), std::string::npos);
    // The literal's contents must be gone: no token scanner may see it.
    EXPECT_EQ(stripped.find("rand"), std::string::npos);
    EXPECT_EQ(stripped.find("trailing"), std::string::npos);
    EXPECT_EQ(stripped.find("spanning"), std::string::npos);
}

TEST(BplintMeta, FormattersIncludeRuleAndLocation)
{
    const std::vector<Finding> one = {
        {"src/ops/x.cc", 12, "wall-clock", "boom"}};
    const std::string text = bplint::formatText(one);
    EXPECT_NE(text.find("src/ops/x.cc:12"), std::string::npos);
    EXPECT_NE(text.find("[wall-clock]"), std::string::npos);
    const std::string json = bplint::formatJson(one);
    EXPECT_NE(json.find("\"rule\""), std::string::npos);
    EXPECT_NE(json.find("\"line\": 12"), std::string::npos);
}

// --------------------------------------------------------------------
// wall-clock
// --------------------------------------------------------------------

TEST(BplintWallClock, FiresOnNonMonotonicClocks)
{
    const std::string bad = "#include <chrono>\n"
                            "double now() {\n"
                            "  auto t = std::chrono::system_clock::now();\n"
                            "  return 0;\n"
                            "}\n";
    const auto findings = lintSource("src/perf/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "wall-clock", 3));

    const std::string hires =
        "auto t = std::chrono::high_resolution_clock::now();\n";
    EXPECT_FALSE(byRule(lintSource("src/a.cc", hires), "wall-clock").empty());
}

TEST(BplintWallClock, SteadyClockIsClean)
{
    const std::string good =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(byRule(lintSource("src/a.cc", good), "wall-clock").empty());
}

TEST(BplintWallClock, MentionInCommentOrStringIsClean)
{
    const std::string good =
        "// never use system_clock here\n"
        "const char *s = \"system_clock\";\n";
    EXPECT_TRUE(byRule(lintSource("src/a.cc", good), "wall-clock").empty());
}

// --------------------------------------------------------------------
// libc-rand
// --------------------------------------------------------------------

TEST(BplintLibcRand, FiresOnRandAndSrand)
{
    const std::string bad = "int noise() {\n"
                            "  srand(42);\n"
                            "  return rand();\n"
                            "}\n";
    const auto findings = lintSource("src/util/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "libc-rand", 2));
    EXPECT_TRUE(firesAtLine(findings, "libc-rand", 3));
}

TEST(BplintLibcRand, MemberAndNamedFunctionsAreClean)
{
    const std::string good = "float draw(Rng &rng) {\n"
                             "  auto x = rng.rand();\n"
                             "  auto y = gen->rand();\n"
                             "  return quasirand();\n"
                             "}\n";
    EXPECT_TRUE(byRule(lintSource("src/a.cc", good), "libc-rand").empty());
}

// --------------------------------------------------------------------
// kernel-stats
// --------------------------------------------------------------------

TEST(BplintKernelStats, FiresOnVoidTensorKernelInOps)
{
    const std::string bad =
        "#include \"tensor/tensor.h\"\n"
        "namespace bertprof {\n"
        "void scaleInPlace(Tensor &t, float s) {\n"
        "  BP_REQUIRE(s != 0.0f);\n"
        "}\n"
        "} // namespace bertprof\n";
    const auto findings = lintSource("src/ops/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "kernel-stats", 3));
}

TEST(BplintKernelStats, ScopedToOpsOnly)
{
    const std::string text = "namespace bertprof {\n"
                             "void helper(Tensor &t) { BP_REQUIRE(true); }\n"
                             "}\n";
    EXPECT_FALSE(
        byRule(lintSource("src/ops/x.cc", text), "kernel-stats").empty());
    EXPECT_TRUE(
        byRule(lintSource("src/nn/x.cc", text), "kernel-stats").empty());
}

TEST(BplintKernelStats, StatsBearingReturnsAreClean)
{
    const std::string good =
        "namespace bertprof {\n"
        "KernelStats addForward(const Tensor &a, Tensor &out) {\n"
        "  BP_CHECK_SAME_SHAPE(a, out);\n"
        "  return KernelStats{};\n"
        "}\n"
        "CrossEntropyResult loss(const Tensor &l, Tensor &d) {\n"
        "  BP_CHECK_SAME_SHAPE(l, d);\n"
        "  return {};\n"
        "}\n"
        "static void localHelper(Tensor &t) {}\n"
        "namespace { void anonHelper(Tensor &t) {} }\n"
        "}\n";
    EXPECT_TRUE(
        byRule(lintSource("src/ops/good.cc", good), "kernel-stats").empty());
}

// --------------------------------------------------------------------
// op-entry-contract
// --------------------------------------------------------------------

TEST(BplintOpEntryContract, FiresWhenNoPreconditionIsStated)
{
    const std::string bad =
        "namespace bertprof {\n"
        "KernelStats mulForward(const Tensor &a, Tensor &out) {\n"
        "  out = a;\n"
        "  return KernelStats{};\n"
        "}\n"
        "}\n";
    const auto findings = lintSource("src/ops/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "op-entry-contract", 2));
}

TEST(BplintOpEntryContract, AnyContractMacroSatisfiesIt)
{
    const std::string good =
        "namespace bertprof {\n"
        "KernelStats f(const Tensor &a, Tensor &out) {\n"
        "  BP_CHECK_NO_ALIAS(out, a);\n"
        "  return KernelStats{};\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("src/ops/good.cc", good),
                       "op-entry-contract")
                    .empty());
}

// --------------------------------------------------------------------
// parallel-capture-race
// --------------------------------------------------------------------

TEST(BplintCaptureRace, FiresOnCapturedCompoundAssign)
{
    const std::string bad =
        "void f(ThreadPool &pool) {\n"
        "  double total = 0.0;\n"
        "  parallelFor(pool, 0, n, [&](std::int64_t b, std::int64_t e) {\n"
        "    total += work(b, e);\n"
        "  });\n"
        "}\n";
    const auto findings = lintSource("src/runtime/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "parallel-capture-race", 4));
}

TEST(BplintCaptureRace, LocalAndSubscriptedWritesAreClean)
{
    const std::string good =
        "void f(ThreadPool &pool) {\n"
        "  parallelFor(pool, 0, n, [&](std::int64_t b, std::int64_t e) {\n"
        "    double local = 0.0;\n"
        "    for (std::int64_t i = b; i < e; ++i) local += x[i];\n"
        "    partial[b] += local;\n"
        "    out[i] *= 2.0f;\n"
        "  });\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("src/runtime/good.cc", good),
                       "parallel-capture-race")
                    .empty());
}

TEST(BplintCaptureRace, OutsideParallelForIsClean)
{
    const std::string good = "void f() {\n"
                             "  double total = 0.0;\n"
                             "  total += 1.0;\n"
                             "}\n";
    EXPECT_TRUE(byRule(lintSource("src/runtime/good.cc", good),
                       "parallel-capture-race")
                    .empty());
}

TEST(BplintCaptureRace, FiresOnIncrementAndPlainAssign)
{
    const std::string bad =
        "void f() {\n"
        "  int hits = 0;\n"
        "  long last = 0;\n"
        "  parallelFor(0, n, 8, [&](std::int64_t b, std::int64_t e) {\n"
        "    ++hits;\n"
        "    last = e;\n"
        "  });\n"
        "}\n";
    const auto findings = lintSource("src/runtime/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "parallel-capture-race", 5));
    EXPECT_TRUE(firesAtLine(findings, "parallel-capture-race", 6));
}

TEST(BplintCaptureRace, FiresOnMutatingMemberCall)
{
    const std::string bad =
        "void f() {\n"
        "  std::vector<double> rows;\n"
        "  parallelFor(0, n, 8, [&](std::int64_t b, std::int64_t e) {\n"
        "    rows.push_back(static_cast<double>(b));\n"
        "  });\n"
        "}\n";
    EXPECT_TRUE(firesAtLine(lintSource("src/runtime/bad.cc", bad),
                            "parallel-capture-race", 4));
}

TEST(BplintCaptureRace, FiresOnPassByNonConstReference)
{
    const std::string bad =
        "namespace bertprof {\n"
        "void bump(double &x);\n"
        "void f() {\n"
        "  double total = 0.0;\n"
        "  parallelFor(0, n, 8, [&](std::int64_t b, std::int64_t e) {\n"
        "    bump(total);\n"
        "  });\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(firesAtLine(lintSource("src/runtime/bad.cc", bad),
                            "parallel-capture-race", 6));
    // const& and by-value parameters are reads, not writes.
    const std::string good =
        "namespace bertprof {\n"
        "void observe(const double &x);\n"
        "void f() {\n"
        "  double total = 0.0;\n"
        "  parallelFor(0, n, 8, [&](std::int64_t b, std::int64_t e) {\n"
        "    observe(total);\n"
        "  });\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("src/runtime/good.cc", good),
                       "parallel-capture-race")
                    .empty());
}

TEST(BplintCaptureRace, AtomicsAndDeclarationsAreClean)
{
    const std::string good =
        "void f() {\n"
        "  std::atomic<int> done{0};\n"
        "  parallelFor(0, n, 8, [&](std::int64_t b, std::int64_t e) {\n"
        "    const std::thread::id me = std::this_thread::get_id();\n"
        "    done.fetch_add(1);\n"
        "  });\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("src/runtime/good.cc", good),
                       "parallel-capture-race")
                    .empty());
}

TEST(BplintCaptureRace, ValueCapturesAreNotShared)
{
    // [total] copies; writes to the copy are local to each task
    // (require `mutable`, but either way they do not race).
    const std::string good =
        "void f() {\n"
        "  double total = 0.0;\n"
        "  parallelFor(0, n, 8,\n"
        "              [total](std::int64_t b, std::int64_t e) mutable {\n"
        "    total += 1.0;\n"
        "  });\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("src/runtime/good.cc", good),
                       "parallel-capture-race")
                    .empty());
}

// --------------------------------------------------------------------
// include-hygiene
// --------------------------------------------------------------------

TEST(BplintIncludeHygiene, FiresOnUpwardInclude)
{
    const std::string bad = "#include \"nn/module.h\"\n";
    const auto findings = lintSource("src/ops/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "include-hygiene", 1));
}

TEST(BplintIncludeHygiene, DownwardAndExemptIncludesAreClean)
{
    const std::string good = "#include \"ops/kernel_stats.h\"\n"
                             "#include \"tensor/tensor.h\"\n"
                             "#include \"util/logging.h\"\n"
                             "#include <vector>\n";
    EXPECT_TRUE(byRule(lintSource("src/trace/good.cc", good),
                       "include-hygiene")
                    .empty());
    // Only core may include core.
    const std::string core = "#include \"core/substrate.h\"\n";
    EXPECT_FALSE(byRule(lintSource("src/nn/x.cc", core),
                        "include-hygiene")
                     .empty());
    EXPECT_TRUE(byRule(lintSource("src/core/x.cc", core),
                       "include-hygiene")
                    .empty());
}

TEST(BplintIncludeHygiene, OnlyAppliesUnderSrc)
{
    const std::string text = "#include \"nn/module.h\"\n";
    EXPECT_TRUE(byRule(lintSource("bench/bench_model.cc", text),
                       "include-hygiene")
                    .empty());
}

TEST(BplintIncludeHygiene, ServeMayUseModelAndRuntimeLayers)
{
    const std::string good = "#include \"serve/batcher.h\"\n"
                             "#include \"nn/bert_classifier.h\"\n"
                             "#include \"ops/dropout.h\"\n"
                             "#include \"runtime/config.h\"\n"
                             "#include \"util/stopwatch.h\"\n";
    EXPECT_TRUE(byRule(lintSource("src/serve/good.cc", good),
                       "include-hygiene")
                    .empty());
    // serve sits beside core, not under it.
    const std::string core = "#include \"core/bertprof.h\"\n";
    EXPECT_FALSE(byRule(lintSource("src/serve/bad.cc", core),
                        "include-hygiene")
                     .empty());
}

TEST(BplintIncludeHygiene, NothingUnderSrcMayDependOnServe)
{
    // Only bench/tests (outside src/) may pull the serving runtime
    // in; the model layers and core must stay serving-free.
    const std::string text = "#include \"serve/server.h\"\n";
    EXPECT_FALSE(byRule(lintSource("src/core/bad.cc", text),
                        "include-hygiene")
                     .empty());
    EXPECT_FALSE(byRule(lintSource("src/nn/bad.cc", text),
                        "include-hygiene")
                     .empty());
    EXPECT_TRUE(byRule(lintSource("bench/bench_serving.cc", text),
                       "include-hygiene")
                    .empty());
}

TEST(BplintIncludeHygiene, OptimMayUseNnButNnMayNotUseOptim)
{
    const auto up = lintSource("src/nn/encoder_layer.cc",
                               "#include \"optim/lamb.h\"\n");
    EXPECT_TRUE(firesAtLine(up, "include-hygiene", 1));

    const auto down = lintSource("src/optim/lamb.cc",
                                 "#include \"nn/module.h\"\n"
                                 "#include \"ops/elementwise.h\"\n"
                                 "#include \"runtime/profiler.h\"\n");
    EXPECT_TRUE(byRule(down, "include-hygiene").empty());
}

TEST(BplintIncludeHygiene, TelemetryMayUseIoAndRuntimeLayers)
{
    const std::string good = "#include \"telemetry/trace_writer.h\"\n"
                             "#include \"io/append_file.h\"\n"
                             "#include \"runtime/profiler.h\"\n"
                             "#include \"trace/taxonomy.h\"\n"
                             "#include \"util/logging.h\"\n";
    EXPECT_TRUE(byRule(lintSource("src/telemetry/good.cc", good),
                       "include-hygiene")
                    .empty());
    // Telemetry records the substrate; it must not depend on it.
    const std::string bad = "#include \"nn/module.h\"\n"
                            "#include \"ops/gemm.h\"\n";
    const auto findings = lintSource("src/telemetry/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "include-hygiene", 1));
    EXPECT_TRUE(firesAtLine(findings, "include-hygiene", 2));
}

TEST(BplintIncludeHygiene, ComputeLayersMayNotDependOnTelemetry)
{
    // Kernel events reach the recorder through the runtime
    // profiler's sink, never by the compute layers including
    // telemetry directly.
    const std::string text = "#include \"telemetry/recorder.h\"\n";
    EXPECT_FALSE(byRule(lintSource("src/ops/bad.cc", text),
                        "include-hygiene")
                     .empty());
    EXPECT_FALSE(byRule(lintSource("src/nn/bad.cc", text),
                        "include-hygiene")
                     .empty());
    EXPECT_FALSE(byRule(lintSource("src/runtime/bad.cc", text),
                        "include-hygiene")
                     .empty());
    EXPECT_TRUE(byRule(lintSource("src/train/trainer.cc", text),
                       "include-hygiene")
                    .empty());
    EXPECT_TRUE(byRule(lintSource("src/serve/server.cc", text),
                       "include-hygiene")
                    .empty());
    EXPECT_TRUE(byRule(lintSource("src/core/report.cc", text),
                       "include-hygiene")
                    .empty());
}

// --------------------------------------------------------------------
// unchecked-io
// --------------------------------------------------------------------

TEST(BplintUncheckedIo, FiresOnRawPrimitivesOutsideIoLayer)
{
    const std::string bad = "void f() {\n"
                            "  FILE *fp = fopen(p, \"wb\");\n"
                            "  fwrite(buf, 1, n, fp);\n"
                            "  fread(buf, 1, n, fp);\n"
                            "  std::ofstream out(p);\n"
                            "  std::fstream both(p);\n"
                            "}\n";
    const auto findings = lintSource("src/core/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "unchecked-io", 2));
    EXPECT_TRUE(firesAtLine(findings, "unchecked-io", 3));
    EXPECT_TRUE(firesAtLine(findings, "unchecked-io", 4));
    EXPECT_TRUE(firesAtLine(findings, "unchecked-io", 5));
    EXPECT_TRUE(firesAtLine(findings, "unchecked-io", 6));
}

TEST(BplintUncheckedIo, IoLayerAndNonSrcTreesAreExempt)
{
    const std::string text = "void f() { fwrite(buf, 1, n, fp); }\n";
    EXPECT_TRUE(byRule(lintSource("src/io/binary_io.cc", text),
                       "unchecked-io")
                    .empty());
    EXPECT_TRUE(byRule(lintSource("tests/test_x.cc", text),
                       "unchecked-io")
                    .empty());
    EXPECT_TRUE(byRule(lintSource("tools/bplint/main.cc", text),
                       "unchecked-io")
                    .empty());
}

TEST(BplintUncheckedIo, CheckedWrappersAndMentionsInCommentsAreClean)
{
    const std::string good =
        "#include \"io/binary_io.h\"\n"
        "// fwrite would be flagged here if not in a comment\n"
        "IoStatus f() { return writeTextFile(p, body); }\n"
        "const char *doc = \"uses fopen internally\";\n";
    EXPECT_TRUE(byRule(lintSource("src/core/good.cc", good),
                       "unchecked-io")
                    .empty());
}

TEST(BplintUncheckedIo, AllowFileSuppressionWorks)
{
    const std::string text = "// bplint: allow-file(unchecked-io)\n"
                             "void f() { std::ofstream out(p); }\n";
    EXPECT_TRUE(byRule(lintSource("src/util/x.cc", text),
                       "unchecked-io")
                    .empty());
}

// --------------------------------------------------------------------
// Suppressions
// --------------------------------------------------------------------

TEST(BplintSuppression, SameLineAllowSilencesOneRule)
{
    // A directive covers its own line and the one after it, so the
    // unsuppressed violation sits two lines below.
    const std::string text =
        "auto t = std::chrono::system_clock::now();"
        " // bplint: allow(wall-clock)\n"
        "\n"
        "auto u = std::chrono::system_clock::now();\n";
    const auto findings = byRule(lintSource("src/a.cc", text), "wall-clock");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3);
}

TEST(BplintSuppression, PrecedingLineAllowWorks)
{
    const std::string text = "// bplint: allow(libc-rand)\n"
                             "int x = rand();\n";
    EXPECT_TRUE(byRule(lintSource("src/a.cc", text), "libc-rand").empty());
}

TEST(BplintSuppression, AllowFileSilencesWholeFileForThatRuleOnly)
{
    const std::string text = "// bplint: allow-file(wall-clock)\n"
                             "auto t = std::chrono::system_clock::now();\n"
                             "auto u = std::chrono::system_clock::now();\n"
                             "int y = rand();\n";
    const auto findings = lintSource("src/a.cc", text);
    EXPECT_TRUE(byRule(findings, "wall-clock").empty());
    EXPECT_TRUE(firesAtLine(findings, "libc-rand", 4));
}

TEST(BplintSuppression, AllowForWrongRuleDoesNotSilence)
{
    const std::string text =
        "int x = rand(); // bplint: allow(wall-clock)\n";
    EXPECT_FALSE(byRule(lintSource("src/a.cc", text), "libc-rand").empty());
}

// --------------------------------------------------------------------
// hot-loop-alloc
// --------------------------------------------------------------------

TEST(BplintHotLoopAlloc, FiresOnAllocationsInParallelBody)
{
    const std::string bad =
        "void f(ThreadPool &pool) {\n"
        "  parallelFor(pool, 0, n, [&](std::int64_t b, std::int64_t e) {\n"
        "    Tensor scratch(Shape({e - b}));\n"
        "    auto owned = std::make_unique<float[]>(e - b);\n"
        "    float *raw = new float[e - b];\n"
        "    void *c = malloc(static_cast<std::size_t>(e - b));\n"
        "  });\n"
        "}\n";
    const auto findings = lintSource("src/ops/bad.cc", bad);
    EXPECT_TRUE(firesAtLine(findings, "hot-loop-alloc", 3));
    EXPECT_TRUE(firesAtLine(findings, "hot-loop-alloc", 4));
    EXPECT_TRUE(firesAtLine(findings, "hot-loop-alloc", 5));
    EXPECT_TRUE(firesAtLine(findings, "hot-loop-alloc", 6));
}

TEST(BplintHotLoopAlloc, FiresInsideScopedKernelRegionOnly)
{
    const std::string text =
        "KernelStats f(Profiler &prof) {\n"
        "  Tensor before(Shape({4}));\n"
        "  {\n"
        "    ScopedKernel k(prof, \"gemm\");\n"
        "    Tensor inside(Shape({4}));\n"
        "  }\n"
        "  return KernelStats{};\n"
        "}\n";
    const auto findings = lintSource("src/ops/gemm.cc", text);
    EXPECT_TRUE(firesAtLine(findings, "hot-loop-alloc", 5));
    EXPECT_FALSE(firesAtLine(findings, "hot-loop-alloc", 2));
}

TEST(BplintHotLoopAlloc, ReferencesPointersAndStaticsAreClean)
{
    const std::string good =
        "void f(ThreadPool &pool) {\n"
        "  parallelFor(pool, 0, n, [&](std::int64_t b, std::int64_t e) {\n"
        "    Tensor &view = views[b];\n"
        "    const Tensor *ptr = &views[b];\n"
        "    Tensor::scaleInPlace(view, 2.0f);\n"
        "  });\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("src/ops/good.cc", good),
                       "hot-loop-alloc")
                    .empty());
}

TEST(BplintHotLoopAlloc, NonSrcTreesAreExempt)
{
    const std::string text =
        "void f(ThreadPool &pool) {\n"
        "  parallelFor(pool, 0, n, [&](std::int64_t b, std::int64_t e) {\n"
        "    Tensor scratch(Shape({e - b}));\n"
        "  });\n"
        "}\n";
    EXPECT_TRUE(byRule(lintSource("bench/bench_x.cc", text),
                       "hot-loop-alloc")
                    .empty());
    EXPECT_TRUE(byRule(lintSource("tests/test_x.cc", text),
                       "hot-loop-alloc")
                    .empty());
}

// --------------------------------------------------------------------
// must-check-io (cross-TU: receivers resolve against other files'
// class declarations, so the fixtures run through lintProject).
// --------------------------------------------------------------------

const char *kIoHeader =
    "namespace bertprof {\n"
    "class IoStatus {\n"
    "  public:\n"
    "    bool ok() const;\n"
    "};\n"
    "IoStatus writeTextFile(const std::string &path,\n"
    "                       const std::string &content);\n"
    "class AppendFile {\n"
    "  public:\n"
    "    IoStatus open(const std::string &path);\n"
    "    IoStatus sync();\n"
    "    IoStatus close();\n"
    "};\n"
    "class Batcher {\n"
    "  public:\n"
    "    void close();\n"
    "};\n"
    "}\n";

TEST(BplintMustCheckIo, FiresOnDiscardedAndVoidCastResults)
{
    const std::string bad =
        "#include \"io/io.h\"\n"
        "namespace bertprof {\n"
        "void f(const std::string &p) {\n"
        "  writeTextFile(p, p);\n"
        "  (void)writeTextFile(p, p);\n"
        "}\n"
        "}\n";
    const auto findings = lintProject(
        {{"src/io/io.h", kIoHeader}, {"src/core/bad.cc", bad}},
        LintOptions{});
    EXPECT_TRUE(firesAtLine(findings, "must-check-io", 4));
    EXPECT_TRUE(firesAtLine(findings, "must-check-io", 5));
}

TEST(BplintMustCheckIo, BoundButNeverReadFires)
{
    const std::string bad =
        "#include \"io/io.h\"\n"
        "namespace bertprof {\n"
        "void f(const std::string &p) {\n"
        "  IoStatus dropped = writeTextFile(p, p);\n"
        "  doOtherWork();\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(firesAtLine(
        lintProject({{"src/io/io.h", kIoHeader}, {"src/core/bad.cc", bad}},
                    LintOptions{}),
        "must-check-io", 4));
}

TEST(BplintMustCheckIo, ReturnedBoundAndReadOrChainedAreClean)
{
    const std::string good =
        "#include \"io/io.h\"\n"
        "namespace bertprof {\n"
        "IoStatus g(const std::string &p) {\n"
        "  return writeTextFile(p, p);\n"
        "}\n"
        "void h(const std::string &p) {\n"
        "  IoStatus s = writeTextFile(p, p);\n"
        "  if (!s.ok()) {\n"
        "    logFailure();\n"
        "  }\n"
        "}\n"
        "void i(const std::string &p) {\n"
        "  if (!writeTextFile(p, p).ok()) {\n"
        "    logFailure();\n"
        "  }\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(byRule(lintProject({{"src/io/io.h", kIoHeader},
                                    {"src/core/good.cc", good}},
                                   LintOptions{}),
                       "must-check-io")
                    .empty());
}

TEST(BplintMustCheckIo, ResolvesReceiversAcrossTranslationUnits)
{
    // `file.sync()` resolves through the parameter type against the
    // AppendFile declaration in the other file; Batcher::close()
    // returns void and must stay clean.
    const std::string bad =
        "#include \"io/io.h\"\n"
        "namespace bertprof {\n"
        "void flushAll(AppendFile &file, Batcher &batcher) {\n"
        "  file.sync();\n"
        "  batcher.close();\n"
        "}\n"
        "}\n";
    const auto findings = lintProject(
        {{"src/io/io.h", kIoHeader}, {"src/telemetry/bad.cc", bad}},
        LintOptions{});
    EXPECT_TRUE(firesAtLine(findings, "must-check-io", 4));
    EXPECT_FALSE(firesAtLine(findings, "must-check-io", 5));
}

TEST(BplintMustCheckIo, ResolvesMemberVariableReceivers)
{
    const std::string header =
        "#include \"io/io.h\"\n"
        "namespace bertprof {\n"
        "class Writer {\n"
        "  public:\n"
        "    IoStatus flush();\n"
        "  private:\n"
        "    AppendFile file_;\n"
        "};\n"
        "}\n";
    const std::string impl =
        "#include \"telemetry/writer.h\"\n"
        "namespace bertprof {\n"
        "IoStatus\n"
        "Writer::flush()\n"
        "{\n"
        "    file_.close();\n"
        "    return IoStatus();\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(firesAtLine(
        lintProject({{"src/io/io.h", kIoHeader},
                     {"src/telemetry/writer.h", header},
                     {"src/telemetry/writer.cc", impl}},
                    LintOptions{}),
        "must-check-io", 6));
}

TEST(BplintMustCheckIo, NonSrcTreesAreExempt)
{
    const std::string text = "#include \"io/io.h\"\n"
                             "namespace bertprof {\n"
                             "void f(const std::string &p) {\n"
                             "  writeTextFile(p, p);\n"
                             "}\n"
                             "}\n";
    EXPECT_TRUE(byRule(lintProject({{"src/io/io.h", kIoHeader},
                                    {"tests/test_x.cc", text}},
                                   LintOptions{}),
                       "must-check-io")
                    .empty());
}

// --------------------------------------------------------------------
// env-registry
// --------------------------------------------------------------------

const char *kEnvDoc =
    "# Environment knobs\n"
    "\n"
    "| Knob | Range | Default | Effect |\n"
    "| --- | --- | --- | --- |\n"
    "| `BERTPROF_NUM_THREADS` | 1..256 | hw | worker count |\n"
    "| `BERTPROF_STALE_KNOB` | 0/1 | 0 | documented, never read |\n"
    "| prose cell | see BERTPROF_IN_PROSE | - | not a knob row |\n";

TEST(BplintEnvRegistry, FlagsUndocumentedReadsAndStaleDocRows)
{
    const std::string code =
        "#include \"runtime/env.h\"\n"
        "namespace bertprof {\n"
        "int f() {\n"
        "  bool warned = false;\n"
        "  return envInt(\"BERTPROF_NUM_THREADS\", 1, 256, 8, &warned) +\n"
        "         envInt(\"BERTPROF_SECRET\", 0, 1, 0, &warned);\n"
        "}\n"
        "}\n";
    LintOptions opts;
    opts.envDocPath = "README.md";
    opts.envDocText = kEnvDoc;
    const auto findings =
        lintProject({{"src/runtime/cfg.cc", code}}, opts);
    // Read side: the undocumented knob fires at its read site.
    EXPECT_TRUE(firesAtLine(findings, "env-registry", 6));
    // Doc side: the stale row fires at its table line in the doc.
    bool staleRow = false;
    for (const auto &f : byRule(findings, "env-registry")) {
        if (f.file == "README.md" && f.line == 6 &&
            f.message.find("BERTPROF_STALE_KNOB") != std::string::npos)
            staleRow = true;
        // Knob names outside the first table cell are not knob rows.
        EXPECT_EQ(f.message.find("BERTPROF_IN_PROSE"), std::string::npos);
        EXPECT_EQ(f.message.find("BERTPROF_NUM_THREADS"),
                  std::string::npos);
    }
    EXPECT_TRUE(staleRow);
}

TEST(BplintEnvRegistry, DisabledWithoutEnvDoc)
{
    const std::string code =
        "int f() { return envInt(\"BERTPROF_SECRET\", 0, 1, 0, nullptr); }\n";
    EXPECT_TRUE(byRule(lintProject({{"src/runtime/cfg.cc", code}},
                                   LintOptions{}),
                       "env-registry")
                    .empty());
}

TEST(BplintEnvRegistry, ReadsOutsideSrcAreNotRegistered)
{
    const std::string code =
        "int f() { return envInt(\"BERTPROF_TOOL_ONLY\", 0, 1, 0, "
        "nullptr); }\n";
    LintOptions opts;
    opts.envDocPath = "README.md";
    opts.envDocText = kEnvDoc;
    const auto findings = lintProject({{"tools/x/main.cc", code}}, opts);
    for (const auto &f : byRule(findings, "env-registry"))
        EXPECT_EQ(f.message.find("BERTPROF_TOOL_ONLY"), std::string::npos);
}

// --------------------------------------------------------------------
// include-dag
// --------------------------------------------------------------------

TEST(BplintIncludeDag, FiresOnTransitiveViolationThroughMidLayerHeader)
{
    // ops -> ops/helper.h -> telemetry is invisible to the direct
    // include-hygiene rule in bad.cc but caught transitively; the
    // offending header itself gets the direct hygiene finding.
    const auto findings = lintProject(
        {{"src/ops/helper.h", "#include \"telemetry/recorder.h\"\n"},
         {"src/ops/bad.cc", "#include \"ops/helper.h\"\n"}},
        LintOptions{});
    bool transitive = false;
    for (const auto &f : byRule(findings, "include-dag")) {
        if (f.file == "src/ops/bad.cc" && f.line == 1 &&
            f.message.find("telemetry") != std::string::npos)
            transitive = true;
    }
    EXPECT_TRUE(transitive);
    EXPECT_TRUE(firesAtLine(findings, "include-hygiene", 1));
}

TEST(BplintIncludeDag, AllowedTransitiveReachIsClean)
{
    // telemetry may include io, and io may include tensor: the
    // closure makes telemetry -> io -> tensor legal even though
    // telemetry never lists tensor in its direct layer set.
    const auto findings = lintProject(
        {{"src/io/binary_io.h", "#include \"tensor/tensor.h\"\n"},
         {"src/telemetry/trace_writer.cc",
          "#include \"io/binary_io.h\"\n"}},
        LintOptions{});
    EXPECT_TRUE(byRule(findings, "include-dag").empty());
    EXPECT_TRUE(byRule(findings, "include-hygiene").empty());
}

TEST(BplintIncludeDag, RuntimeReachesTensorThroughTrace)
{
    // runtime lists trace but not tensor; trace lists tensor. The
    // closure admits the two-hop reach.
    const auto findings = lintProject(
        {{"src/trace/taxonomy.h", "#include \"tensor/shape.h\"\n"},
         {"src/runtime/profiler.h", "#include \"trace/taxonomy.h\"\n"}},
        LintOptions{});
    EXPECT_TRUE(byRule(findings, "include-dag").empty());
    EXPECT_TRUE(byRule(findings, "include-hygiene").empty());
}

TEST(BplintIncludeDag, OptimThroughNnToIoIsClean)
{
    const auto findings = lintProject(
        {{"src/nn/module.h", "#include \"io/binary_io.h\"\n"},
         {"src/optim/lamb.cc", "#include \"nn/module.h\"\n"}},
        LintOptions{});
    EXPECT_TRUE(byRule(findings, "include-dag").empty());
    EXPECT_TRUE(byRule(findings, "include-hygiene").empty());
}

TEST(BplintIncludeDag, DetectsIncludeCycles)
{
    const auto findings = lintProject(
        {{"src/util/a.h", "#include \"util/b.h\"\n"},
         {"src/util/b.h", "#include \"util/a.h\"\n"}},
        LintOptions{});
    bool cycle = false;
    for (const auto &f : byRule(findings, "include-dag")) {
        if (f.message.find("include cycle") != std::string::npos)
            cycle = true;
    }
    EXPECT_TRUE(cycle);
}

// --------------------------------------------------------------------
// SARIF and baseline output
// --------------------------------------------------------------------

TEST(BplintOutput, SarifContainsVersionRuleAndLocation)
{
    const auto findings = lintSource("src/a.cc", "int x = rand();\n");
    ASSERT_FALSE(findings.empty());
    const std::string sarif = bplint::formatSarif(findings);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("libc-rand"), std::string::npos);
    EXPECT_NE(sarif.find("src/a.cc"), std::string::npos);
    EXPECT_NE(sarif.find("startLine"), std::string::npos);
}

TEST(BplintOutput, BaselineRoundTripExcusesExistingFindings)
{
    const auto findings =
        lintSource("src/a.cc", "int x = rand();\nint y = rand();\n");
    ASSERT_EQ(byRule(findings, "libc-rand").size(), 2u);
    const std::string base = bplint::formatBaseline(findings);
    EXPECT_TRUE(bplint::applyBaseline(findings, base).empty());
    // Multiset semantics: one baseline line excuses exactly one
    // matching finding, even when the keys are identical.
    const std::string one = bplint::baselineKey(findings[0]) + "\n";
    EXPECT_EQ(bplint::applyBaseline(findings, one).size(),
              findings.size() - 1);
    // An empty baseline excuses nothing.
    EXPECT_EQ(bplint::applyBaseline(findings, "").size(), findings.size());
}

// --------------------------------------------------------------------
// ProjectModel over the real repository tree
// --------------------------------------------------------------------

#ifdef BERTPROF_SOURCE_DIR

std::vector<SourceFile>
readRealSrcTree()
{
    namespace fs = std::filesystem;
    const fs::path root(BERTPROF_SOURCE_DIR);
    std::vector<SourceFile> files;
    for (const auto &entry :
         fs::recursive_directory_iterator(root / "src")) {
        if (!entry.is_regular_file())
            continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".h" && ext != ".cc")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream buf;
        buf << in.rdbuf();
        files.push_back({fs::relative(entry.path(), root).generic_string(),
                         buf.str()});
    }
    std::sort(files.begin(), files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    return files;
}

TEST(BplintProjectModel, RealRepoIncludeGraphIsAcyclicAndLayerOrdered)
{
    const auto files = readRealSrcTree();
    ASSERT_GT(files.size(), 50u);

    const bplint::ProjectModel pm = bplint::buildProjectModel(files);
    EXPECT_TRUE(pm.findIncludeCycles().empty());
    // Cross-TU facts resolve against the real io layer.
    ASSERT_NE(pm.method("AppendFile", "sync"), nullptr);
    EXPECT_TRUE(pm.method("AppendFile", "sync")->returnsIoStatus);

    // Layering holds everywhere except the deliberately seeded (and
    // suppressed) canary files, so the filtered findings are empty.
    const auto findings = lintProject(files, LintOptions{});
    for (const auto &f : findings) {
        if (f.rule == "include-dag" || f.rule == "include-hygiene")
            ADD_FAILURE()
                << f.file << ":" << f.line << " " << f.message;
    }
}

TEST(BplintProjectModel, LayerMapNamesExactlyTheSrcDirectories)
{
    // A layer with no directory is dead policy; a directory with no
    // layer escapes include-hygiene entirely.
    namespace fs = std::filesystem;
    std::set<std::string> dirs;
    for (const auto &entry :
         fs::directory_iterator(fs::path(BERTPROF_SOURCE_DIR) / "src"))
        if (entry.is_directory())
            dirs.insert(entry.path().filename().string());

    std::set<std::string> layers;
    for (const auto &[layer, allowed] : bplint::layerMap()) {
        layers.insert(layer);
        for (const std::string &dep : allowed)
            EXPECT_TRUE(bplint::layerMap().count(dep))
                << layer << " allows unknown layer " << dep;
    }
    EXPECT_EQ(layers, dirs);
}

#endif // BERTPROF_SOURCE_DIR

} // namespace
