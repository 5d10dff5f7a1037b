/**
 * @file
 * Throughput benchmark for the bplint v2 semantic analyzer: reads the
 * real repository scan set (src bench tests tools examples plus the
 * README env-knob table), then times whole-project lintProject()
 * passes — phase-1 TU models, the cross-TU ProjectModel, and all
 * eleven rules per pass. The linter guards every build, so it carries
 * an explicit latency budget: a pass over the full tree must stay
 * under 2 seconds, and the process exits nonzero when the median pass
 * blows it (the lint-labeled smoke test turns a regression into a
 * test failure).
 *
 * Usage: bench_bplint [--quick] [--json <path>]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace fs = std::filesystem;

namespace {

constexpr double kBudgetMs = 2000.0;

/** The tree-wide scan set, with report paths relative to the root. */
std::vector<bplint::SourceFile>
readScanSet(const fs::path &root)
{
    const char *dirs[] = {"src", "bench", "tests", "tools", "examples"};
    std::vector<bplint::SourceFile> files;
    for (const char *dir : dirs) {
        const fs::path base = root / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".h" && ext != ".cc")
                continue;
            std::ifstream in(entry.path());
            std::ostringstream buf;
            buf << in.rdbuf();
            files.push_back(
                {fs::relative(entry.path(), root).generic_string(),
                 buf.str()});
        }
    }
    std::sort(files.begin(), files.end(),
              [](const bplint::SourceFile &a, const bplint::SourceFile &b) {
                  return a.path < b.path;
              });
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    const fs::path root(BERTPROF_SOURCE_DIR);
    const std::vector<bplint::SourceFile> files = readScanSet(root);
    if (files.empty()) {
        std::fprintf(stderr, "no scan set under %s\n",
                     root.string().c_str());
        return 1;
    }

    bplint::LintOptions opts;
    {
        std::ifstream in(root / "README.md");
        std::ostringstream buf;
        buf << in.rdbuf();
        opts.envDocPath = "README.md";
        opts.envDocText = buf.str();
    }

    std::size_t bytes = 0;
    std::size_t lines = 0;
    for (const auto &f : files) {
        bytes += f.text.size();
        lines += static_cast<std::size_t>(
            std::count(f.text.begin(), f.text.end(), '\n'));
    }

    const int reps = quick ? 3 : 10;
    std::vector<double> ms;
    std::size_t findings = 0;
    for (int r = 0; r < reps; ++r) {
        const bertprof::MonoTime start = bertprof::monoNow();
        const auto out = bplint::lintProject(files, opts);
        ms.push_back(
            bertprof::secondsBetween(start, bertprof::monoNow()) * 1e3);
        findings = out.size();
    }
    std::sort(ms.begin(), ms.end());
    const double median = ms[ms.size() / 2];
    const double best = ms.front();

    bertprof::Table table("bplint whole-tree analysis (" +
                          std::to_string(files.size()) + " files, " +
                          std::to_string(lines) + " lines)");
    table.setHeader({"Metric", "Value"});
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f ms", median);
    table.addRow({"median pass", buf});
    std::snprintf(buf, sizeof(buf), "%.1f ms", best);
    table.addRow({"best pass", buf});
    std::snprintf(buf, sizeof(buf), "%.1f MB/s",
                  static_cast<double>(bytes) / 1e6 / (median / 1e3));
    table.addRow({"throughput", buf});
    table.addRow({"findings", std::to_string(findings)});
    std::printf("%s\n", table.render().c_str());

    const bool within = median < kBudgetMs;
    std::printf("budget: median %.1f ms %s %.0f ms limit\n", median,
                within ? "within" : "EXCEEDS", kBudgetMs);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"bench_bplint\",\n");
        std::fprintf(f,
                     "  \"config\": {\"reps\": %d, \"quick\": %s},\n",
                     reps, quick ? "true" : "false");
        std::fprintf(
            f,
            "  \"lint\": {\"files\": %zu, \"lines\": %zu, \"bytes\": "
            "%zu,\n    \"median_ms\": %.3f, \"best_ms\": %.3f, "
            "\"findings\": %zu,\n    \"budget_ms\": %.0f, "
            "\"within_budget\": %s}\n}\n",
            files.size(), lines, bytes, median, best, findings,
            kBudgetMs, within ? "true" : "false");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return within ? 0 : 1;
}
