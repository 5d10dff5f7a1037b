/**
 * @file
 * Entry point of the end-to-end benchmark (run it through run.py,
 * which builds it). Runs one workload and prints an environment stamp, notes
 * on each sample set, and as the last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 *   e2e_bench --workload pretrain|serve_overload
 *             --seed N --seconds S [--trace 0|1] [--quick]
 *             [--work-dir DIR]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "runtime/config.h"
#include "util/logging.h"

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_bench --workload pretrain|serve_overload "
                 "--seed N --seconds S [--trace 0|1] [--quick] "
                 "[--work-dir DIR]\n");
    std::exit(2);
}

e2e::Args
parseArgs(int argc, char **argv)
{
    e2e::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--quick") {
            args.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage();
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value);
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "1") == 0;
        else if (flag == "--work-dir")
            args.workDir = value;
        else
            usage();
    }
    if (args.workload != "pretrain" && args.workload != "serve_overload")
        usage();
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        usage();
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const e2e::Args args = parseArgs(argc, argv);
    bertprof::setNumThreads(e2e::kPoolThreads);
    bertprof::setLogLevel(bertprof::LogLevel::Warn);
    try {
        std::filesystem::create_directories(args.workDir);
        std::printf("env %s\n", e2e::environmentStamp().c_str());
        e2e::Result result = args.workload == "pretrain"
                                 ? e2e::runPretrain(args)
                                 : e2e::runServe(args);
        result.e2e.peakRssMib = e2e::peakRssMib();
        for (const std::string &note : result.notes)
            std::printf("%s\n", note.c_str());
        std::printf("%s\n", e2e::resultJson(result, args.trace).c_str());
        std::fflush(stdout);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
