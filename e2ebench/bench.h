/**
 * @file
 * Shared pieces of the end-to-end benchmark: run arguments, the
 * metric reports every workload fills (one struct per metric tier, so
 * every workload prints the same names), sample statistics, an
 * in-memory span log, and a kernel tally over the substrate's
 * Profiler records keyed by the paper's taxonomy.
 */

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/profiler.h"
#include "util/stopwatch.h"

namespace e2e {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** Command line of one benchmark run. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Tiny sizes, for the smoke check only. */
    bool quick = false;
    /** Scratch directory for checkpoints and span files. */
    std::string workDir = ".";

    /** Length of each measured phase. A traced run measures an
     *  untraced phase and then a traced one, half of `seconds` each,
     *  so every run takes about `seconds`. */
    double
    phaseSeconds() const
    {
        return trace ? seconds / 2.0 : seconds;
    }
};

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/**
 * The highest percentile with at least ten samples beyond it: the
 * (n-10)-th smallest of n samples, reported with its percentile and
 * the sample count. Below 21 samples that point would fall under the
 * median, so the tail is the median (p50): the run has no tail to
 * measure.
 */
struct Tail {
    double value = 0.0;
    double percentile = 0.0;
    std::size_t count = 0;
};
Tail tailOf(std::vector<double> v);

/** What the untraced run reports (the end-to-end tier). */
struct EndToEnd {
    double setupS = 0.0;
    double peakRssMib = 0.0;
    /** Sequences of correct, on-time work per second: B per applied
     *  training step, one per serve reply. */
    double goodputSeqPerS = 0.0;
    /** trainStep time (pretrain) or request latency from due time. */
    std::vector<double> latencyMs;
};

/**
 * Kernel time and work by taxonomy, summed over Profiler records.
 * Fed from the thread that ran the kernels; read after it finished.
 */
struct KernelTally {
    std::map<bertprof::SubLayer, double> subSeconds;
    std::map<bertprof::Phase, double> phaseSeconds;
    double gemmSeconds = 0.0;  ///< GEMM/batched GEMM, outside optimizer
    double gemmFlops = 0.0;
    double opBytes = 0.0;
    std::int64_t opKernels = 0;

    /** Fold in and clear the profiler's records; returns their
     *  total seconds. */
    double drain(bertprof::Profiler &profiler);
};

/** What the traced run reports (the per-layer tier). Zero where a
 *  layer does no work on the workload. */
struct LayerReport {
    KernelTally kernels;
    /** Steps (pretrain) or completed requests (serve) the kernel
     *  tally covers; ops/nn/optim metrics are per unit. */
    double units = 0.0;

    double stepHostMs = 0.0;
    double checkpointSaveMs = 0.0;
    double checkpointMib = 0.0;

    /** Engine batch time, all batches and per bucket boundary. */
    std::vector<double> batchMs;
    std::map<std::int64_t, std::vector<double>> batchMsByBoundary;
    double engineSeconds = 0.0;
    double computedTokens = 0.0;
    double realTokens = 0.0;
    double batches = 0.0;
    std::vector<double> queueWaitMs;
    std::vector<double> submitUs;
    double usefulShare = 0.0;
    double rejectExpired = 0.0;
    double rejectQueueFull = 0.0;
    double rejectOverlong = 0.0;
    double rejectShutdown = 0.0;
    double degradeLevelMean = 0.0;
    double lagMsTail = 0.0;

    double failShare = 0.0;
    double overheadShare = 0.0;
};

/** Outcome of one run. `notes` are printed before the result line. */
struct Result {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    EndToEnd e2e;
    LayerReport layers;
    std::vector<std::string> notes;
};

/** The result as the one-line JSON object the benchmark ends with:
 *  end-to-end metrics for an untraced run, per-layer for a traced. */
std::string resultJson(const Result &result, bool traced);

/** One timed interval of the traced run (Chrome "X" event). */
struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    /** Related span: the engine batch a request ran in, else 0. */
    std::uint64_t link = 0;
    std::uint64_t request = 0;   ///< request or step id, 0 for a batch
    std::int64_t childNs = 0;    ///< part covered by child work
    int thread = 0;
};

/**
 * Spans kept in memory and written out when the run ends. Disabled
 * logs record nothing, so the untraced run pays one branch.
 * Thread-safe.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a span; returns its id (0 when disabled). */
    std::uint64_t add(const char *name, bertprof::MonoTime start,
                      bertprof::MonoTime end, std::uint64_t link,
                      std::uint64_t request, std::int64_t child_ns,
                      int thread);

    /** Self time per span name: duration minus child coverage, ms. */
    std::map<std::string, double> selfMsByName() const;

    /** Write every span as a Chrome trace; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Milliseconds between two instants. */
double msBetween(bertprof::MonoTime from, bertprof::MonoTime to);

/** Approximate process start (static initialization time). */
bertprof::MonoTime processStart();

/** Peak resident set of this process so far, MiB. */
double peakRssMib();

/**
 * The pool thread count every workload runs at. On the shared 4-vCPU
 * host the benchmark was sized on, a second lane made pretrain steps
 * about 30% faster but doubled their run-to-run spread, and made
 * serve latency both slower and less steady (see README.md).
 */
constexpr int kPoolThreads = 1;

/** Pool thread count for the untimed correctness checks: every core.
 *  Eval forwards are bitwise identical at any thread count (tested by
 *  EvalMode.EvalForwardIsThreadCountInvariant). */
int checkThreads();

/** Environment stamp: host, build and every effective knob (JSON). */
std::string environmentStamp();

/** "name p50 ... tail pX (n=N)" summary line for a sample set. */
std::string describeSamples(const char *name, const char *unit,
                            const std::vector<double> &samples);

/** The workloads (pretrain.cc, serve.cc). */
Result runPretrain(const Args &args);
Result runServe(const Args &args);

} // namespace e2e

#endif // E2EBENCH_BENCH_H
