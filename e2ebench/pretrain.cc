/**
 * @file
 * The `pretrain` workload: a closed loop over one Trainer running BERT
 * MLM+NSP with LAMB, dynamic loss scaling and dropout 0.1 at the
 * paper's Phase-1 ratios scaled down, saving a checkpoint every
 * kStepsPerSave steps. Each call into trainStep() and saveCheckpoint()
 * is timed from outside; a traced run also attaches a Profiler through
 * NnRuntime::profiler and the Lamb constructor.
 */

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "bench.h"
#include "data/synthetic.h"
#include "optim/grad_scaler.h"
#include "optim/lamb.h"
#include "optim/lr_schedule.h"
#include "train/trainer.h"

namespace e2e {

using namespace bertprof;

namespace {

/** Training steps between two checkpoint saves. The measured phase
 *  runs whole rounds of steps + save so every run pays the same
 *  share of I/O. */
constexpr int kStepsPerSave = 5;

BertConfig
pretrainConfig(bool quick)
{
    BertConfig c;
    c.name = quick ? "e2e-pretrain-quick" : "e2e-pretrain";
    c.numLayers = 2;
    c.dModel = quick ? 64 : 256;
    c.numHeads = 4;
    c.dFf = 4 * c.dModel;
    c.vocabSize = quick ? 1024 : 8192;
    c.maxPositions = quick ? 64 : 512;
    c.batch = quick ? 2 : 8;
    c.seqLen = quick ? 32 : 128;
    c.maxPredictions = quick ? 5 : 20;
    return c;
}

NnRuntime
trainRuntime(std::uint64_t seed, Profiler *profiler)
{
    NnRuntime rt;
    rt.profiler = profiler;
    rt.rng = Rng(seed ^ 0xd1e5ULL);
    rt.dropoutP = 0.1f;
    return rt;
}

TrainerOptions
trainerOptions(const std::string &dir)
{
    TrainerOptions o;
    // Enables the checkpoint store without cadenced saves: the loop
    // calls saveCheckpoint() itself so it can time each save.
    o.checkpointEvery = std::numeric_limits<std::int64_t>::max();
    o.checkpointDir = dir;
    o.keepLast = 2;
    return o;
}

/** One Trainer and everything it borrows. Holds addresses of its own
 *  members, so it is neither copied nor moved. */
struct TrainRig {
    NnRuntime rt;
    BertPretrainer model;
    Lamb lamb;
    GradScaler scaler{1024.0f};
    LrSchedule schedule{1e-3f, 10, 1'000'000, DecayKind::Linear};
    SyntheticDataset dataset;
    Trainer trainer;

    TrainRig(const BertConfig &config, std::uint64_t seed,
             Profiler *profiler, const std::string &dir)
        : rt(trainRuntime(seed, profiler)), model(config, &rt),
          lamb(OptimizerConfig{}, profiler), dataset(config, seed),
          trainer(model, lamb, scaler, schedule, dataset, rt,
                  trainerOptions(dir))
    {
        Rng init(seed * 0x9e3779b97f4a7c15ULL + 1);
        model.initialize(init);
    }

    TrainRig(const TrainRig &) = delete;
    TrainRig &operator=(const TrainRig &) = delete;
};

bool
stepOk(const TrainStepResult &step)
{
    return step.status == StepStatus::Applied &&
           std::isfinite(step.metrics.totalLoss());
}

/** What one measured phase saw. */
struct TrainPhase {
    std::vector<double> stepMs;
    std::vector<double> saveMs;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t appliedSteps = 0;
    double wallS = 0.0;
    double hostMs = 0.0; ///< step wall minus kernel time (traced)
};

/**
 * Closed loop: rounds of kStepsPerSave steps then one save, until
 * `seconds` have passed at a round boundary. With a profiler, each
 * step's kernel records are folded into `tally` and spans recorded.
 */
TrainPhase
measure(TrainRig &rig, double seconds, Profiler *profiler,
        KernelTally &tally, SpanLog &spans)
{
    TrainPhase p;
    const MonoTime start = monoNow();
    do {
        for (int s = 0; s < kStepsPerSave; ++s) {
            const MonoTime t0 = monoNow();
            const TrainStepResult step = rig.trainer.trainStep();
            const MonoTime t1 = monoNow();
            const double ms = msBetween(t0, t1);
            p.stepMs.push_back(ms);
            ++p.attempted;
            if (stepOk(step))
                ++p.appliedSteps;
            else
                ++p.failed;
            if (profiler) {
                const double kernel_s = tally.drain(*profiler);
                p.hostMs += ms - kernel_s * 1e3;
                spans.add("train.step", t0, t1, 0,
                          static_cast<std::uint64_t>(
                              rig.trainer.iteration()),
                          static_cast<std::int64_t>(kernel_s * 1e9), 0);
            }
        }
        const MonoTime t0 = monoNow();
        const IoStatus saved = rig.trainer.saveCheckpoint();
        const MonoTime t1 = monoNow();
        p.saveMs.push_back(msBetween(t0, t1));
        ++p.attempted;
        if (!saved.ok())
            ++p.failed;
        spans.add("io.checkpoint_save", t0, t1, 0,
                  static_cast<std::uint64_t>(rig.trainer.iteration()), 0,
                  0);
    } while (secondsBetween(start, monoNow()) < seconds);
    p.wallS = secondsBetween(start, monoNow());
    return p;
}

bool
sameParameters(BertPretrainer &a, BertPretrainer &b)
{
    const std::vector<Parameter *> pa = a.parameters();
    const std::vector<Parameter *> pb = b.parameters();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        const Tensor &x = pa[i]->value;
        const Tensor &y = pb[i]->value;
        if (x.numel() != y.numel() ||
            std::memcmp(x.data(), y.data(),
                        static_cast<std::size_t>(x.numel()) *
                            sizeof(float)) != 0)
            return false;
    }
    return true;
}

/**
 * The resume gate: save the live state, restore it into a trainer
 * built from a different initialization, and require the same
 * iteration and bitwise-equal parameters. Returns the checkpoint
 * size in MiB through `mib`.
 */
bool
resumeRestoresLastSave(TrainRig &live, const BertConfig &config,
                       std::uint64_t seed, const std::string &dir,
                       double &mib)
{
    if (!live.trainer.saveCheckpoint().ok())
        return false;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(
        dir + "/ckpt-" + std::to_string(live.trainer.iteration()) +
            ".bpck",
        ec);
    mib = ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
    TrainRig fresh(config, seed + 1, nullptr, dir);
    return fresh.trainer.resumeLatest().ok() &&
           fresh.trainer.iteration() == live.trainer.iteration() &&
           sameParameters(fresh.model, live.model);
}

std::string
freshDir(const Args &args, const char *tag)
{
    const std::string dir = args.workDir + "/ckpt-" + tag + "-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

Result
runPretrain(const Args &args)
{
    Result result;
    const BertConfig config = pretrainConfig(args.quick);

    // Set-up: build, initialize and run the first step, several times;
    // the first is timed from process start.
    const std::string dir = freshDir(args, "e2e");
    std::vector<double> setup_s;
    std::unique_ptr<TrainRig> rig;
    for (int i = 0; i < kSetups; ++i) {
        const MonoTime t0 = i == 0 ? processStart() : monoNow();
        rig.reset();
        rig = std::make_unique<TrainRig>(config, args.seed, nullptr, dir);
        const bool ok = stepOk(rig->trainer.trainStep());
        setup_s.push_back(secondsBetween(t0, monoNow()));
        ++result.attempted;
        result.failed += ok ? 0 : 1;
    }
    result.e2e.setupS = median(setup_s);

    KernelTally unused;
    SpanLog off(false);
    const TrainPhase run =
        measure(*rig, args.phaseSeconds(), nullptr, unused, off);
    double ckpt_mib = 0.0;
    const bool resumed =
        resumeRestoresLastSave(*rig, config, args.seed, dir, ckpt_mib);
    result.attempted += run.attempted + 1;
    result.failed += run.failed + (resumed ? 0 : 1);
    result.e2e.latencyMs = run.stepMs;
    result.e2e.goodputSeqPerS = static_cast<double>(run.appliedSteps) *
                                static_cast<double>(config.batch) /
                                run.wallS;
    rig.reset();
    std::filesystem::remove_all(dir);

    result.notes.push_back(describeSamples("step", "ms", run.stepMs));
    result.notes.push_back(
        "train tokens/s: " +
        std::to_string(result.e2e.goodputSeqPerS *
                       static_cast<double>(config.seqLen)));
    result.notes.push_back(describeSamples("checkpoint save", "ms",
                                           run.saveMs));
    result.notes.push_back(describeSamples("setup_s", "s", setup_s));
    if (!resumed)
        result.notes.push_back("FAIL: resume did not restore the last save");

    if (args.trace) {
        // Traced run: a second trainer with the profiler attached,
        // compared against the untraced phase above.
        const std::string tdir = freshDir(args, "e2e-traced");
        Profiler profiler;
        SpanLog spans(true);
        KernelTally tally;
        TrainRig traced(config, args.seed, &profiler, tdir);
        result.failed += stepOk(traced.trainer.trainStep()) ? 0 : 1;
        ++result.attempted;
        profiler.clear();
        const TrainPhase t = measure(traced, args.phaseSeconds(), &profiler,
                                     tally, spans);
        double traced_mib = 0.0;
        const bool traced_resumed = resumeRestoresLastSave(
            traced, config, args.seed, tdir, traced_mib);
        result.attempted += t.attempted + 1;
        result.failed += t.failed + (traced_resumed ? 0 : 1);
        std::filesystem::remove_all(tdir);

        LayerReport &r = result.layers;
        r.kernels = tally;
        r.units = static_cast<double>(t.stepMs.size());
        r.stepHostMs = t.hostMs / r.units;
        r.checkpointSaveMs = median(t.saveMs);
        r.checkpointMib = traced_mib;
        r.overheadShare = median(t.stepMs) / median(run.stepMs) - 1.0;

        const std::string path = args.workDir + "/spans-pretrain-" +
                                 std::to_string(args.seed) + ".json";
        if (!spans.writeChromeTrace(path))
            result.notes.push_back("warning: could not write " + path);
        for (const auto &[name, ms] : spans.selfMsByName())
            result.notes.push_back("self time " + name + ": " +
                                   std::to_string(ms) + " ms");
        result.notes.push_back("spans: " + path);
    }
    result.layers.failShare =
        static_cast<double>(result.failed) /
        static_cast<double>(result.attempted);
    result.notes.push_back("checkpoint size: " + std::to_string(ckpt_mib) +
                           " MiB");
    return result;
}

} // namespace e2e
