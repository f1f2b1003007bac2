/**
 * @file
 * Workload paper_scales: registry case 0 of every scale F1-F3, G1-G4,
 * K1-K4 (F4 left out: one iters:40 job takes minutes), solved one at a
 * time through the core API — ChocoQSolver::compile cold, then
 * solveCompiled — with default Choco-Q options, iters:40 and the
 * default single-threaded kernels, in repeated passes over the suite.
 * Quality is checked against model::solveExact.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/timer.hpp"
#include "core/chocoq_solver.hpp"
#include "metrics/stats.hpp"
#include "model/exact.hpp"
#include "perfbench.hpp"
#include "problems/suite.hpp"

namespace perfbench
{

using chocoq::Timer;
namespace core = chocoq::core;
namespace problems = chocoq::problems;

namespace
{

constexpr int kIterations = 40;
constexpr int kSetupRepeats = 25;
/**
 * Passes over the suite a run makes at least; each pass puts every case
 * on the next CPU (see CpuPinning), so four passes visit four cores. A
 * case is reported by its mean over the passes: on a shared host a
 * single solve of a large case moved by 10-25% between passes and cores.
 */
constexpr int kMinPasses = 4;
/** After the first pass, a case faster than kRepeatMs is solved
 * ceil(kRepeatMs / its time) times in a row per pass, at most
 * kMaxRepeats: more samples where they are cheap. */
constexpr double kRepeatMs = 100.0;
constexpr int kMaxRepeats = 32;

/**
 * Pins the thread that created it to one CPU of the process's affinity
 * set at a time; restores the whole set when destroyed. On a shared host
 * each core's speed depends on its neighbours' load and differs by up to
 * ~2x between cores for minutes at a time, so the workload moves each
 * case to another core on every pass and reports the mean: a case's time
 * is then the average over the cores, not the speed of whichever core
 * the scheduler picked. A job is never moved while it runs.
 */
class CpuPinning
{
  public:
    CpuPinning()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &allowed_))
                    cpus_.push_back(c);
    }

    ~CpuPinning() { sched_setaffinity(0, sizeof allowed_, &allowed_); }

    CpuPinning(const CpuPinning &) = delete;
    CpuPinning &operator=(const CpuPinning &) = delete;

    /** Pin to CPU number @p slot modulo the set's size. */
    void
    pin(std::size_t slot) const
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[slot % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
};

struct Case
{
    chocoq::model::Problem problem;
    chocoq::model::ExactResult exact;
};

/** The suite: registry case 0 of every scale except F4, with its exact
 * ground truth. */
std::vector<Case>
prepareSuite()
{
    std::vector<Case> suite;
    for (const auto scale : problems::allScales()) {
        if (scale == problems::Scale::F4)
            continue;
        chocoq::model::Problem p = problems::makeCase(scale, 0);
        chocoq::model::ExactResult exact = chocoq::model::solveExact(p);
        suite.push_back({std::move(p), std::move(exact)});
    }
    return suite;
}

/** Seed-drawn order of the suite's cases in pass @p pass (indices into
 * the suite). */
std::vector<std::size_t>
passOrder(std::size_t cases, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> order(cases);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::uint64_t stream = static_cast<std::uint64_t>(pass) * 64;
    for (std::size_t i = cases - 1; i > 0; --i)
        std::swap(order[i], order[mix(seed, stream + i) % (i + 1)]);
    return order;
}

core::ChocoQOptions
paperOptions()
{
    core::ChocoQOptions opts;
    opts.engine.opt.maxIterations = kIterations;
    return opts;
}

/** One solved case as the workload sees it. */
struct JobOutcome
{
    /** Compile plus solve on the CPU clock (the job is single-threaded);
     * compileMs and solveMs are wall time, as the engine's own spans. */
    double latencyMs = 0.0;
    double compileMs = 0.0;
    double solveMs = 0.0;
    chocoq::metrics::RunStats stats;
    core::SolverOutcome outcome;
    std::shared_ptr<const core::ChocoQArtifacts> artifacts;
    bool ok = false;
};

/** Compile cold, solve, and check one case; @p sink (optional) receives
 * the solve's kernel mix. */
JobOutcome
runCase(const Case &c, Report &report, chocoq::obs::KernelCounterSink *sink)
{
    core::ChocoQOptions opts = paperOptions();
    opts.engine.kernelCounters = sink;
    const core::ChocoQSolver solver(opts);
    JobOutcome job;
    report.attempt();
    try {
        CpuTimer total;
        Timer t;
        job.artifacts = solver.compile(c.problem);
        job.compileMs = t.ms();
        t.reset();
        job.outcome = solver.solveCompiled(c.problem, *job.artifacts);
        job.solveMs = t.ms();
        job.latencyMs = total.ms();
        job.stats = chocoq::metrics::computeStats(
            c.problem, job.outcome.distribution, c.exact);
    } catch (const std::exception &e) {
        report.fail(c.problem.name() + ": " + e.what());
        return job;
    }
    // The paper's guarantee: noiseless commute-Hamiltonian evolution
    // keeps all mass on feasible states.
    if (!(job.stats.inConstraintsRate >= 1.0 - 1e-9)) {
        std::ostringstream msg;
        msg << c.problem.name() << ": feasible mass "
            << job.stats.inConstraintsRate << " < 1 - 1e-9";
        report.fail(msg.str());
        return job;
    }
    if (!std::isfinite(job.stats.successRate) || !std::isfinite(job.stats.arg)
        || job.stats.successRate < 0.0 || job.stats.successRate > 1.0 + 1e-9
        || job.stats.arg < 0.0) {
        report.fail(c.problem.name() + ": quality metrics out of range");
        return job;
    }
    job.ok = true;
    return job;
}

} // namespace

void
runPaperScales(const Args &args, Report &report)
{
    // Set-up: generate the suite and its exact ground truth; done
    // kSetupRepeats times, the first one also carrying process start.
    std::vector<Case> suite;
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Timer t;
        suite = prepareSuite();
        setup.push_back(i == 0 ? sinceStart() : t.seconds());
    }
    const CpuPinning pinning;
    // Latencies (CPU clock) of each case: every solve, and the median of
    // each pass's solves; its quality (the same on every solve: the
    // solver is deterministic).
    std::vector<std::vector<double>> case_ms(suite.size());
    std::vector<std::vector<double>> case_pass_ms(suite.size());
    std::vector<double> success(suite.size(), 0.0);
    std::vector<double> args_gap(suite.size(), 0.0);
    std::vector<int> repeats(suite.size(), 1);
    double min_feasible = 1.0;
    std::size_t jobs = 0;

    // Pass @p pass over @p order, case i on CPU slot i + pass; returns
    // the pass's CPU seconds and records its wall seconds.
    std::vector<double> pass_walls;
    auto run_cases = [&](const std::vector<std::size_t> &order, int pass) {
        Timer wall;
        CpuTimer cpu;
        for (const std::size_t i : order) {
            pinning.pin(i + static_cast<std::size_t>(pass));
            std::vector<double> pass_ms;
            for (int k = 0; k < repeats[i]; ++k) {
                JobOutcome job = runCase(suite[i], report, nullptr);
                if (!job.ok)
                    continue;
                pass_ms.push_back(job.latencyMs);
                case_ms[i].push_back(job.latencyMs);
                success[i] = job.stats.successRate;
                args_gap[i] = job.stats.arg;
                min_feasible =
                    std::min(min_feasible, job.stats.inConstraintsRate);
                ++jobs;
            }
            if (!pass_ms.empty())
                case_pass_ms[i].push_back(median(pass_ms));
        }
        const double cpu_seconds = cpu.seconds();
        pass_walls.push_back(wall.seconds());
        return cpu_seconds;
    };

    if (!args.trace) {
        report.metric("setup_s", median(setup), "s");
        report.note(describeTiming("set-up", setup, "s"));
        // Closed loop over whole passes, each in its seed-drawn order,
        // until the next pass would not fit in the measurement window;
        // at least kMinPasses. Timings are on the CPU clock: the jobs
        // run one at a time on one thread, and on a shared host the wall
        // clock also counts the time the core is taken away.
        Timer window;
        std::vector<double> passes;
        for (int r = 0;; ++r) {
            passes.push_back(
                run_cases(passOrder(suite.size(), args.seed, r), r));
            if (r == 0)
                for (std::size_t i = 0; i < suite.size(); ++i)
                    if (!case_ms[i].empty())
                        repeats[i] = static_cast<int>(std::clamp(
                            std::ceil(kRepeatMs / case_ms[i].front()), 1.0,
                            static_cast<double>(kMaxRepeats)));
            if (r + 1 >= kMinPasses
                && window.seconds() + median(pass_walls) > args.seconds)
                break;
        }
        // A case's time: its per-pass medians (one core each) averaged
        // over the passes (the cores). The suite's time is their sum.
        std::vector<double> typical;
        for (const auto &ms : case_pass_ms)
            if (!ms.empty())
                typical.push_back(mean(ms));
        const double suite_s =
            std::accumulate(typical.begin(), typical.end(), 0.0) / 1e3;
        report.metric("wall_s", suite_s, "s");
        report.metric("jobs_per_s",
                      suite_s > 0.0
                          ? static_cast<double>(typical.size()) / suite_s
                          : 0.0,
                      "1/s");
        // Over the cases' times: p50 is the middle case, p99 the slowest
        // (one value per case).
        report.metric("latency_p50_ms", percentile(typical, 0.5), "ms");
        report.metric("latency_p99_ms", percentile(typical, 0.99), "ms");
        report.metric("success_prob", mean(success), "fraction");
        report.metric("arg", mean(args_gap), "ratio");
        report.metric("in_constraints", min_feasible, "fraction");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        std::ostringstream n;
        n << "paper_scales: " << passes.size() << " passes, " << jobs
          << " jobs; case latencies in solve order (cpu ms):";
        for (std::size_t i = 0; i < suite.size(); ++i) {
            n << " " << suite[i].problem.name() << "=";
            for (std::size_t k = 0; k < case_ms[i].size(); ++k)
                n << (k ? "/" : "") << case_ms[i][k];
        }
        report.note(n.str());
        report.note(describeTiming("pass cpu", passes, "s"));
        report.note(describeTiming("pass wall clock", pass_walls, "s"));
        report.note(describeTiming("case time (cpu)", typical, "ms"));
        return;
    }

    // Traced run: a fixed unit of work (one pass), untraced before and
    // after the traced pass (the first pass also warms the allocator),
    // the traced pass with kernel sinks and compile-stage replays; all
    // three passes on the CPU clock.
    const std::vector<std::size_t> order =
        passOrder(suite.size(), args.seed, 0);
    const double untraced_first = run_cases(order, 0);
    PerLayer layers;
    const core::ChocoQOptions opts = paperOptions();
    double replay_seconds = 0.0;
    double useful_num = 0.0;
    double useful_den = 0.0;
    double spans_ms = 0.0;
    std::shared_ptr<const core::ChocoQArtifacts> largest;
    CpuTimer traced_cpu;
    for (const std::size_t i : order) {
        const Case &c = suite[i];
        chocoq::obs::KernelCounterSink sink;
        pinning.pin(i);
        JobOutcome job = runCase(c, report, &sink);
        CpuTimer replay;
        const CompileSplit split = replayCompile(c.problem, opts);
        replay_seconds += replay.seconds();
        addKernels(sink, layers);
        layers.compileMs += job.compileMs;
        addCompileSplit(split, layers);
        layers.solveMs += job.solveMs;
        const double art_ms =
            job.artifacts ? job.artifacts->seconds * 1e3 : 0.0;
        const double transpile_ms =
            std::max(0.0, job.outcome.compileSeconds * 1e3 - art_ms);
        layers.simMs += job.outcome.simSeconds * 1e3;
        layers.classicalMs += job.outcome.classicalSeconds * 1e3;
        layers.transpileMs += transpile_ms;
        layers.evaluations += job.outcome.evaluations;
        layers.iterations += job.outcome.iterations;
        if (job.artifacts)
            layers.artifactBytes +=
                static_cast<double>(job.artifacts->memoryBytes());
        spans_ms += job.compileMs + job.outcome.simSeconds * 1e3
                    + job.outcome.classicalSeconds * 1e3 + transpile_ms;
        // Useful work: feasible states over the amplitudes the dense
        // kernels sweep (sub-instances x 2^k).
        const double swept = static_cast<double>(split.subInstances)
                             * std::ldexp(1.0, split.keptVars);
        useful_num += static_cast<double>(c.exact.feasibleCount);
        useful_den += swept;
        std::ostringstream n;
        n << "case " << c.problem.name() << ": compile " << job.compileMs
          << " ms (stages " << split.eliminateMs << "/" << split.movebasisMs
          << "/" << split.movesetMs << "/" << split.tabulateMs << "/"
          << split.fusionPlanMs << "), solve " << job.solveMs
          << " ms, k=" << split.keptVars << " x" << split.subInstances
          << " subs, feasible " << c.exact.feasibleCount
          << ", useful_amp_frac " << c.exact.feasibleCount / swept
          << ", success " << job.stats.successRate << ", reported compile_s "
          << job.outcome.compileSeconds;
        report.note(n.str());
        if (job.artifacts
            && (!largest
                || job.artifacts->subs.front().numQubits
                       > largest->subs.front().numQubits))
            largest = job.artifacts;
    }
    const double traced_seconds = traced_cpu.seconds() - replay_seconds;
    const double untraced_last = run_cases(order, 0);
    layers.compileUnattributedMs =
        layers.compileMs
        - (layers.eliminateMs + layers.movebasisMs + layers.movesetMs
           + layers.tabulateMs + layers.fusionPlanMs);
    const std::size_t n_jobs = suite.size();
    layers.simMsPerJob = layers.simMs / n_jobs;
    layers.classicalMsPerJob = layers.classicalMs / n_jobs;
    layers.transpileMsPerJob = layers.transpileMs / n_jobs;
    layers.usefulAmpFrac = useful_den > 0.0 ? useful_num / useful_den : 0.0;
    finishKernelTotals(layers, n_jobs);
    layers.unattributedMs = (traced_seconds * 1e3 - spans_ms) / n_jobs;
    layers.traceOverhead =
        traced_seconds / ((untraced_first + untraced_last) / 2) - 1.0;
    if (largest)
        replayKernels(*largest, layers);
    emitPerLayer(report, layers);
    std::ostringstream n;
    n << "paper_scales traced (cpu): untraced " << untraced_first << " / "
      << untraced_last
      << " s, traced " << traced_seconds << " s, replays "
      << replay_seconds << " s, kernel replay at "
      << layers.replayQubits << " qubits";
    report.note(n.str());
}

} // namespace perfbench
