/**
 * @file
 * Shared pieces of the end-to-end benchmark driver: command-line
 * arguments, the result report (printed as the final JSON line), the
 * per-layer metric set every traced run emits, and small statistics
 * helpers. See perfbench/README.md for the metric definitions.
 */

#ifndef CHOCOQ_PERFBENCH_HPP
#define CHOCOQ_PERFBENCH_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/chocoq_solver.hpp"
#include "model/exact.hpp"
#include "model/problem.hpp"
#include "obs/roofline.hpp"
#include "service/json.hpp"

namespace perfbench
{

/** Parsed command line of perfbench_driver. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** repeat_stream: service workers. */
    int workers = 1;
    /** wire_mixed client: server port and connection count. */
    int port = 0;
    int connections = 1;
};

/** Seconds since the driver's main() started. */
double sinceStart();

/**
 * Stopwatch on the process CPU clock. For work that runs on one thread
 * it reads the wall time the work takes on a core of its own: time the
 * thread spends preempted, or its virtual CPU descheduled by the host
 * (steal), does not count.
 */
class CpuTimer
{
  public:
    CpuTimer() : start_(now()) {}

    double seconds() const { return now() - start_; }
    double ms() const { return seconds() * 1e3; }

  private:
    static double now();
    double start_;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1] (0 for an empty vector). */
double percentile(std::vector<double> v, double q);

/**
 * The tail quantile to report for @p samples: 0.99 when at least ten
 * samples lie beyond it, else the highest of 0.95/0.90/0.75/0.50 that
 * leaves ten beyond (the reporting rule for small sample counts).
 */
double tailQuantile(std::size_t samples);

/** Arithmetic mean of @p v (0 for an empty vector). */
double mean(const std::vector<double> &v);

/**
 * Reporting rule for timings: "<what>: n=<samples> p50=<median>
 * <pXX>=<value>", where pXX is the highest of p99.9/p99/p95/p90/p75
 * that leaves at least ten samples above it.
 */
std::string describeTiming(const std::string &what,
                           const std::vector<double> &v,
                           const std::string &unit);

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/** Deterministic 64-bit mix of a seed and a stream id (splitmix64). */
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/**
 * The run's outcome. Checks that fail are counted in `failed` and make
 * the driver exit non-zero; the last stdout line is the JSON result
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Free-form line printed before the JSON result ("# " prefixed). */
    void note(const std::string &line);
    /** Count @p n attempted operations. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /** Record one failed operation or check. */
    void fail(const std::string &why);

    bool correct() const { return failed_ == 0; }
    /** Print the notes and the final JSON line. */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ------------------------------------------------------ service workloads

/** Quality of a service workload's noiseless Choco-Q answers. */
struct Quality
{
    /** Top state's probability when it is optimal, else 0 (a lower
     * bound on the mass on optima; results carry no distribution). */
    std::vector<double> success;
    /** Eq. 17 gap from best_cost: with all mass feasible, best_cost is
     * the distribution's expected cost. */
    std::vector<double> arg;
    double minFeasible = 1.0;

    void add(bool top_feasible, double top_objective, double top_probability,
             double best_cost, double feasible_mass,
             const chocoq::model::ExactResult &exact);
};

/** Check jobs.submitted == jobs.completed == ok+error+cancelled+expired
 * in a stats body (the {"type":"stats"} probe / metricsToJson). */
void reconcile(const chocoq::service::Json &stats, Report &report);

/** Every end-to-end metric of a service workload except setup_s:
 * wall_s from blocks of @p block_jobs completions, jobs_per_s from
 * @p ok jobs over @p seconds. */
void emitServiceEndToEnd(
    Report &report, const std::vector<double> &latencies,
    std::vector<std::chrono::steady_clock::time_point> ends,
    std::size_t block_jobs, const Quality &q, std::size_t ok, double seconds);

/** Kernel families with per-family metrics (the ones Choco-Q's fused
 * functional path runs on the paper scales). */
constexpr std::array<chocoq::obs::KernelId, 5> kReplayKernels = {
    chocoq::obs::KernelId::PhasedPairRotationGroup,
    chocoq::obs::KernelId::PairRotationGroup,
    chocoq::obs::KernelId::PairRotation,
    chocoq::obs::KernelId::PhaseTableCompressed,
    chocoq::obs::KernelId::ExpectationTableCompressed,
};

/** Replayed per-kernel rate on one job's artifacts. */
struct KernelRate
{
    double nsPerAmp = 0.0;
    double gbps = 0.0;
};

/**
 * Every per-layer metric of the traced run. A workload fills what it
 * exercises; layers it bypasses keep their zero (a count or time of
 * work that did not happen there), so every traced run emits the same
 * names.
 */
struct PerLayer
{
    // core: totals over the traced unit of work. On the service
    // workloads the compile figures cover their distinct structures,
    // compiled once each outside the service.
    double compileMs = 0.0;
    double eliminateMs = 0.0;
    double movebasisMs = 0.0;
    double movesetMs = 0.0;
    double tabulateMs = 0.0;
    double fusionPlanMs = 0.0;
    double compileUnattributedMs = 0.0;
    double solveMs = 0.0;
    double simMs = 0.0;
    double classicalMs = 0.0;
    double transpileMs = 0.0;
    double artifactBytes = 0.0;
    // core per job (service view).
    double simMsPerJob = 0.0;
    double classicalMsPerJob = 0.0;
    double transpileMsPerJob = 0.0;
    // optimize: exact counts.
    double evaluations = 0.0;
    double iterations = 0.0;
    // sim: per-kernel calls/amps over the traced unit of work.
    std::array<chocoq::obs::KernelTally, chocoq::obs::kKernelCount> kernels{};
    std::array<KernelRate, kReplayKernels.size()> rates{};
    double replayQubits = 0.0;
    double bytesModeled = 0.0;
    double flopsModeled = 0.0;
    double usefulAmpFrac = 0.0;
    double callsPerJob = 0.0;
    double ampsPerCall = 0.0;
    double triadStateGbps = 0.0;
    double triadStateBytes = 0.0;
    double triadDramGbps = 0.0;
    double triadDramBytes = 0.0;
    // service / wire.
    double queueMsP50 = 0.0;
    double queueMsP99 = 0.0;
    double execMsP50 = 0.0;
    double execMsP99 = 0.0;
    double serviceUnattributedMsPerJob = 0.0;
    double parseUs = 0.0;
    double respondUs = 0.0;
    double acceptMs = 0.0;
    double firstByteMs = 0.0;
    double registryHitRate = 0.0;
    double cacheHitRate = 0.0;
    std::map<std::string, double> solverExecMsP50;
    // whole run.
    double unattributedMs = 0.0;
    double traceOverhead = 0.0;
};

/** Solver labels of the solvers.<label>.exec_ms_p50 metrics. */
const std::vector<std::string> &solverLabels();

/** Emit every per-layer metric into @p report. */
void emitPerLayer(Report &report, const PerLayer &layers);

// ---------------------------------------------------------------- layers

/** Compile sub-stage times (ms) from replaying the public stage
 * functions of ChocoQSolver::compile in its order. */
struct CompileSplit
{
    double eliminateMs = 0.0;
    double movebasisMs = 0.0;
    double movesetMs = 0.0;
    double tabulateMs = 0.0;
    double fusionPlanMs = 0.0;
    /** Executable sub-instances and kept variables (for the useful
     * amplitude fraction). */
    int subInstances = 0;
    int keptVars = 0;
};

CompileSplit replayCompile(const chocoq::model::Problem &p,
                           const chocoq::core::ChocoQOptions &opts);

/** Add a replayed split's stage times into @p layers. */
void addCompileSplit(const CompileSplit &split, PerLayer &layers);

/**
 * The compile and kernel layers of a service workload, measured outside
 * the service on its distinct structures: each compiled once (timed)
 * and replayed stage by stage, the useful-amplitude fraction, then the
 * kernel replays and triad ceilings on the largest one.
 */
void replayStructures(
    const std::vector<std::pair<const chocoq::model::Problem *,
                                std::uint64_t>> &problems_and_feasible,
    PerLayer &layers);

/** Replay each kReplayKernels family on @p art's first sub-instance at
 * its dimension, then measure the triad ceilings at that state size;
 * fills layers.rates, layers.replayQubits and the triad fields. */
void replayKernels(const chocoq::core::ChocoQArtifacts &art,
                   PerLayer &layers);

/** Fill the sim.* totals (bytes/flops modeled, calls per job, amps per
 * call) from layers.kernels. */
void finishKernelTotals(PerLayer &layers, std::size_t jobs);

/** Add a job's kernel sink into layers.kernels. */
void addKernels(const chocoq::obs::KernelCounterSink &sink,
                PerLayer &layers);

/** Read a stats-probe body's kernels.<name>.calls/.amps counters (the
 * service's own per-job kernel tallies) into layers.kernels. */
void kernelsFromStats(const chocoq::service::Json &stats, PerLayer &layers);

// ------------------------------------------------------------- workloads

void runPaperScales(const Args &args, Report &report);
void runRepeatStream(const Args &args, Report &report);
void runWireClient(const Args &args, Report &report);

} // namespace perfbench

#endif // CHOCOQ_PERFBENCH_HPP
