/**
 * @file
 * Workload repeat_stream: an in-process SolveService fed a closed loop
 * of Choco-Q jobs over six tiny structures (F1#0, F1#1, K1#0, K1#1, K2#0,
 * G1#0), each job with its own seed, iters:20, keep_starts:2, and a few
 * jobs in flight per worker. Compile-cache hits dominate, so per-job
 * fixed costs (scheduling, cache lookup, engine set-up, optimizer
 * bookkeeping, transpile-for-depth, metrics) set the throughput.
 */

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>

#include "common/timer.hpp"
#include "model/exact.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "problems/suite.hpp"
#include "service/service.hpp"

namespace perfbench
{

using chocoq::Timer;
namespace service = chocoq::service;
using Clock = std::chrono::steady_clock;

namespace
{

constexpr int kIterations = 20;
constexpr int kKeepStarts = 2;
constexpr int kInflightPerWorker = 4;
constexpr int kSetupRepeats = 25;
/** Jobs per wall_s block, and jobs in the traced run's fixed unit. */
constexpr std::size_t kBlockJobs = 1000;
constexpr std::size_t kTracedJobs = 6000;
/** Latency samples kept without growing the buffers (~17k jobs/s for
 * 30 s). */
constexpr std::size_t kSampleCapacity = std::size_t{1} << 19;

struct Structure
{
    const char *scale;
    unsigned caseIndex;
};

constexpr Structure kStructures[] = {
    {"F1", 0}, {"F1", 1}, {"K1", 0}, {"K1", 1}, {"K2", 0}, {"G1", 0},
};
constexpr std::size_t kStructureCount = std::size(kStructures);

/** The structure a job's hash draws. */
std::size_t
structureOf(std::uint64_t h)
{
    return h % kStructureCount;
}

/** Job @p n of the seed's stream: a seed-drawn structure, its own seed. */
service::SolveJob
makeJob(std::uint64_t seed, std::size_t n)
{
    const std::uint64_t h = mix(seed, n);
    const Structure &s = kStructures[structureOf(h)];
    service::SolveJob job;
    job.id = "r" + std::to_string(n);
    job.scale = s.scale;
    job.caseIndex = s.caseIndex;
    job.seed = h >> 11;
    job.maxIterations = kIterations;
    job.keepStarts = kKeepStarts;
    return job;
}

/** One finished job as the closed loop saw it. */
struct Done
{
    std::size_t n = 0;
    /** Index into kStructures. */
    std::size_t structure = 0;
    double latencyMs = 0.0;
    Clock::time_point at;
    service::SolveResult result;
};

/**
 * Drive @p svc with @p inflight jobs outstanding until @p deadline_s
 * passes (when > 0) or @p max_jobs were submitted (when > 0); waits for
 * every submitted job and hands each to @p handle on this thread, as it
 * finishes. Returns the loop's wall time in seconds.
 */
template <class Handle>
double
closedLoop(service::SolveService &svc, std::uint64_t seed, int inflight,
           double deadline_s, std::size_t max_jobs, bool trace,
           Handle &&handle)
{
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Done> finished;

    Timer wall;
    std::size_t submitted = 0;
    std::size_t outstanding = 0;
    auto submit_one = [&] {
        service::SolveJob job = makeJob(seed, submitted);
        job.trace = trace;
        const std::size_t n = submitted++;
        const std::size_t structure = structureOf(mix(seed, n));
        ++outstanding;
        const auto sent = Clock::now();
        svc.submit(std::move(job),
                   [&, n, structure, sent](const service::SolveResult &r) {
                       Done d;
                       d.n = n;
                       d.structure = structure;
                       d.at = Clock::now();
                       d.latencyMs = std::chrono::duration<double, std::milli>(
                                         d.at - sent)
                                         .count();
                       d.result = r;
                       std::lock_guard<std::mutex> lock(mu);
                       finished.push_back(std::move(d));
                       cv.notify_one();
                   });
    };
    auto more = [&] {
        return (max_jobs == 0 || submitted < max_jobs)
               && (deadline_s <= 0.0 || wall.seconds() < deadline_s);
    };
    while (outstanding < static_cast<std::size_t>(inflight) && more())
        submit_one();
    while (outstanding > 0) {
        std::deque<Done> batch;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !finished.empty(); });
            batch.swap(finished);
        }
        for (auto &d : batch) {
            --outstanding;
            if (more())
                submit_one();
            handle(d);
        }
    }
    return wall.seconds();
}

/** Exact optimum per structure (minimization form). */
std::vector<chocoq::model::ExactResult>
exactTruth()
{
    std::vector<chocoq::model::ExactResult> out;
    for (const auto &s : kStructures)
        out.push_back(chocoq::model::solveExact(chocoq::problems::makeCase(
            *chocoq::problems::scaleByName(s.scale), s.caseIndex)));
    return out;
}

/** Span duration by name in a traced result (0 when absent). */
double
spanMs(const service::SolveResult &r, const std::string &name)
{
    if (!r.trace)
        return 0.0;
    double acc = 0.0;
    for (const auto &s : r.trace->spans())
        if (s.name == name)
            acc += s.durMs;
    return acc;
}

/**
 * Service with the six structures compiled into its cache. @p miss_ms
 * (optional) receives each structure's compile span as its miss paid
 * it — the artifact's own compile time.
 */
std::unique_ptr<service::SolveService>
warmService(int workers, std::uint64_t seed, Report &report,
            std::vector<double> *miss_ms = nullptr)
{
    service::ServiceOptions options;
    options.workers = workers;
    auto svc = std::make_unique<service::SolveService>(options);
    std::vector<service::SolveJob> warm;
    for (std::size_t i = 0; i < kStructureCount; ++i) {
        service::SolveJob job;
        job.id = "warm" + std::to_string(i);
        job.scale = kStructures[i].scale;
        job.caseIndex = kStructures[i].caseIndex;
        job.seed = mix(seed, 1u << 30) + i;
        job.maxIterations = kIterations;
        job.keepStarts = kKeepStarts;
        job.trace = true;
        warm.push_back(std::move(job));
    }
    for (const auto &r : svc->solveAll(warm)) {
        if (r.status != "ok")
            report.fail("warm-up job " + r.id + ": " + r.error);
        if (miss_ms)
            miss_ms->push_back(spanMs(r, "compile"));
    }
    return svc;
}

/** Check one finished job; record its quality when it passes. Returns
 * whether it was ok. */
bool
checkJob(const Done &d, const std::vector<chocoq::model::ExactResult> &truth,
         Report &report, Quality &q)
{
    const service::SolveResult &r = d.result;
    report.attempt();
    if (r.status != "ok") {
        report.fail("job " + r.id + ": status " + r.status + " " + r.error);
        return false;
    }
    if (!(r.feasibleMass >= 1.0 - 1e-9)) {
        std::ostringstream msg;
        msg << "job " << r.id << ": feasible mass " << r.feasibleMass;
        report.fail(msg.str());
        return false;
    }
    const auto &exact = truth[d.structure];
    if (!std::isfinite(r.bestCost) || r.bestCost < exact.optimum - 1e-6) {
        report.fail("job " + r.id + ": best cost below the exact optimum");
        return false;
    }
    q.add(r.topFeasible, r.topObjective, r.topProbability, r.bestCost,
          r.feasibleMass, exact);
    return true;
}

} // namespace

void
runRepeatStream(const Args &args, Report &report)
{
    const int inflight = kInflightPerWorker * args.workers;

    // Set-up: exact ground truth, a service, and its compile cache warmed
    // with the six structures; repeated, the first one carrying process
    // start. The last service is the one measured.
    std::vector<chocoq::model::ExactResult> truth;
    std::unique_ptr<service::SolveService> svc;
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Timer t;
        svc.reset();
        truth = exactTruth();
        svc = warmService(args.workers, args.seed, report);
        setup.push_back(i == 0 ? sinceStart() : t.seconds());
    }

    if (!args.trace) {
        report.metric("setup_s", median(setup), "s");
        report.note(describeTiming("set-up", setup, "s"));
        // Results are checked as they arrive and only their timings kept.
        // The sample buffers are sized and touched up front, so this
        // process's peak memory does not grow with the jobs completed.
        Quality q;
        std::size_t ok = 0;
        std::vector<double> latencies(kSampleCapacity);
        std::vector<Clock::time_point> ends(kSampleCapacity);
        latencies.clear();
        ends.clear();
        const double seconds = closedLoop(
            *svc, args.seed, inflight, args.seconds, 0, false,
            [&](const Done &d) {
                ok += checkJob(d, truth, report, q) ? 1 : 0;
                latencies.push_back(d.latencyMs);
                ends.push_back(d.at);
            });
        svc->drain();
        reconcile(svc->metricsToJson(), report);
        emitServiceEndToEnd(report, latencies, std::move(ends), kBlockJobs, q,
                            ok, seconds);
        std::ostringstream n;
        n << "repeat_stream: " << args.workers << " workers, " << inflight
          << " in flight, " << latencies.size() << " jobs in " << seconds
          << " s, cache hit rate " << svc->cacheStats().hitRate();
        report.note(n.str());
        return;
    }

    // Traced run: a fixed unit of kTracedJobs jobs, untraced, then with
    // per-job span timelines, then untraced again (the overhead base).
    Quality untraced_q;
    auto check = [&](const Done &d) { checkJob(d, truth, report, untraced_q); };
    const double first_s = closedLoop(*svc, args.seed, inflight, 0.0,
                                      kTracedJobs, false, check);
    // The artifact's own compile time, as the miss (warm-up) job of each
    // structure paid it: SolveResult.compile_s adds it to every hit.
    std::vector<double> art_ms;
    auto traced_svc = warmService(args.workers, args.seed, report, &art_ms);
    std::vector<Done> traced;
    const double traced_s =
        closedLoop(*traced_svc, args.seed, inflight, 0.0, kTracedJobs, true,
                   [&](const Done &d) { traced.push_back(d); });
    const double base_s = closedLoop(*svc, args.seed, inflight, 0.0,
                                     kTracedJobs, false, check);
    traced_svc->drain();

    PerLayer layers;
    Quality q;
    std::vector<double> queue, exec;
    double unattributed = 0.0;
    double service_unattributed = 0.0;
    std::vector<double> reported_hit_compile;
    for (const auto &d : traced) {
        checkJob(d, truth, report, q);
        const service::SolveResult &r = d.result;
        const double tr =
            std::max(0.0, r.compileSeconds * 1e3 - art_ms[d.structure]);
        const double spans = spanMs(r, "resolve") + spanMs(r, "compile")
                             + r.simSeconds * 1e3 + r.classicalSeconds * 1e3
                             + tr;
        queue.push_back(r.queueMs);
        exec.push_back(r.solveMs);
        service_unattributed += r.solveMs - spans;
        unattributed += d.latencyMs - r.queueMs - spans;
        layers.transpileMs += tr;
        layers.solveMs += spanMs(r, "solve");
        layers.simMs += r.simSeconds * 1e3;
        layers.classicalMs += r.classicalSeconds * 1e3;
        layers.evaluations += r.evaluations;
        layers.iterations += r.iterations;
        if (r.cacheHit)
            reported_hit_compile.push_back(r.compileSeconds * 1e3
                                           - spanMs(r, "compile"));
    }
    const double jobs = static_cast<double>(traced.size());
    layers.simMsPerJob = layers.simMs / jobs;
    layers.classicalMsPerJob = layers.classicalMs / jobs;
    layers.transpileMsPerJob = layers.transpileMs / jobs;
    layers.queueMsP50 = percentile(queue, 0.5);
    layers.queueMsP99 = percentile(queue, 0.99);
    layers.execMsP50 = percentile(exec, 0.5);
    layers.execMsP99 = percentile(exec, 0.99);
    layers.serviceUnattributedMsPerJob = service_unattributed / jobs;
    layers.unattributedMs = unattributed / jobs;
    layers.solverExecMsP50["choco-q"] = percentile(exec, 0.5);
    const service::Json stats = traced_svc->metricsToJson();
    reconcile(stats, report);
    kernelsFromStats(stats, layers);
    finishKernelTotals(layers, traced.size() + kStructureCount);
    const auto cache = traced_svc->cacheStats();
    layers.cacheHitRate = cache.hitRate();
    layers.artifactBytes = static_cast<double>(cache.bytes);
    layers.traceOverhead = traced_s / ((first_s + base_s) / 2) - 1.0;

    std::vector<chocoq::model::Problem> problems;
    for (const auto &s : kStructures)
        problems.push_back(chocoq::problems::makeCase(
            *chocoq::problems::scaleByName(s.scale), s.caseIndex));
    std::vector<std::pair<const chocoq::model::Problem *, std::uint64_t>>
        structures;
    for (std::size_t i = 0; i < kStructureCount; ++i)
        structures.push_back({&problems[i], truth[i].feasibleCount});
    replayStructures(structures, layers);
    emitPerLayer(report, layers);

    std::ostringstream n;
    n << "repeat_stream traced: " << kTracedJobs << " jobs; untraced "
      << first_s << " / " << base_s << " s, traced " << traced_s << " s";
    report.note(n.str());
    report.note(describeTiming("queue", queue, "ms"));
    report.note(describeTiming("exec", exec, "ms"));
    report.note(describeTiming(
        "compile_s reported on cache hits minus the hit's real compile span",
        reported_hit_compile, "ms"));
}

} // namespace perfbench
