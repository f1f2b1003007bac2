#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "device/device.hpp"
#include "problems/suite.hpp"
#include "solvers/cyclic.hpp"
#include "solvers/hea.hpp"
#include "solvers/penalty.hpp"

namespace chocoq::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * Per-job engine configuration: every stochastic stream (final
 * sampling, noisy trajectories) is derived from the job seed alone, so
 * results depend only on (job, seed) — never on the worker that ran the
 * job or on submission order.
 */
void
configureEngine(core::EngineOptions &engine, const SolveJob &job,
                int default_iterations, WorkerContext &ctx,
                CancelToken *token, obs::Trace *trace,
                obs::KernelCounterSink *kernels)
{
    engine.kernelCounters = kernels;
    engine.seed = job.seed;
    if (job.maxIterations > 0)
        engine.opt.maxIterations = job.maxIterations;
    else if (default_iterations > 0)
        engine.opt.maxIterations = default_iterations;
    engine.shots = job.shots;
    if (!job.device.empty())
        engine.noise = device::noiseOf(device::deviceByName(job.device));
    engine.multiStartKeep = job.keepStarts;
    engine.fusion = job.fusion;
    engine.scratch = &ctx.scratch;
    engine.sampler = &ctx.sampler;
    // The engine records its own spans (optimize, transpile, sample)
    // on a traced job; recording only reads the clock, so outputs stay
    // bit-identical with trace on.
    engine.trace = trace;
    // The cooperative-cancellation hook: the engine polls it at
    // iteration boundaries (optimizer loops, every objective evaluation,
    // the final distribution). Calling it never perturbs results — a
    // job that is never cancelled is bit-identical with or without a
    // token.
    if (token)
        engine.checkpoint = [token] { token->throwIfCancelled(); };
}

/** Fill a cancelled/expired result from a fired token. */
void
finishCancelled(SolveResult &r, CancelReason reason, bool started)
{
    if (reason == CancelReason::Deadline) {
        r.status = "expired";
        r.error = started
                      ? std::string("deadline exceeded during execution")
                      : std::string(
                            "queueing deadline exceeded before execution");
    } else {
        r.status = "cancelled";
        r.error = std::string("cancelled ")
                  + (started ? "during execution" : "before execution")
                  + " (" + cancelReasonName(reason) + ")";
    }
}

/** FNV-1a over the exact bits of the output distribution. */
std::uint64_t
hashDistribution(const std::map<Basis, double> &dist)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (const auto &[x, prob] : dist) {
        std::uint64_t bits;
        std::memcpy(&bits, &prob, sizeof bits);
        mix(x);
        mix(bits);
    }
    return h;
}

} // namespace

SolveService::SolveService(ServiceOptions opts)
    : opts_(opts), jobsSubmitted_(metrics_.counter("jobs.submitted")),
      jobsStarted_(metrics_.counter("jobs.started")),
      jobsCompleted_(metrics_.counter("jobs.completed")),
      jobsOk_(metrics_.counter("jobs.ok")),
      jobsError_(metrics_.counter("jobs.error")),
      jobsCancelled_(metrics_.counter("jobs.cancelled")),
      jobsExpired_(metrics_.counter("jobs.expired")),
      jobsInflight_(metrics_.gauge("jobs.inflight")),
      stageQueueMs_(metrics_.histogram("stage.queue_ms")),
      stageCompileMs_(metrics_.histogram("stage.compile_ms")),
      stageSolveMs_(metrics_.histogram("stage.solve_ms")),
      stageTotalMs_(metrics_.histogram("stage.total_ms")),
      kernelBytes_(metrics_.counter("kernels.bytes")),
      kernelFlops_(metrics_.counter("kernels.flops")),
      stallsFlagged_(metrics_.counter("scheduler.stalls_flagged")),
      cache_(CompileCacheOptions{
          opts.cacheMaxBytes, &metrics_.histogram("cache.compile_ms")}),
      registry_(spec::ProblemRegistryOptions{
          opts.registryMaxBytes,
          &metrics_.histogram("registry.lower_ms")}),
      scheduler_(opts.workers)
{
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const std::string base =
            std::string("kernels.")
            + obs::kernelName(static_cast<obs::KernelId>(k));
        kernelCounters_[k].calls = &metrics_.counter(base + ".calls");
        kernelCounters_[k].amps = &metrics_.counter(base + ".amps");
    }
    // The front-ends' request books (server.cpp bumps them from both
    // the batch stream and the socket), registered with the service so
    // every snapshot of either front-end carries them from the start.
    for (const char *name : {"requests.line_errors", "requests.cancel",
                             "requests.health", "requests.stats"})
        metrics_.counter(name);
    // No job has been submitted yet, so no worker reads the memo.
    const auto workers = static_cast<std::size_t>(scheduler_.workers());
    stallMemo_ = std::make_unique<std::atomic<long long>[]>(workers);
    for (std::size_t i = 0; i < workers; ++i)
        stallMemo_[i].store(-1, std::memory_order_relaxed);
}

bool
SolveService::flagStall(const Scheduler::WorkerSnapshot &w) const
{
    if (opts_.stallThresholdMs <= 0 || !w.busy
        || w.busyMs < opts_.stallThresholdMs)
        return false;
    std::atomic<long long> &memo =
        stallMemo_[static_cast<std::size_t>(w.id)];
    long long seen = memo.load(std::memory_order_relaxed);
    while (seen < w.busySinceMs) {
        if (memo.compare_exchange_weak(seen, w.busySinceMs,
                                       std::memory_order_relaxed)) {
            stallsFlagged_.add();
            break;
        }
    }
    return true;
}

std::shared_ptr<const model::Problem>
SolveService::resolveProblem(const SolveJob &job, SolveResult &r)
{
    if (job.problem) {
        // First submission of this canonical hash registers the lowered
        // instance; every equivalent submission (row-permuted,
        // sign-flipped) resolves to that same instance, so the compile
        // cache sees literally one structure.
        bool reused = false;
        bool refreshed = false;
        auto p = registry_.put(job.problem->hashHex,
                               [&job] { return job.problem->lower(); },
                               &reused, &refreshed);
        r.refreshed = refreshed;
        // The 64-bit hash indexes the registry, it does not prove
        // identity: a colliding spec must fail loudly, never silently
        // solve whichever model registered first.
        if (reused && !spec::canonicallyEqual(*job.problem, *p))
            CHOCOQ_FATAL("canonical hash collision on '"
                         << job.problem->hashHex
                         << "': this problem differs from the one "
                            "registered under the same hash; change the "
                            "model (e.g. an unused variable) or restart "
                            "the registry");
        r.problemRef = job.problem->hashHex;
        return p;
    }
    if (!job.problemRef.empty()) {
        spec::ProblemRegistry::RefOutcome outcome =
            spec::ProblemRegistry::RefOutcome::Unknown;
        auto p = registry_.get(job.problemRef, &outcome);
        if (!p) {
            // The stable "ref_expired:" prefix is the wire contract
            // (docs/protocol.md): evicted refs are retriable by
            // resubmitting the inline problem, unknown refs are not.
            if (outcome == spec::ProblemRegistry::RefOutcome::Expired)
                throw FatalError(
                    "ref_expired: problem_ref '" + job.problemRef
                    + "' was evicted from the registry (generation "
                    + std::to_string(registry_.generation())
                    + "); resubmit the inline problem to re-register it");
            CHOCOQ_FATAL("unknown problem_ref '" << job.problemRef
                         << "' (never submitted on this server; check "
                            "the hash or resubmit the inline problem)");
        }
        r.problemRef = job.problemRef;
        return p;
    }
    const auto scale = problems::scaleByName(job.scale);
    if (!scale)
        CHOCOQ_FATAL("unknown scale '" << job.scale
                     << "' (expected F1..K4)");
    return std::make_shared<const model::Problem>(
        problems::makeCase(*scale, job.caseIndex));
}

SolveResult
SolveService::execute(const SolveJob &job, WorkerContext &ctx,
                      CancelToken *token, obs::Trace *trace)
{
    SolveResult r;
    r.id = job.id;
    r.solver = job.solver;
    jobsStarted_.add();
    Timer timer;
    // Per-job kernel-mix sink. One sink per job: workers execute one
    // job at a time and every kernel records on the calling thread
    // before its OpenMP region opens, so plain (non-atomic) tallies are
    // race-free.
    obs::KernelCounterSink sink;
    // Index of the currently open trace span, so the error paths can
    // close whatever stage the job died in (kNoSpan = none open).
    constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);
    std::size_t openSpan = kNoSpan;
    try {
        if (token)
            token->throwIfCancelled();

        if (trace)
            openSpan = trace->begin("resolve");
        const std::shared_ptr<const model::Problem> resolved =
            resolveProblem(job, r);
        if (trace) {
            trace->end(openSpan);
            openSpan = kNoSpan;
        }
        const model::Problem &p = *resolved;
        r.problem = p.name();

        core::SolverOutcome outcome;
        if (job.solver == "choco-q") {
            core::ChocoQOptions o;
            if (job.layers > 0)
                o.layers = job.layers;
            configureEngine(o.engine, job, opts_.defaultIterations, ctx,
                            token, trace, &sink);
            const core::ChocoQSolver solver(o);
            if (trace)
                openSpan = trace->begin("compile");
            Timer compileTimer;
            std::shared_ptr<const core::ChocoQArtifacts> artifacts =
                cache_.get(p, solver, &r.cacheHit);
            stageCompileMs_.record(compileTimer.seconds() * 1e3);
            if (trace) {
                trace->end(openSpan, r.cacheHit ? "cache_hit" : "cache_miss");
                openSpan = trace->begin("solve");
            }
            outcome = solver.solveCompiled(p, *artifacts);
        } else if (job.solver == "penalty") {
            solvers::PenaltyOptions o;
            if (job.layers > 0)
                o.layers = job.layers;
            configureEngine(o.engine, job, opts_.defaultIterations, ctx,
                            token, trace, &sink);
            if (trace)
                openSpan = trace->begin("solve");
            outcome = solvers::PenaltyQaoaSolver(o).solve(p);
            // No cacheable artifact stage: solve() compiles inline and
            // reports the split in compileSeconds.
            stageCompileMs_.record(outcome.compileSeconds * 1e3);
        } else if (job.solver == "cyclic") {
            solvers::CyclicOptions o;
            if (job.layers > 0)
                o.layers = job.layers;
            configureEngine(o.engine, job, opts_.defaultIterations, ctx,
                            token, trace, &sink);
            if (trace)
                openSpan = trace->begin("solve");
            outcome = solvers::CyclicQaoaSolver(o).solve(p);
            stageCompileMs_.record(outcome.compileSeconds * 1e3);
        } else if (job.solver == "hea") {
            solvers::HeaOptions o;
            if (job.layers > 0)
                o.layers = job.layers;
            o.seed = deriveSeed(job.seed, 2);
            configureEngine(o.engine, job, opts_.defaultIterations, ctx,
                            token, trace, &sink);
            if (trace)
                openSpan = trace->begin("solve");
            outcome = solvers::HeaSolver(o).solve(p);
            stageCompileMs_.record(outcome.compileSeconds * 1e3);
        } else {
            CHOCOQ_FATAL("unknown solver '" << job.solver << "'");
        }
        if (trace) {
            trace->end(openSpan);
            openSpan = kNoSpan;
        }

        r.bestCost = outcome.bestCost;
        r.iterations = outcome.iterations;
        r.evaluations = outcome.evaluations;
        r.compileSeconds = outcome.compileSeconds;
        r.simSeconds = outcome.simSeconds;
        r.classicalSeconds = outcome.classicalSeconds;
        for (const auto &[x, prob] : outcome.distribution) {
            if (prob > r.topProbability) {
                r.topProbability = prob;
                r.topState = x;
            }
            if (p.isFeasible(x))
                r.feasibleMass += prob;
        }
        r.topFeasible = p.isFeasible(r.topState);
        r.topObjective = p.objectiveOf(r.topState);
        r.distHash = hashDistribution(outcome.distribution);
    } catch (const Cancelled &c) {
        finishCancelled(r, c.reason(), /*started=*/true);
        if (trace) {
            trace->closeIterations();
            if (openSpan != kNoSpan)
                trace->end(openSpan, r.status);
        }
    } catch (const std::exception &e) {
        r.status = "error";
        r.error = e.what();
        if (trace) {
            trace->closeIterations();
            if (openSpan != kNoSpan)
                trace->end(openSpan, "error");
        }
    }
    if (!sink.empty()) {
        recordKernels(sink);
        // Echo the job's kernel mix into its timeline as a zero-width
        // annotation span, so chocoq_trace renders the per-job calls,
        // amplitudes and modeled bytes/flops next to the stage bars.
        if (trace)
            trace->add("kernels", trace->sinceOriginMs(), 0.0,
                       sink.summary());
    }
    r.solveMs = timer.seconds() * 1e3;
    stageSolveMs_.record(r.solveMs);
    r.worker = ctx.id;
    return r;
}

void
SolveService::recordKernels(const obs::KernelCounterSink &sink)
{
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const obs::KernelTally &t =
            sink.tally(static_cast<obs::KernelId>(k));
        if (t.calls == 0)
            continue;
        kernelCounters_[k].calls->add(t.calls);
        kernelCounters_[k].amps->add(t.amps);
    }
    kernelBytes_.add(sink.totalBytes());
    kernelFlops_.add(sink.totalFlops());
}

void
SolveService::registerToken(const std::string &id,
                            const std::shared_ptr<CancelToken> &token)
{
    std::lock_guard<std::mutex> lock(activeMu_);
    active_.emplace(id, token);
}

void
SolveService::unregisterToken(const std::string &id,
                              const CancelToken *token)
{
    std::lock_guard<std::mutex> lock(activeMu_);
    const auto range = active_.equal_range(id);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second.get() == token) {
            active_.erase(it);
            return;
        }
    }
}

int
SolveService::cancel(const std::string &id, CancelReason reason)
{
    std::lock_guard<std::mutex> lock(activeMu_);
    int n = 0;
    const auto range = active_.equal_range(id);
    for (auto it = range.first; it != range.second; ++it) {
        it->second->requestCancel(reason);
        ++n;
    }
    return n;
}

SolveService::Health
SolveService::health() const
{
    Health h;
    h.workers = scheduler_.workers();
    h.queued = scheduler_.queuedTasks();
    h.inflight = scheduler_.inflightTasks();
    for (const auto &w : scheduler_.workerSnapshots()) {
        h.running += w.busy ? 1 : 0;
        h.stalledNow += flagStall(w) ? 1 : 0;
    }
    h.stallsFlagged = stallsFlagged_.value();
    h.cancelledJobs = jobsCancelled_.value();
    h.expiredJobs = jobsExpired_.value();
    return h;
}

Json
SolveService::metricsToJson() const
{
    // Stalls are counted where they are read: flag the running ones
    // before the counters are copied out.
    const auto workers = scheduler_.workerSnapshots();
    for (const auto &w : workers)
        flagStall(w);
    Json out = metrics_.toJson();

    const CompileCache::Stats cs = cache_.stats();
    Json cache = Json::object();
    cache.set("hits", static_cast<double>(cs.hits));
    cache.set("misses", static_cast<double>(cs.misses));
    cache.set("evictions", static_cast<double>(cs.evictions));
    cache.set("entries", static_cast<double>(cs.entries));
    cache.set("bytes", static_cast<double>(cs.bytes));
    cache.set("max_bytes", static_cast<double>(cs.maxBytes));
    cache.set("hit_rate", cs.hitRate());
    out.set("cache", std::move(cache));

    const spec::ProblemRegistry::Stats rs = registry_.stats();
    Json reg = Json::object();
    reg.set("inserted", static_cast<double>(rs.inserted));
    reg.set("reused", static_cast<double>(rs.reused));
    reg.set("ref_hits", static_cast<double>(rs.refHits));
    reg.set("ref_misses", static_cast<double>(rs.refMisses));
    reg.set("ref_expired", static_cast<double>(rs.refExpired));
    reg.set("evictions", static_cast<double>(rs.evictions));
    reg.set("generation", static_cast<double>(rs.generation));
    reg.set("refreshes", static_cast<double>(rs.refreshes));
    reg.set("entries", static_cast<double>(rs.entries));
    reg.set("bytes", static_cast<double>(rs.bytes));
    reg.set("max_bytes", static_cast<double>(rs.maxBytes));
    out.set("registry", std::move(reg));

    Json sched = Json::object();
    sched.set("workers", scheduler_.workers());
    sched.set("queued", static_cast<double>(scheduler_.queuedTasks()));
    sched.set("inflight",
              static_cast<double>(scheduler_.inflightTasks()));
    sched.set("stalls_flagged",
              static_cast<double>(stallsFlagged_.value()));
    Json per_worker = Json::array();
    for (const auto &w : workers) {
        Json ws = Json::object();
        ws.set("id", w.id);
        ws.set("busy", w.busy);
        ws.set("tasks_done", static_cast<double>(w.tasksDone));
        per_worker.push(std::move(ws));
    }
    sched.set("per_worker", std::move(per_worker));
    out.set("scheduler", std::move(sched));
    return out;
}

void
SolveService::recordCompletion(const SolveResult &r)
{
    stageQueueMs_.record(r.queueMs);
    stageTotalMs_.record(r.queueMs + r.solveMs);
    if (r.status == "ok")
        jobsOk_.add();
    else if (r.status == "error")
        jobsError_.add();
    else if (r.status == "cancelled")
        jobsCancelled_.add();
    else if (r.status == "expired")
        jobsExpired_.add();
    jobsCompleted_.add();
    jobsInflight_.add(-1.0);
}

std::shared_ptr<CancelToken>
SolveService::submit(SolveJob job, Callback done,
                     std::shared_ptr<CancelToken> token)
{
    const auto submitted = Clock::now();
    if (!token)
        token = std::make_shared<CancelToken>();
    // The cap keeps the nanosecond conversion in range: an overflowing
    // one would arm a deadline in the past.
    if (job.deadlineMs > 0.0)
        token->armDeadline(submitted
                           + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   std::min(job.deadlineMs,
                                            kMaxDeadlineMs))));
    registerToken(job.id, token);
    jobsSubmitted_.add();
    jobsInflight_.add(1.0);
    // Traced jobs allocate their timeline here; untraced jobs carry a
    // null pointer and every recording site below no-ops (the zero-cost
    // contract). The origin sits at parse start when the front-end
    // measured one, so "parse" is span zero with no negative offsets.
    std::shared_ptr<obs::Trace> trace;
    double queue_start_ms = 0.0;
    if (job.trace) {
        auto origin = submitted;
        if (job.parseMs > 0.0)
            origin -= std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(job.parseMs));
        trace = std::make_shared<obs::Trace>(origin);
        if (job.parseMs > 0.0)
            trace->add("parse", 0.0, job.parseMs);
        queue_start_ms = trace->sinceOriginMs();
    }
    scheduler_.submit([this, job = std::move(job), done = std::move(done),
                       submitted, token, trace,
                       queue_start_ms](WorkerContext &ctx) {
        const double queue_ms = millisSince(submitted);
        if (trace)
            trace->add("queue", queue_start_ms, queue_ms);
        SolveResult result;
        if (token->cancelled()) {
            // Cancelled (or expired) while still queued: report without
            // running, freeing the worker for the next job immediately.
            result.id = job.id;
            result.solver = job.solver;
            result.worker = ctx.id;
            finishCancelled(result, token->reason(), /*started=*/false);
        } else {
            result = execute(job, ctx, token.get(), trace.get());
        }
        result.queueMs = queue_ms;
        result.trace = trace;
        unregisterToken(job.id, token.get());
        // A job that ran past the stall threshold counts even when no
        // probe saw it running; a job under it pays this comparison.
        if (opts_.stallThresholdMs > 0
            && result.solveMs >= opts_.stallThresholdMs)
            flagStall(scheduler_.workerSnapshot(ctx.id));
        // Metrics land before the callback: a client acting on its
        // final result (the stats probe right after a drained load)
        // reads counts that already include this job.
        recordCompletion(result);
        if (done)
            done(result);
    });
    return token;
}

void
SolveService::drain()
{
    scheduler_.wait();
}

std::vector<SolveResult>
SolveService::solveAll(const std::vector<SolveJob> &jobs)
{
    std::vector<SolveResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Each callback writes only its own pre-allocated slot: no lock.
        submit(jobs[i], [&results, i](const SolveResult &r) {
            results[i] = r;
        });
    }
    drain();
    return results;
}

} // namespace chocoq::service
