/**
 * @file
 * The concurrent solve service: the orchestration layer between job
 * streams (JSONL requests, benchmark suites, library callers) and the
 * solver/engine stack.
 *
 * Composition per job: the scheduler parks the job on a worker; the
 * worker resolves the problem instance — regenerated from the benchmark
 * registry, or, for inline specs and problem_refs, the canonical
 * instance shared through the ProblemRegistry — then pulls compilation
 * artifacts from the shared CompileCache (compile once, solve many),
 * and runs the variational loop on its private scratch state with every
 * stochastic stream derived from the job seed — so a (job, seed) pair
 * is bit-identical at any worker count and any submission order, while
 * throughput scales with workers.
 */

#ifndef CHOCOQ_SERVICE_SERVICE_HPP
#define CHOCOQ_SERVICE_SERVICE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "service/compile_cache.hpp"
#include "service/cancel.hpp"
#include "service/job.hpp"
#include "service/scheduler.hpp"
#include "spec/registry.hpp"

namespace chocoq::service
{

/** Service configuration. */
struct ServiceOptions
{
    /** Concurrent solve workers. Composes with CHOCOQ_THREADS: total
     * CPU demand is roughly workers x CHOCOQ_THREADS (see README). */
    int workers = 1;
    /** Artifact-retention byte budget for the compilation cache
     * (CompileCacheOptions::maxBytes; 0 = unbounded). */
    std::size_t cacheMaxBytes = CompileCacheOptions{}.maxBytes;
    /** Retention byte budget for inline-problem registrations
     * (spec::ProblemRegistryOptions::maxBytes; 0 = unbounded). */
    std::size_t registryMaxBytes = spec::ProblemRegistryOptions{}.maxBytes;
    /** Optimizer iteration budget for jobs that don't set their own;
     * 0 keeps each solver's default. */
    int defaultIterations = 0;
    /**
     * Stall threshold: a job that keeps its worker busy for at least
     * this long is a stall, counted once per job into
     * scheduler.stalls_flagged — when a health or stats read sees it
     * running past the threshold, or when it finishes past it,
     * whichever comes first. No thread samples the pool. 0 counts
     * nothing.
     */
    int stallThresholdMs = 30000;
};

/** Concurrent solve service over the registry problems. */
class SolveService
{
  public:
    /** Result sink; invoked on a worker thread as each job finishes. */
    using Callback = std::function<void(const SolveResult &)>;

    /** Point-in-time service health, for the {"type":"health"} probe
     * and the serve summaries. */
    struct Health
    {
        int workers = 0;
        /** Jobs waiting in the queue (not started). */
        std::size_t queued = 0;
        /** Jobs currently executing on a worker. */
        std::size_t running = 0;
        /** Jobs submitted and not finished (queued + running). */
        std::size_t inflight = 0;
        /** Workers busy past the stall threshold right now. */
        int stalledNow = 0;
        /** Stalled jobs so far: the scheduler.stalls_flagged counter. */
        std::uint64_t stallsFlagged = 0;
        /** Jobs that finished as "cancelled" / "expired": the
         * jobs.cancelled / jobs.expired counters. */
        std::uint64_t cancelledJobs = 0;
        std::uint64_t expiredJobs = 0;
    };

    explicit SolveService(ServiceOptions opts = {});

    int workers() const { return scheduler_.workers(); }

    /**
     * Enqueue one job. @p done (optional) fires on the worker thread
     * that ran the job; it must be thread-safe against other callbacks.
     * Returns the job's cancellation token: any holder may
     * requestCancel() it, and a job.deadlineMs > 0 arms its deadline
     * clock (counting from now, through queueing and execution; capped
     * at kMaxDeadlineMs).
     * @p token (optional) supplies the token instead — callers that
     * track tokens externally (the TCP front-end, per connection) pass
     * one they already hold, avoiding any window where a job runs
     * untracked.
     */
    std::shared_ptr<CancelToken>
    submit(SolveJob job, Callback done = nullptr,
           std::shared_ptr<CancelToken> token = nullptr);

    /**
     * Cooperatively cancel every active (queued or executing) job with
     * this id; returns how many matched. Already-finished jobs don't
     * match — cancelling them is a harmless no-op.
     */
    int cancel(const std::string &id,
               CancelReason reason = CancelReason::Requested);

    /** Queue depth, in-flight counts, worker liveness, stall counters. */
    Health health() const;

    /** Block until every submitted job has completed. */
    void drain();

    /** Submit all jobs and return results in submission order. */
    std::vector<SolveResult> solveAll(const std::vector<SolveJob> &jobs);

    CompileCache::Stats cacheStats() const { return cache_.stats(); }

    /** The service's metric registry (counters, gauges, histograms).
     * Front-ends register their own metrics here — one registry per
     * service, one stats probe reading it. */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Cumulative observability snapshot: the metric registry's
     * counters/gauges/histograms plus "cache", "registry" and
     * "scheduler" sections. The body of the {"type":"stats"} probe
     * (docs/protocol.md) and of --metrics-file snapshot lines.
     */
    Json metricsToJson() const;

    /** Inline-problem registry counters (submissions, ref reuse, LRU). */
    spec::ProblemRegistry::Stats registryStats() const
    {
        return registry_.stats();
    }

    /**
     * Execute one job synchronously in @p ctx, bypassing the queue.
     * Public for tests and single-shot tooling; submit() is the normal
     * entry point. @p token (optional) is polled at engine iteration
     * boundaries; a fired token stops the solve cooperatively and the
     * result reports "cancelled" (or "expired" for a deadline).
     * @p trace (optional) collects the job's span timeline; submit()
     * passes one for jobs with trace=true. Tracing never changes the
     * answer (bit-identical outputs, tested property).
     */
    SolveResult execute(const SolveJob &job, WorkerContext &ctx,
                        CancelToken *token = nullptr,
                        obs::Trace *trace = nullptr);

  private:
    void registerToken(const std::string &id,
                       const std::shared_ptr<CancelToken> &token);
    void unregisterToken(const std::string &id, const CancelToken *token);
    /**
     * Stall accounting for one worker: true when its current job has
     * run past the stall threshold, and the first call to see that job
     * so counts it into scheduler.stalls_flagged. Lock- and
     * allocation-free; safe from probes and workers at once.
     */
    bool flagStall(const Scheduler::WorkerSnapshot &w) const;
    /**
     * Resolve the problem a job names: the registered instance for
     * inline specs (registering on first sight) and problem_refs, a
     * freshly generated registry case otherwise. Throws FatalError on
     * an unknown scale or an unknown/evicted problem_ref.
     */
    std::shared_ptr<const model::Problem> resolveProblem(const SolveJob &job,
                                                         SolveResult &r);
    /** Count one finished job into the registry (status counter +
     * queue/total stage histograms), before the done callback fires so
     * a client acting on its last result reads final counts. */
    void recordCompletion(const SolveResult &r);
    /** Fold one job's kernel mix into the kernels.* counters. */
    void recordKernels(const obs::KernelCounterSink &sink);

    ServiceOptions opts_;
    /** Declared before cache_/registry_: their options carry pointers
     * into this registry's histograms. */
    obs::MetricsRegistry metrics_;
    /** Hot-path metric handles, bound once at construction so job-rate
     * recording never does a name lookup. */
    obs::Counter &jobsSubmitted_;
    obs::Counter &jobsStarted_;
    obs::Counter &jobsCompleted_;
    obs::Counter &jobsOk_;
    obs::Counter &jobsError_;
    obs::Counter &jobsCancelled_;
    obs::Counter &jobsExpired_;
    obs::Gauge &jobsInflight_;
    obs::Histogram &stageQueueMs_;
    obs::Histogram &stageCompileMs_;
    obs::Histogram &stageSolveMs_;
    obs::Histogram &stageTotalMs_;
    /** Per-kernel mix counters (kernels.<name>.calls / .amps) plus the
     * derived traffic totals (kernels.bytes / kernels.flops), bound at
     * construction like the stage metrics above: per-job aggregation
     * never does a name lookup. */
    struct KernelCounterPair
    {
        obs::Counter *calls = nullptr;
        obs::Counter *amps = nullptr;
    };
    std::array<KernelCounterPair, obs::kKernelCount> kernelCounters_;
    obs::Counter &kernelBytes_;
    obs::Counter &kernelFlops_;
    obs::Counter &stallsFlagged_;
    CompileCache cache_;
    spec::ProblemRegistry registry_;

    /** Tokens of active (queued or executing) jobs, keyed by job id. */
    mutable std::mutex activeMu_;
    std::unordered_multimap<std::string, std::shared_ptr<CancelToken>>
        active_;

    /** Per worker, the busy-start stamp (Scheduler::WorkerSnapshot::
     * busySinceMs) of the last job counted as a stall, -1 before any.
     * Start stamps rise per worker, so a job counts only while its
     * stamp is above the memo: once per job, whoever sees it first. */
    std::unique_ptr<std::atomic<long long>[]> stallMemo_;

    /** Declared last, so destroyed first: ~Scheduler runs every job
     * still queued, and those jobs use every member above. */
    Scheduler scheduler_;
};

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_SERVICE_HPP
