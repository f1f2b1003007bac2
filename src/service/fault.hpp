/**
 * @file
 * Cooperative cancellation and deterministic fault injection for the
 * solve service.
 *
 * A CancelToken is the one channel through which the outside world can
 * stop a running job: the wire front-end (cancel request, client
 * disconnect), the deadline clock, and shutdown paths all set the same
 * atomic flag, and the engine polls it at iteration boundaries through
 * the checkpoint hooks (optimize::OptOptions::checkpoint /
 * core::EngineOptions::checkpoint). Polling is cooperative by design —
 * no thread is ever killed, so worker scratch states and cache state
 * stay valid and the worker is immediately reusable after a
 * cancellation.
 *
 * The FaultInjector makes failure paths testable the way HPC AI500
 * argues systems claims must be: under *controlled* adversarial load.
 * Every injection decision is a pure function of (spec seed, site,
 * per-site check counter), so a given --fault-spec replays the exact
 * same fault sequence on every run regardless of thread timing. With no
 * spec configured the injector is absent (null pointer) and every hot
 * path is untouched — fault injection disabled is a bitwise no-op.
 */

#ifndef CHOCOQ_SERVICE_FAULT_HPP
#define CHOCOQ_SERVICE_FAULT_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>

namespace chocoq::service
{

/** Why a job stopped early (CancelToken state). */
enum class CancelReason
{
    /** Not cancelled. */
    None = 0,
    /** Explicit {"type":"cancel"} request or SolveService::cancel(). */
    Requested,
    /** deadline_ms elapsed (queued or executing). */
    Deadline,
    /** The submitting client's connection dropped mid-job. */
    Disconnected,
};

/** Stable lowercase name for a cancel reason (wire/messages). */
const char *cancelReasonName(CancelReason reason);

/** Thrown by CancelToken::throwIfCancelled() to unwind a solve. */
class Cancelled : public std::exception
{
  public:
    explicit Cancelled(CancelReason reason) : reason_(reason) {}

    CancelReason reason() const { return reason_; }

    const char *what() const noexcept override;

  private:
    CancelReason reason_;
};

/**
 * One job's cancellation state, shared (shared_ptr) between the
 * submitter, the wire front-end, and the worker executing the job.
 *
 * Thread contract: armDeadline() must happen before the token is shared
 * with other threads (SolveService arms it before enqueueing the job);
 * requestCancel() and the polling methods are safe from any thread.
 */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Request cooperative cancellation; first reason wins. */
    void requestCancel(CancelReason reason = CancelReason::Requested);

    /**
     * Arm the absolute execution deadline. The clock keeps counting
     * while the job executes: polls past this instant flip the token
     * to CancelReason::Deadline.
     */
    void armDeadline(Clock::time_point deadline);

    /** True when cancelled (also latches an elapsed deadline). */
    bool cancelled();

    /** Reason observed so far (None while still running). */
    CancelReason reason() const
    {
        return static_cast<CancelReason>(
            reason_.load(std::memory_order_acquire));
    }

    /** Poll: throws Cancelled when the token has fired. */
    void throwIfCancelled()
    {
        if (cancelled())
            throw Cancelled(reason());
    }

  private:
    std::atomic<int> reason_{static_cast<int>(CancelReason::None)};
    std::atomic<bool> hasDeadline_{false};
    Clock::time_point deadline_{};
};

/**
 * Sleep for @p ms while staying cancellable: the sleep is chunked and
 * @p token (optional) is polled between chunks, so an injected stall
 * still honors cancel requests and deadlines. Throws Cancelled.
 */
void sleepCancellably(int ms, CancelToken *token);

/** Parsed --fault-spec configuration. All probabilities in [0, 1]. */
struct FaultSpec
{
    /** Seed of the injection decision stream (spec key "seed"). */
    std::uint64_t seed = 1;
    /** Worker stall before executing a job: probability + duration. */
    double stallProbability = 0.0;
    int stallMs = 100;
    /** Simulated allocation failure while preparing a job. */
    double allocFailProbability = 0.0;

    bool enabled() const
    {
        return stallProbability > 0.0 || allocFailProbability > 0.0;
    }
};

/**
 * Parse the --fault-spec grammar: comma-separated `site=prob[:ms]`
 * clauses plus an optional `seed=N`. Sites: stall, alloc_fail; the
 * `:ms` duration applies to stall. Example: "stall=0.5:400,seed=9".
 * Throws FatalError on malformed input.
 */
FaultSpec parseFaultSpec(const std::string &text);

/**
 * Deterministic fault-decision engine. fire(site) consults the spec
 * probability against a hash of (seed, site, k) where k is the site's
 * check counter — the k-th check at a site answers identically on
 * every run with the same spec.
 */
class FaultInjector
{
  public:
    enum class Site
    {
        WorkerStall = 0,
        AllocFail,
    };
    static constexpr int kNumSites = 2;

    explicit FaultInjector(FaultSpec spec) : spec_(spec) {}

    /** Decide (deterministically) whether this check injects a fault.
     * The caller counts what fired (the service's faults.* counters). */
    bool fire(Site site);

    const FaultSpec &spec() const { return spec_; }

  private:
    FaultSpec spec_;
    std::atomic<std::uint64_t> checks_[kNumSites] = {};
};

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_FAULT_HPP
