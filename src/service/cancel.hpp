/**
 * @file
 * Cooperative cancellation for the solve service.
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
 */

#ifndef CHOCOQ_SERVICE_CANCEL_HPP
#define CHOCOQ_SERVICE_CANCEL_HPP

#include <atomic>
#include <chrono>
#include <exception>

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

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_CANCEL_HPP
