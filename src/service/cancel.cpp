#include "service/cancel.hpp"

namespace chocoq::service
{

const char *
cancelReasonName(CancelReason reason)
{
    switch (reason) {
      case CancelReason::None:
        return "none";
      case CancelReason::Requested:
        return "requested";
      case CancelReason::Deadline:
        return "deadline";
      case CancelReason::Disconnected:
        return "disconnected";
    }
    return "unknown";
}

const char *
Cancelled::what() const noexcept
{
    switch (reason_) {
      case CancelReason::Deadline:
        return "cancelled: deadline exceeded";
      case CancelReason::Disconnected:
        return "cancelled: client disconnected";
      default:
        return "cancelled: requested";
    }
}

void
CancelToken::requestCancel(CancelReason reason)
{
    int expected = static_cast<int>(CancelReason::None);
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_acq_rel);
}

void
CancelToken::armDeadline(Clock::time_point deadline)
{
    deadline_ = deadline;
    hasDeadline_.store(true, std::memory_order_release);
}

bool
CancelToken::cancelled()
{
    if (reason_.load(std::memory_order_acquire)
        != static_cast<int>(CancelReason::None))
        return true;
    if (hasDeadline_.load(std::memory_order_acquire)
        && Clock::now() >= deadline_) {
        // First observer latches the reason; a concurrent explicit
        // cancel losing the race is fine — either reason is truthful.
        requestCancel(CancelReason::Deadline);
        return true;
    }
    return false;
}

} // namespace chocoq::service
