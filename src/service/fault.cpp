#include "service/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/error.hpp"

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

void
sleepCancellably(int ms, CancelToken *token)
{
    constexpr int kChunkMs = 5;
    int remaining = std::max(ms, 0);
    while (remaining > 0) {
        if (token)
            token->throwIfCancelled();
        const int step = std::min(remaining, kChunkMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(step));
        remaining -= step;
    }
    if (token)
        token->throwIfCancelled();
}

namespace
{

/** splitmix64 finalizer: the per-check decision hash. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Parse one clause value "P" or "P:MS"; both pieces range-checked. */
void
parseClauseValue(const std::string &site, const std::string &value,
                 double &probability, int *duration_ms)
{
    std::string prob_text = value;
    const std::size_t colon = value.find(':');
    if (colon != std::string::npos) {
        if (!duration_ms)
            CHOCOQ_FATAL("fault-spec site '" << site
                         << "' takes no ':ms' duration");
        prob_text = value.substr(0, colon);
        const std::string ms_text = value.substr(colon + 1);
        char *end = nullptr;
        const long ms = std::strtol(ms_text.c_str(), &end, 10);
        if (ms_text.empty() || *end != '\0' || ms < 0 || ms > 3600000)
            CHOCOQ_FATAL("fault-spec duration for '" << site
                         << "' must be an integer in [0, 3600000] ms, got '"
                         << ms_text << "'");
        *duration_ms = static_cast<int>(ms);
    }
    char *end = nullptr;
    const double p = std::strtod(prob_text.c_str(), &end);
    if (prob_text.empty() || *end != '\0' || !(p >= 0.0 && p <= 1.0))
        CHOCOQ_FATAL("fault-spec probability for '" << site
                     << "' must be in [0, 1], got '" << prob_text << "'");
    probability = p;
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string clause = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            CHOCOQ_FATAL("fault-spec clause '" << clause
                         << "' must be site=prob[:ms] or seed=N");
        const std::string key = clause.substr(0, eq);
        const std::string value = clause.substr(eq + 1);
        if (key == "seed") {
            char *end = nullptr;
            spec.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                CHOCOQ_FATAL("fault-spec seed must be an unsigned integer, "
                             "got '" << value << "'");
        } else if (key == "stall") {
            parseClauseValue(key, value, spec.stallProbability,
                             &spec.stallMs);
        } else if (key == "alloc_fail") {
            parseClauseValue(key, value, spec.allocFailProbability, nullptr);
        } else {
            CHOCOQ_FATAL("unknown fault-spec site '"
                         << key << "' (expected stall, alloc_fail, or seed)");
        }
    }
    return spec;
}

bool
FaultInjector::fire(Site site)
{
    const double p = site == Site::WorkerStall ? spec_.stallProbability
                                               : spec_.allocFailProbability;
    const auto idx = static_cast<std::size_t>(site);
    // Count the check even when p == 0 so enabling a site mid-analysis
    // (same seed, higher probability) keeps decision indices aligned.
    const std::uint64_t k =
        checks_[idx].fetch_add(1, std::memory_order_relaxed);
    if (p <= 0.0)
        return false;
    const std::uint64_t h =
        mix64(spec_.seed ^ mix64((static_cast<std::uint64_t>(site) << 32)
                                 ^ k));
    // Top 53 bits -> uniform double in [0, 1).
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < p;
}

} // namespace chocoq::service
