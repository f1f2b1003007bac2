#include "spec/registry.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace chocoq::spec
{

std::size_t
problemMemoryBytes(const model::Problem &p)
{
    std::size_t bytes = sizeof(model::Problem) + p.name().size();
    for (const auto &row : p.constraints())
        bytes += sizeof(model::LinearConstraint)
                 + row.coeffs.capacity() * sizeof(int);
    for (const auto &[mono, coeff] : p.objective().terms()) {
        (void)coeff;
        // Node overhead of the term map plus the monomial's storage.
        bytes += 3 * sizeof(void *) + sizeof(double)
                 + sizeof(model::Polynomial::Monomial)
                 + mono.capacity() * sizeof(int);
    }
    return bytes;
}

void
ProblemRegistry::noteEvictedLocked(const std::string &hashHex)
{
    // Every eviction invalidates outstanding problem_refs to this
    // hash; bump the generation and leave a bounded tombstone so
    // those refs fail as "expired", not as never-seen.
    ++generation_;
    if (tombstones_.insert(hashHex).second) {
        tombstoneOrder_.push_back(hashHex);
        if (tombstoneOrder_.size() > kMaxTombstones) {
            tombstones_.erase(tombstoneOrder_.front());
            tombstoneOrder_.pop_front();
        }
    }
}

std::shared_ptr<const model::Problem>
ProblemRegistry::put(const std::string &hashHex,
                     const std::function<model::Problem()> &make,
                     bool *reused, bool *refreshed)
{
    if (reused)
        *reused = false;
    if (refreshed)
        *refreshed = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (const auto *existing = map_.find(hashHex)) {
            ++reused_;
            if (reused)
                *reused = true;
            return *existing;
        }
    }
    // Lower outside the lock (a big spec costs real work); losing the
    // insertion race below just means adopting the winner's instance.
    const auto lowerStart = std::chrono::steady_clock::now();
    auto problem = std::make_shared<const model::Problem>(make());
    if (opts_.lowerHistogram)
        opts_.lowerHistogram->record(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - lowerStart)
                .count());
    const std::size_t bytes = problemMemoryBytes(*problem);

    std::lock_guard<std::mutex> lock(mu_);
    if (const auto *existing = map_.find(hashHex)) {
        ++reused_;
        if (reused)
            *reused = true;
        return *existing;
    }
    // A tombstoned hash coming back means previously issued
    // problem_refs to it are valid again: surface the revival.
    if (tombstones_.erase(hashHex)) {
        tombstoneOrder_.remove(hashHex);
        ++refreshes_;
        if (refreshed)
            *refreshed = true;
    }
    auto stored = problem;
    map_.insert(hashHex, std::move(problem), bytes);
    ++inserted_;
    map_.evictOverBudget(
        [](const std::string &, const std::shared_ptr<const model::Problem> &) {
            return true;
        },
        [this](const std::string &key,
               const std::shared_ptr<const model::Problem> &) {
            noteEvictedLocked(key);
        });
    return stored;
}

std::shared_ptr<const model::Problem>
ProblemRegistry::get(const std::string &hashHex, RefOutcome *outcome)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto *entry = map_.find(hashHex);
    if (!entry) {
        ++refMisses_;
        const bool expired = tombstones_.count(hashHex) != 0;
        if (expired)
            ++refExpired_;
        if (outcome)
            *outcome = expired ? RefOutcome::Expired : RefOutcome::Unknown;
        return nullptr;
    }
    ++refHits_;
    if (outcome)
        *outcome = RefOutcome::Hit;
    return *entry;
}

std::uint64_t
ProblemRegistry::generation() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
}

ProblemRegistry::Stats
ProblemRegistry::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.inserted = inserted_;
    s.reused = reused_;
    s.refHits = refHits_;
    s.refMisses = refMisses_;
    s.refExpired = refExpired_;
    s.evictions = map_.evictions();
    s.generation = generation_;
    s.refreshes = refreshes_;
    s.entries = map_.size();
    s.bytes = map_.bytes();
    s.maxBytes = opts_.maxBytes;
    return s;
}

} // namespace chocoq::spec
