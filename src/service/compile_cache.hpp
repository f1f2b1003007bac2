/**
 * @file
 * Compilation cache for the Choco-Q pipeline.
 *
 * Choco-Q's compilation (elimination plan, per-assignment feasibility
 * search, reduced move bases, commute terms, objective tables, layer
 * fusion plans) depends only on the problem's constraint matrix, its
 * objective polynomial, and the compile-relevant solver options — not
 * on seeds, shots, iteration budgets, or noise. Benchmark suites and
 * production traffic repeat the same structures with varied execution
 * knobs, so the cache keys artifacts by exactly those inputs and serves
 * the shared immutable ChocoQArtifacts to every matching job: compile
 * once, solve many.
 *
 * Concurrency: lookups are single-flight. The first requester of a key
 * inserts a future and compiles outside the lock; concurrent requesters
 * of the same key block on that future instead of compiling twice.
 *
 * Retention: completed entries are kept in LRU order under a byte
 * budget (CompileCacheOptions::maxBytes, measured with
 * ChocoQArtifacts::memoryBytes). When an insertion pushes the total
 * over budget, least-recently-used completed entries are dropped;
 * in-flight compilations are never evicted (waiters hold their future).
 * An evicted structure simply recompiles on its next request — results
 * are unaffected, only the hit rate is (tested property).
 */

#ifndef CHOCOQ_SERVICE_COMPILE_CACHE_HPP
#define CHOCOQ_SERVICE_COMPILE_CACHE_HPP

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "common/lru.hpp"
#include "core/chocoq_solver.hpp"

namespace chocoq::obs
{
class Histogram;
} // namespace chocoq::obs

namespace chocoq::service
{

/**
 * Structural cache key: constraint matrix, objective polynomial (exact
 * coefficient bits), and the compile-relevant ChocoQOptions (including
 * the fusion flag — fused artifacts carry their layer plans). Problem
 * *names* are deliberately excluded — two differently named but
 * structurally identical instances share one compilation.
 */
std::string compileKey(const model::Problem &p,
                       const core::ChocoQOptions &opts);

/** Cache retention configuration. */
struct CompileCacheOptions
{
    /**
     * Byte budget for retained artifacts (0 = unbounded). The default
     * comfortably holds thousands of benchmark-suite structures while
     * bounding a long-lived service against unbounded structure churn.
     */
    std::size_t maxBytes = std::size_t{256} << 20;

    /**
     * Optional latency histogram fed the wall time of every miss-path
     * compilation (the single-flight owner's compile, in milliseconds).
     * Hits record nothing — they cost a map lookup, not a compile. The
     * pointer must outlive the cache; the service wires in its
     * MetricsRegistry's "cache.compile_ms".
     */
    obs::Histogram *compileHistogram = nullptr;
};

/** Thread-safe, single-flight, LRU-bounded cache of compilation
 * artifacts. */
class CompileCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Completed entries dropped by the byte budget. */
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        /** Bytes held by completed entries (memoryBytes estimates). */
        std::size_t bytes = 0;
        /** Configured budget (0 = unbounded). */
        std::size_t maxBytes = 0;

        double
        hitRate() const
        {
            const std::uint64_t total = hits + misses;
            return total == 0
                       ? 0.0
                       : static_cast<double>(hits)
                             / static_cast<double>(total);
        }
    };

    explicit CompileCache(CompileCacheOptions opts = {})
        : opts_(opts), map_(common::LruMap<std::string, Entry>::Options{
                           opts.maxBytes, /*minEntries=*/0})
    {}

    /**
     * Artifacts for @p p compiled by @p solver, computing them on the
     * first request for this structure. @p hit (optional) reports
     * whether this call was served from the cache. Rethrows the
     * compiler's FatalError (e.g. infeasible problem) to every waiter;
     * a failed compilation is not cached.
     */
    std::shared_ptr<const core::ChocoQArtifacts>
    get(const model::Problem &p, const core::ChocoQSolver &solver,
        bool *hit = nullptr);

    Stats stats() const;

  private:
    using Future =
        std::shared_future<std::shared_ptr<const core::ChocoQArtifacts>>;

    struct Entry
    {
        Future future;
        /** Set when the owner's compilation completed successfully.
         * Only ready entries are evictable: in-flight waiters hold the
         * future and eviction would break single-flight. */
        bool ready = false;
    };

    CompileCacheOptions opts_;
    mutable std::mutex mu_;
    /** Recency + byte accounting live in the shared LRU core; this
     * class layers single-flight and the ready-only eviction guard. */
    common::LruMap<std::string, Entry> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_COMPILE_CACHE_HPP
