/**
 * @file
 * Registry of inline problem submissions, keyed by canonical content
 * hash.
 *
 * The first submission of a spec registers its lowered model::Problem
 * under the spec's canonical hash; every later submission with the same
 * hash — including row-permuted or sign-flipped re-encodings — resolves
 * to that first-registered instance. Resolving to one shared Problem is
 * what makes the compile cache collapse equivalent inline submissions:
 * the cache keys on the problem's structure, and equivalent submissions
 * now present literally the same structure. A follow-up job can also
 * skip resending the matrix entirely and name the prior submission with
 * "problem_ref": "<hash>".
 *
 * Retention mirrors the compile cache: completed entries are kept in
 * LRU order under a byte budget; an evicted hash simply re-registers on
 * its next full submission, while a problem_ref to an evicted hash is a
 * per-request error telling the client to resubmit the inline problem.
 *
 * Eviction is observable, not silent: every eviction bumps a registry
 * generation counter and leaves a bounded tombstone for the evicted
 * hash, so a later problem_ref lookup can distinguish "expired"
 * (registered here once, then evicted — resubmitting the inline
 * problem will revive it) from "unknown" (never seen; likely a client
 * bug or another server). Re-registering a tombstoned hash reports a
 * `refreshed` hint so clients know their old refs are valid again.
 */

#ifndef CHOCOQ_SPEC_REGISTRY_HPP
#define CHOCOQ_SPEC_REGISTRY_HPP

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/lru.hpp"
#include "model/problem.hpp"

namespace chocoq::obs
{
class Histogram;
} // namespace chocoq::obs

namespace chocoq::spec
{

/** Registry retention configuration. */
struct ProblemRegistryOptions
{
    /**
     * Byte budget for retained problems (0 = unbounded). Problems are
     * far smaller than compiled artifacts, so the default holds many
     * thousands of typical specs.
     */
    std::size_t maxBytes = std::size_t{64} << 20;

    /**
     * Optional latency histogram fed the wall time of every first-sight
     * lowering (put() calls that actually ran @p make, in milliseconds).
     * Reuse hits record nothing. The pointer must outlive the registry;
     * the service wires in its MetricsRegistry's "registry.lower_ms".
     */
    obs::Histogram *lowerHistogram = nullptr;
};

/** Approximate heap footprint of a problem (constraint matrix +
 * objective terms), for the registry's LRU byte budget. */
std::size_t problemMemoryBytes(const model::Problem &p);

/** Thread-safe LRU registry of canonical-hash -> lowered problem. */
class ProblemRegistry
{
  public:
    struct Stats
    {
        /** Full submissions that registered a new hash. */
        std::uint64_t inserted = 0;
        /** Full submissions that found their hash already registered
         * (row-permuted or repeated specs collapsing onto one entry). */
        std::uint64_t reused = 0;
        /** problem_ref lookups that resolved. */
        std::uint64_t refHits = 0;
        /** problem_ref lookups that missed (unknown or evicted). */
        std::uint64_t refMisses = 0;
        /** Subset of refMisses that named a known-but-evicted hash. */
        std::uint64_t refExpired = 0;
        std::uint64_t evictions = 0;
        /** Eviction generation: bumped once per evicted entry. */
        std::uint64_t generation = 0;
        /** Tombstoned re-registrations (previously evicted hashes). */
        std::uint64_t refreshes = 0;
        std::size_t entries = 0;
        std::size_t bytes = 0;
        std::size_t maxBytes = 0;
    };

    /** What a problem_ref lookup found (see get()). */
    enum class RefOutcome
    {
        /** Resolved to a live registration. */
        Hit,
        /** Hash never registered on this registry. */
        Unknown,
        /** Hash was registered but its entry has been evicted. */
        Expired,
    };

    explicit ProblemRegistry(ProblemRegistryOptions opts = {})
        : opts_(opts), map_(Lru::Options{opts.maxBytes, /*minEntries=*/1})
    {}

    /**
     * Resolve @p hashHex, lowering and registering via @p make on first
     * sight. Returns the registered problem — the caller must solve the
     * returned instance, not its own lowering, so equivalent
     * submissions share one structure. @p reused (optional) reports
     * whether an existing registration was returned; callers holding
     * the submitting spec should then verify it against the returned
     * problem (spec::canonicallyEqual) — the 64-bit hash indexes, it
     * does not prove identity. @p refreshed (optional) reports that
     * this registration revived a previously evicted hash, making old
     * problem_refs to it valid again.
     */
    std::shared_ptr<const model::Problem>
    put(const std::string &hashHex,
        const std::function<model::Problem()> &make,
        bool *reused = nullptr, bool *refreshed = nullptr);

    /**
     * Resolve a problem_ref; nullptr when unknown or evicted, with
     * @p outcome (optional) telling the two apart (RefOutcome::Expired
     * means the hash was registered here and later evicted — clients
     * should resubmit the inline problem, see docs/protocol.md
     * "ref_expired").
     */
    std::shared_ptr<const model::Problem>
    get(const std::string &hashHex, RefOutcome *outcome = nullptr);

    /** Current eviction generation (0 = nothing evicted yet). */
    std::uint64_t generation() const;

    Stats stats() const;

  private:
    using Lru =
        common::LruMap<std::string, std::shared_ptr<const model::Problem>>;

    /** Tombstone @p hashHex and bump the generation. Lock held; runs as
     * the eviction sweep's on-evict callback. */
    void noteEvictedLocked(const std::string &hashHex);

    /** Bound on remembered evicted hashes (16-byte keys; ~1 MiB). */
    static constexpr std::size_t kMaxTombstones = 65536;

    ProblemRegistryOptions opts_;
    mutable std::mutex mu_;
    /** Recency + byte accounting live in the shared LRU core
     * (minEntries=1: the entry being inserted always survives); this
     * class layers tombstones and the eviction generation on top. */
    Lru map_;
    /** Evicted hashes, FIFO-bounded: membership => ref is "expired". */
    std::unordered_set<std::string> tombstones_;
    std::list<std::string> tombstoneOrder_;
    std::uint64_t inserted_ = 0;
    std::uint64_t reused_ = 0;
    std::uint64_t refHits_ = 0;
    std::uint64_t refMisses_ = 0;
    std::uint64_t refExpired_ = 0;
    std::uint64_t generation_ = 0;
    std::uint64_t refreshes_ = 0;
};

} // namespace chocoq::spec

#endif // CHOCOQ_SPEC_REGISTRY_HPP
