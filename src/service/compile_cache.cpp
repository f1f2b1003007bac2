#include "service/compile_cache.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"

namespace chocoq::service
{

namespace
{

void
appendUint(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

void
appendInt(std::string &out, long long v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", v);
    out += buf;
}

/** Exact double identity: the raw bit pattern, so keys never collide
 * through decimal formatting. */
void
appendDoubleBits(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
    out += buf;
}

} // namespace

std::string
compileKey(const model::Problem &p, const core::ChocoQOptions &opts)
{
    std::string key;
    key.reserve(256);
    appendInt(key, p.numVars());
    key += p.sense() == model::Sense::Minimize ? "|min" : "|max";

    key += "|C:";
    for (const auto &row : p.constraints()) {
        for (const int c : row.coeffs) {
            appendInt(key, c);
            key.push_back(',');
        }
        key.push_back('=');
        appendInt(key, row.rhs);
        key.push_back(';');
    }

    key += "|f:";
    for (const auto &[vars, coeff] : p.objective().terms()) {
        for (const int v : vars) {
            appendInt(key, v);
            key.push_back('.');
        }
        key.push_back(':');
        appendDoubleBits(key, coeff);
        key.push_back(';');
    }

    // Compile-relevant options only: layers and the rest of the engine
    // options shape the run, not the artifacts.
    key += "|e:";
    appendInt(key, opts.eliminate);
    key += "|m:";
    appendUint(key, opts.moveSetFactor);
    key += opts.genericSynthesisPadding ? "|pad" : "|nopad";
    // Fusion is the engine option that shapes the artifacts (they
    // carry the FusedLayerPlan), so it is part of the key.
    key += opts.engine.fusion ? "|fz" : "|nofz";
    return key;
}

std::shared_ptr<const core::ChocoQArtifacts>
CompileCache::get(const model::Problem &p, const core::ChocoQSolver &solver,
                  bool *hit)
{
    const std::string key = compileKey(p, solver.options());

    std::promise<std::shared_ptr<const core::ChocoQArtifacts>> promise;
    Future future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (Entry *entry = map_.find(key)) {
            future = entry->future;
            ++hits_;
        } else {
            future = promise.get_future().share();
            map_.insert(key, Entry{future, /*ready=*/false});
            owner = true;
            ++misses_;
        }
    }
    if (hit)
        *hit = !owner;
    if (!owner)
        return future.get(); // rethrows the owner's compile error, if any

    try {
        const auto compileStart = std::chrono::steady_clock::now();
        auto artifacts = solver.compile(p);
        if (opts_.compileHistogram)
            opts_.compileHistogram->record(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - compileStart)
                    .count());
        promise.set_value(artifacts);
        {
            std::lock_guard<std::mutex> lock(mu_);
            // The in-flight entry under the key is ours: eviction skips
            // entries that are not ready, and only the owner erases one.
            map_.peek(key)->ready = true;
            map_.setBytes(key, artifacts->memoryBytes());
            // Walk the cold end, skipping in-flight entries: their
            // waiters hold the future, and eviction would re-run a
            // compilation already paid for.
            map_.evictOverBudget(
                [](const std::string &, const Entry &e) { return e.ready; },
                [](const std::string &, const Entry &) {});
        }
        return artifacts;
    } catch (...) {
        // Don't cache failures: drop the entry so a later (possibly
        // fixed) request recompiles, then propagate to every waiter.
        {
            std::lock_guard<std::mutex> lock(mu_);
            map_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = map_.evictions();
    s.entries = map_.size();
    s.bytes = map_.bytes();
    s.maxBytes = opts_.maxBytes;
    return s;
}

} // namespace chocoq::service
