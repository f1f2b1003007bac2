#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

namespace chocoq::obs
{

namespace
{

/**
 * The boundary table: boundaries[i] is the upper bound of bucket i
 * (bucket 0 is the underflow bucket with upper bound kMinMs). Built
 * once with exp2 so every boundary is exactly kMinMs * 2^(i/4) — the
 * same expression the tests check against — and indexing is a binary
 * search over the table rather than a float log2 whose rounding could
 * flip values sitting exactly on a boundary.
 */
const std::array<double, Histogram::kBuckets - 1> &
boundaries()
{
    static const auto table = [] {
        std::array<double, Histogram::kBuckets - 1> t{};
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = Histogram::kMinMs
                   * std::exp2(static_cast<double>(i)
                               / Histogram::kSubBucketsPerOctave);
        return t;
    }();
    return table;
}

void
atomicAddDouble(std::atomic<double> &target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed))
        ;
}

void
atomicMinDouble(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (v < cur
           && !target.compare_exchange_weak(cur, v,
                                            std::memory_order_relaxed))
        ;
}

void
atomicMaxDouble(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (v > cur
           && !target.compare_exchange_weak(cur, v,
                                            std::memory_order_relaxed))
        ;
}

} // namespace

std::size_t
Counter::shardIndex()
{
    // One shard per thread for up to kShards threads, assigned
    // round-robin on first use; beyond that threads share shards, which
    // costs contention, never correctness.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
}

double
Histogram::bucketUpperBound(std::size_t i)
{
    const auto &b = boundaries();
    if (i >= b.size()) // overflow bucket
        return std::numeric_limits<double>::infinity();
    return b[i];
}

std::size_t
Histogram::bucketIndex(double ms)
{
    const auto &b = boundaries();
    // Bucket i covers [lower, upper): a value exactly on a boundary
    // belongs to the bucket above it. NaN (never produced by the
    // timers) would land in the underflow bucket.
    const auto it = std::upper_bound(b.begin(), b.end(), ms);
    return static_cast<std::size_t>(it - b.begin());
}

void
Histogram::record(double ms)
{
    counts_[bucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(sumMs_, ms);
    atomicMinDouble(minMs_, ms);
    atomicMaxDouble(maxMs_, ms);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot snap;
    // Bucket counts are the ground truth for reconciliation: sum them
    // rather than trusting count_ to be in sync mid-record (each
    // record() bumps the bucket first, so a concurrent snapshot can see
    // the bucket without the count, never the reverse summing this way).
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
        if (c == 0)
            continue;
        snap.count += c;
        snap.buckets.emplace_back(bucketUpperBound(i), c);
    }
    snap.sumMs = sumMs_.load(std::memory_order_relaxed);
    // min_ starts at +infinity so the CAS floor needs no first-write
    // special case; an empty histogram reports 0, not infinity.
    const double min = minMs_.load(std::memory_order_relaxed);
    snap.minMs = std::isfinite(min) ? min : 0.0;
    snap.maxMs = maxMs_.load(std::memory_order_relaxed);
    return snap;
}

double
Histogram::Snapshot::quantileMs(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the q-quantile observation, 1-based: ceil(q * count),
    // clamped to [1, count] so q=0 reads the first observation's bucket
    // and q=1 the last's.
    const auto rank = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(count))));
    std::uint64_t cumulative = 0;
    for (const auto &[upper, c] : buckets) {
        cumulative += c;
        if (cumulative >= rank)
            return upper;
    }
    return buckets.back().first;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    if (it != counters_.end())
        return *it->second;
    counterStore_.emplace_back();
    counters_.emplace(name, &counterStore_.back());
    return counterStore_.back();
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end())
        return *it->second;
    gaugeStore_.emplace_back();
    gauges_.emplace(name, &gaugeStore_.back());
    return gaugeStore_.back();
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end())
        return *it->second;
    histogramStore_.emplace_back();
    histograms_.emplace(name, &histogramStore_.back());
    return histogramStore_.back();
}

service::Json
histogramToJson(const Histogram::Snapshot &snap)
{
    service::Json h = service::Json::object();
    h.set("count", static_cast<double>(snap.count));
    h.set("sum_ms", snap.sumMs);
    h.set("avg_ms", snap.avgMs());
    h.set("min_ms", snap.minMs);
    h.set("max_ms", snap.maxMs);
    h.set("p50_ms", snap.quantileMs(0.50));
    h.set("p99_ms", snap.quantileMs(0.99));
    h.set("p999_ms", snap.quantileMs(0.999));
    service::Json buckets = service::Json::array();
    for (const auto &[upper, c] : snap.buckets) {
        service::Json pair = service::Json::array();
        // The overflow bucket's bound is infinity, which JSON cannot
        // carry as a number; emit -1 as the documented sentinel.
        pair.push(std::isfinite(upper) ? upper : -1.0);
        pair.push(static_cast<double>(c));
        buckets.push(std::move(pair));
    }
    h.set("buckets", std::move(buckets));
    return h;
}

service::Json
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    service::Json out = service::Json::object();
    service::Json counters = service::Json::object();
    for (const auto &[name, c] : counters_)
        counters.set(name, static_cast<double>(c->value()));
    out.set("counters", std::move(counters));
    service::Json gauges = service::Json::object();
    for (const auto &[name, g] : gauges_)
        gauges.set(name, g->value());
    out.set("gauges", std::move(gauges));
    service::Json histograms = service::Json::object();
    for (const auto &[name, h] : histograms_)
        histograms.set(name, histogramToJson(h->snapshot()));
    out.set("histograms", std::move(histograms));
    return out;
}

} // namespace chocoq::obs
