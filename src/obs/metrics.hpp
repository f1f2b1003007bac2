/**
 * @file
 * Always-on service metrics: a registry of monotonic counters, gauges,
 * and fixed-bucket log-scale latency histograms.
 *
 * Design goals, in order:
 *
 * 1. Cheap enough to leave on in production (one job's writes cost
 *    under 2% of the job, gated by bench_micro's BM_ServiceJobBooks vs
 *    BM_ServiceJob). Counters are sharded across cache lines so
 *    concurrent workers never contend on one atomic; histogram
 *    recording is a handful of relaxed atomic RMWs against a
 *    precomputed boundary table.
 * 2. Exact reconciliation. Every metric is updated with plain
 *    monotonic increments — no sampling, no decay — so after a load
 *    completes, histogram counts equal the job counters bit-for-bit
 *    (a tested property and the {"type":"stats"} probe's contract).
 * 3. Zero influence on results. Metrics read clocks and bump atomics;
 *    they never touch seeds, scheduling decisions, or solver state.
 *
 * Registration (name -> metric) takes a mutex and happens once per
 * metric at service construction; the hot path works through stable
 * references and never locks.
 */

#ifndef CHOCOQ_OBS_METRICS_HPP
#define CHOCOQ_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace chocoq::obs
{

/**
 * Monotonic counter, sharded to keep concurrent increments off one
 * cache line. Each thread hashes to a fixed shard; value() sums the
 * shards (reads are stats-probe-rate, writes are job-rate, so the sum
 * cost sits on the cold side).
 */
class Counter
{
  public:
    static constexpr std::size_t kShards = 8;

    void add(std::uint64_t n = 1)
    {
        shards_[shardIndex()].value.fetch_add(n,
                                              std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        std::uint64_t total = 0;
        for (const auto &s : shards_)
            total += s.value.load(std::memory_order_relaxed);
        return total;
    }

  private:
    /** One shard per cache line: false sharing would put every worker's
     * increment on the same line and show up as probe overhead. */
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };

    static std::size_t shardIndex();

    std::array<Shard, kShards> shards_;
};

/** Last-write-wins instantaneous value (queue depth, bytes held). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed))
            ;
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket log-scale latency histogram over milliseconds.
 *
 * Buckets are geometric with kSubBucketsPerOctave sub-buckets per
 * doubling, spanning [kMinMs, kMaxMs): boundary(i) = kMinMs * 2^(i/4)
 * exactly (the boundary table is precomputed once; indexing is a
 * binary search over it, so a value equal to a boundary lands in the
 * bucket *above* it deterministically — no float-log rounding at the
 * edges, a tested property). One underflow bucket catches values below
 * kMinMs and one overflow bucket values at or above kMaxMs, so count()
 * always equals the number of record() calls.
 *
 * Quantiles read out of the recorded counts: quantile(q) returns the
 * upper boundary of the first bucket whose cumulative count reaches
 * ceil(q * count) — an upper bound on the true quantile that is exact
 * to bucket resolution (~19% worst-case width at 4 sub-buckets per
 * octave) and, unlike a sampled estimator, never drops an observation.
 */
class Histogram
{
  public:
    static constexpr double kMinMs = 1e-3; // 1 microsecond
    static constexpr int kSubBucketsPerOctave = 4;
    static constexpr int kOctaves = 26; // up to ~67 s
    /** underflow + log-scale range + overflow */
    static constexpr std::size_t kBuckets =
        std::size_t{2} + kSubBucketsPerOctave * kOctaves;

    /** Upper boundary of bucket @p i (inclusive-exclusive ranges; the
     * overflow bucket reports infinity). Exposed for the boundary
     * exactness tests and trace_view's bucket rendering. */
    static double bucketUpperBound(std::size_t i);

    /** Bucket index a value of @p ms lands in (total order, exact at
     * boundaries: ms == bucketUpperBound(i) lands in bucket i+1). */
    static std::size_t bucketIndex(double ms);

    void record(double ms);

    /** Point-in-time copy of the distribution. */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double sumMs = 0.0;
        double minMs = 0.0;
        double maxMs = 0.0;
        /** (upper bound, count) of every non-empty bucket, ascending. */
        std::vector<std::pair<double, std::uint64_t>> buckets;

        double avgMs() const
        {
            return count == 0 ? 0.0
                              : sumMs / static_cast<double>(count);
        }

        /** Upper bound of the bucket holding the q-quantile
         * observation (q in [0, 1]); 0 when empty. */
        double quantileMs(double q) const;
    };

    Snapshot snapshot() const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sumMs_{0.0};
    /** min/max as atomic doubles maintained by CAS loops; min starts
     * at +infinity (snapshot maps an empty histogram back to 0). */
    std::atomic<double> minMs_{std::numeric_limits<double>::infinity()};
    std::atomic<double> maxMs_{0.0};
};

/**
 * Named metrics, one instance per service. Metric objects are created
 * on first lookup and never move or disappear (deque storage), so the
 * references handed out stay valid for the registry's lifetime and the
 * hot path needs no further name lookups.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Cumulative snapshot as JSON: {"counters":{name:value},
     * "gauges":{name:value}, "histograms":{name:{count,sum_ms,avg_ms,
     * min_ms,max_ms,p50_ms,p99_ms,p999_ms,buckets:[[upper_ms,count]]}}}.
     * Names emit in lexicographic order so snapshots diff cleanly.
     */
    service::Json toJson() const;

  private:
    mutable std::mutex mu_; // registration + snapshot only
    std::map<std::string, Counter *> counters_;
    std::map<std::string, Gauge *> gauges_;
    std::map<std::string, Histogram *> histograms_;
    /** Stable storage behind the name maps. */
    std::deque<Counter> counterStore_;
    std::deque<Gauge> gaugeStore_;
    std::deque<Histogram> histogramStore_;
};

/** JSON shape of one histogram snapshot (shared by the registry dump
 * and any probe that emits a single histogram). */
service::Json histogramToJson(const Histogram::Snapshot &snap);

} // namespace chocoq::obs

#endif // CHOCOQ_OBS_METRICS_HPP
