/**
 * @file
 * Observability-subsystem tests: histogram bucket-boundary exactness
 * and quantile readout, counter/histogram correctness under concurrent
 * writers (exercised by the TSan CI job), the registry's JSON shape,
 * and the per-job Trace's ordering, iteration folding, and idempotent
 * serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace chocoq;

// ----------------------------------------------------------- Histogram

TEST(ObsHistogram, BucketBoundariesAreExactPowers)
{
    // boundary(i) = kMinMs * 2^(i/4), bit-for-bit: the table is built
    // from the same expression, so no float-log rounding at the edges.
    for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
        const double expected =
            obs::Histogram::kMinMs
            * std::exp2(static_cast<double>(i)
                        / obs::Histogram::kSubBucketsPerOctave);
        EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(i), expected);
    }
    EXPECT_TRUE(std::isinf(
        obs::Histogram::bucketUpperBound(obs::Histogram::kBuckets - 1)));
}

TEST(ObsHistogram, BoundaryValuesLandDeterministically)
{
    // A value exactly on a boundary belongs to the bucket above it
    // (buckets are [lower, upper)); a value just below stays put.
    for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
        const double upper = obs::Histogram::bucketUpperBound(i);
        EXPECT_EQ(obs::Histogram::bucketIndex(upper), i + 1)
            << "boundary " << upper << " must land above bucket " << i;
        const double below =
            std::nextafter(upper, -std::numeric_limits<double>::infinity());
        EXPECT_EQ(obs::Histogram::bucketIndex(below), i)
            << "just below " << upper << " must stay in bucket " << i;
    }
    // Underflow and overflow catch everything outside the range.
    EXPECT_EQ(obs::Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(1e308),
              obs::Histogram::kBuckets - 1);
}

TEST(ObsHistogram, QuantilesReadFromBucketCounts)
{
    obs::Histogram h;
    // 98 fast observations, 2 slow: p50 reads the fast bucket's upper
    // bound, p99 and p999 the slow bucket's.
    for (int i = 0; i < 98; ++i)
        h.record(0.5);
    h.record(100.0);
    h.record(100.0);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_DOUBLE_EQ(snap.minMs, 0.5);
    EXPECT_DOUBLE_EQ(snap.maxMs, 100.0);
    EXPECT_NEAR(snap.sumMs, 98 * 0.5 + 200.0, 1e-9);

    const auto fast_upper =
        obs::Histogram::bucketUpperBound(obs::Histogram::bucketIndex(0.5));
    const auto slow_upper = obs::Histogram::bucketUpperBound(
        obs::Histogram::bucketIndex(100.0));
    EXPECT_DOUBLE_EQ(snap.quantileMs(0.50), fast_upper);
    EXPECT_DOUBLE_EQ(snap.quantileMs(0.99), slow_upper);
    EXPECT_DOUBLE_EQ(snap.quantileMs(0.999), slow_upper);
    // The bucket upper bound is an upper bound on the true quantile,
    // within one sub-bucket (2^(1/4)) of the recorded value.
    EXPECT_GE(snap.quantileMs(0.50), 0.5);
    EXPECT_LE(snap.quantileMs(0.50), 0.5 * std::exp2(0.25) * (1 + 1e-12));
}

TEST(ObsHistogram, EmptySnapshotIsAllZeros)
{
    obs::Histogram h;
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.minMs, 0.0); // not the +infinity seed
    EXPECT_DOUBLE_EQ(snap.maxMs, 0.0);
    EXPECT_DOUBLE_EQ(snap.avgMs(), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantileMs(0.5), 0.0);
    EXPECT_TRUE(snap.buckets.empty());
}

TEST(ObsHistogram, CountEqualsRecordCallsAlways)
{
    obs::Histogram h;
    // Underflow, in-range, boundary, overflow: every record lands in
    // exactly one bucket, so the bucket sum equals the call count.
    const double values[] = {0.0, 1e-9, obs::Histogram::kMinMs, 0.017,
                             1.0, 250.0, 1e5,  1e12};
    for (const double v : values)
        h.record(v);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 8u);
    std::uint64_t bucket_sum = 0;
    for (const auto &[upper, c] : snap.buckets)
        bucket_sum += c;
    EXPECT_EQ(bucket_sum, snap.count);
}

// ---------------------------------------------------------- Concurrency

TEST(ObsConcurrency, CounterIncrementsAreLossFree)
{
    obs::MetricsRegistry registry;
    auto &counter = registry.counter("test.counter");
    constexpr int kThreads = 8;
    constexpr int kIncrements = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i)
                counter.add();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(ObsConcurrency, HistogramRecordsAreLossFree)
{
    obs::MetricsRegistry registry;
    auto &h = registry.histogram("test.hist");
    constexpr int kThreads = 8;
    constexpr int kRecords = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kRecords; ++i)
                h.record(0.1 * (t + 1));
        });
    for (auto &t : threads)
        t.join();
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<std::uint64_t>(kThreads) * kRecords);
    EXPECT_DOUBLE_EQ(snap.minMs, 0.1);
    EXPECT_DOUBLE_EQ(snap.maxMs, 0.8);
    std::uint64_t bucket_sum = 0;
    for (const auto &[upper, c] : snap.buckets)
        bucket_sum += c;
    EXPECT_EQ(bucket_sum, snap.count);
}

// ------------------------------------------------------------- Registry

TEST(ObsRegistry, LookupReturnsStableReferences)
{
    obs::MetricsRegistry registry;
    auto &a = registry.counter("x");
    auto &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(registry.counter("x").value(), 3u);
}

TEST(ObsRegistry, ToJsonShape)
{
    obs::MetricsRegistry registry;
    registry.counter("b.count").add(2);
    registry.counter("a.count").add(1);
    registry.gauge("depth").set(4.5);
    registry.histogram("lat_ms").record(1.0);

    const auto json = registry.toJson();
    const auto *counters = json.find("counters");
    ASSERT_NE(counters, nullptr);
    // Lexicographic member order, so snapshots diff cleanly.
    ASSERT_EQ(counters->members().size(), 2u);
    EXPECT_EQ(counters->members()[0].first, "a.count");
    EXPECT_EQ(counters->members()[1].first, "b.count");
    EXPECT_DOUBLE_EQ(json.find("gauges")->getNumber("depth", 0.0), 4.5);

    const auto *hist = json.find("histograms")->find("lat_ms");
    ASSERT_NE(hist, nullptr);
    for (const char *key : {"count", "sum_ms", "avg_ms", "min_ms",
                            "max_ms", "p50_ms", "p99_ms", "p999_ms"})
        EXPECT_NE(hist->find(key), nullptr) << key;
    const auto *buckets = hist->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->items().size(), 1u);
    EXPECT_EQ(buckets->items()[0].items().size(), 2u);
}

TEST(ObsRegistry, OverflowBucketSerializesAsSentinel)
{
    obs::MetricsRegistry registry;
    registry.histogram("h").record(1e12); // far beyond kMaxMs
    const auto json = registry.toJson();
    const auto &bucket =
        json.find("histograms")->find("h")->find("buckets")->items()[0];
    // Infinity cannot ride JSON; -1 is the documented sentinel.
    EXPECT_DOUBLE_EQ(bucket.items()[0].asNumber(0.0), -1.0);
    EXPECT_DOUBLE_EQ(bucket.items()[1].asNumber(0.0), 1.0);
}

// ---------------------------------------------------------------- Trace

TEST(ObsTrace, SpansSortByStartAndKeepParentFirst)
{
    obs::Trace trace(obs::Trace::Clock::now());
    // Recorded out of order; serialization sorts by start offset.
    trace.add("late", 5.0, 1.0);
    trace.add("early", 0.0, 2.0);
    trace.add("mid", 2.0, 3.0);
    // Same start as "mid" but recorded after: stable sort keeps the
    // earlier record first, so a parent span precedes its children.
    trace.add("mid.child", 2.0, 1.0);

    const auto json = trace.toJson();
    const auto &spans = json.find("spans")->items();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].getString("name", ""), "early");
    EXPECT_EQ(spans[1].getString("name", ""), "mid");
    EXPECT_EQ(spans[2].getString("name", ""), "mid.child");
    EXPECT_EQ(spans[3].getString("name", ""), "late");
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].getNumber("start_ms", 0.0),
                  spans[i].getNumber("start_ms", 0.0));
}

TEST(ObsTrace, BeginEndNestsInsideEnclosingSpan)
{
    obs::Trace trace(obs::Trace::Clock::now());
    const auto outer = trace.begin("outer");
    const auto inner = trace.begin("inner");
    trace.end(inner, "note-inner");
    trace.end(outer);

    const auto &spans = trace.spans();
    ASSERT_EQ(spans.size(), 2u);
    // Containment: inner starts no earlier and ends no later.
    EXPECT_LE(spans[0].startMs, spans[1].startMs);
    EXPECT_GE(spans[0].startMs + spans[0].durMs,
              spans[1].startMs + spans[1].durMs);
    EXPECT_EQ(spans[1].note, "note-inner");
}

TEST(ObsTrace, IterationMarksFoldIntoOneSpan)
{
    obs::Trace trace(obs::Trace::Clock::now());
    for (int i = 0; i < 1000; ++i)
        trace.markIteration();
    trace.closeIterations();
    ASSERT_EQ(trace.spans().size(), 1u); // not one span per iteration
    EXPECT_EQ(trace.spans()[0].name, "optimize");
    EXPECT_EQ(trace.spans()[0].note, "checkpoints=1000");
    trace.closeIterations(); // idempotent once folded
    EXPECT_EQ(trace.spans().size(), 1u);
}

TEST(ObsTrace, RespondMarkDoesNotMutateTheTimeline)
{
    obs::Trace trace(obs::Trace::Clock::now());
    trace.add("solve", 0.0, 1.0);
    const auto with_mark = trace.toJson(/*mark_respond=*/true);
    EXPECT_EQ(with_mark.find("spans")->items().size(), 2u);
    EXPECT_EQ(with_mark.find("spans")->items()[1].getString("name", ""),
              "respond");
    // Serialization is idempotent: the stored timeline is unchanged,
    // and a second serialization appends exactly one respond mark.
    EXPECT_EQ(trace.spans().size(), 1u);
    EXPECT_EQ(trace.toJson(true).find("spans")->items().size(), 2u);
    EXPECT_EQ(trace.toJson(false).find("spans")->items().size(), 1u);
}
