/**
 * @file
 * Solve-service tests: the JSON codec, the compilation-cache key and
 * hit/miss behavior, scheduler determinism (identical (job, seed) pairs
 * must be bit-identical at any worker count and submission order), and
 * multi-start screening.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

// Raw sockets for the wire-torture tests: pathological byte patterns
// (one-byte reads, tiny SO_RCVBUF) the JsonlClient line API hides.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "core/chocoq_solver.hpp"
#include "obs/roofline.hpp"
#include "problems/suite.hpp"
#include "service/compile_cache.hpp"
#include "service/fault.hpp"
#include "service/job.hpp"
#include "service/json.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace chocoq;

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsAndContainers)
{
    const auto v = service::Json::parse(
        R"({"a": 1.5, "b": "x\ny", "c": [true, null, -2], "d": {"e": 3}})");
    EXPECT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.getNumber("a", 0.0), 1.5);
    EXPECT_EQ(v.getString("b", ""), "x\ny");
    ASSERT_NE(v.find("c"), nullptr);
    const auto &arr = v.find("c")->items();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_TRUE(arr[0].asBool(false));
    EXPECT_TRUE(arr[1].isNull());
    EXPECT_DOUBLE_EQ(arr[2].asNumber(0.0), -2.0);
    EXPECT_DOUBLE_EQ(v.find("d")->getNumber("e", 0.0), 3.0);
}

TEST(Json, RoundTripsThroughDump)
{
    service::Json obj = service::Json::object();
    obj.set("name", "f\"1\"");
    obj.set("value", 0.1); // not exactly representable: needs %.17g
    obj.set("count", 42);
    obj.set("flag", true);
    const auto back = service::Json::parse(obj.dump());
    EXPECT_EQ(back.getString("name", ""), "f\"1\"");
    EXPECT_DOUBLE_EQ(back.getNumber("value", 0.0), 0.1);
    EXPECT_DOUBLE_EQ(back.getNumber("count", 0.0), 42.0);
    EXPECT_TRUE(back.getBool("flag", false));
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(service::Json::parse("{\"a\": }"), FatalError);
    EXPECT_THROW(service::Json::parse("[1, 2"), FatalError);
    EXPECT_THROW(service::Json::parse("{} trailing"), FatalError);
    EXPECT_THROW(service::Json::parse("\"unterminated"), FatalError);
}

TEST(Json, UnicodeEscape)
{
    const auto v = service::Json::parse(R"({"s": "Aé"})");
    EXPECT_EQ(v.getString("s", ""), "A\xc3\xa9");
    // Surrogate pair: U+1F600 as 😀 -> 4-byte UTF-8.
    const auto pair = service::Json::parse(R"({"s": "😀"})");
    EXPECT_EQ(pair.getString("s", ""), "\xf0\x9f\x98\x80");
    EXPECT_THROW(service::Json::parse(R"({"s": "\ud83d"})"), FatalError);
    EXPECT_THROW(service::Json::parse(R"({"s": "\ude00"})"), FatalError);
}

TEST(Json, DeepNestingFailsInsteadOfOverflowing)
{
    // Untrusted stdin: a pathological request must fail the request,
    // not blow the parser's stack.
    const std::string deep(100000, '[');
    EXPECT_THROW(service::Json::parse(deep), FatalError);
    // Sane nesting still parses.
    EXPECT_NO_THROW(service::Json::parse("[[[[[[[[[[1]]]]]]]]]]"));
}

// ----------------------------------------------------------- job model

TEST(JobModel, ParsesRequestWithDefaults)
{
    const auto job = service::jobFromJsonLine(
        R"({"id":"j1","scale":"G2","case":3,"seed":99,"iters":25})");
    EXPECT_EQ(job.id, "j1");
    EXPECT_EQ(job.solver, "choco-q");
    EXPECT_EQ(job.scale, "G2");
    EXPECT_EQ(job.caseIndex, 3u);
    EXPECT_EQ(job.seed, 99u);
    EXPECT_EQ(job.maxIterations, 25);
    EXPECT_EQ(job.shots, 0);
    EXPECT_EQ(job.deadlineMs, 0.0);
}

TEST(JobModel, StringSeedCarriesFull64Bits)
{
    // 2^53 + 1 is not representable as a double; the string form is.
    const auto job = service::jobFromJsonLine(
        R"({"scale":"F1","seed":"9007199254740993"})");
    EXPECT_EQ(job.seed, 9007199254740993ull);
    // 2^64 - 1, the largest seed, and the string jobToJsonRequest
    // emits for it parses back to the same value.
    const auto max = service::jobFromJsonLine(
        R"({"scale":"F1","seed":"18446744073709551615"})");
    EXPECT_EQ(max.seed, 18446744073709551615ull);
    EXPECT_EQ(service::jobFromJson(service::jobToJsonRequest(max)).seed,
              max.seed);
}

TEST(JobModel, RejectsUnknownScaleAndSolver)
{
    EXPECT_THROW(service::jobFromJsonLine(R"({"scale":"Z9"})"), FatalError);
    EXPECT_THROW(service::jobFromJsonLine(R"({"solver":"adam"})"),
                 FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"device":"nosuch","shots":256})"),
        FatalError);
    // Device names follow deviceByName's case-insensitive rule.
    EXPECT_EQ(
        service::jobFromJsonLine(R"({"device":"Fez","shots":256})").device,
        "Fez");
}

TEST(JobModel, RejectsDeviceWithoutShots)
{
    // With shots 0 a device job would sample one shot per sub-instance.
    try {
        service::jobFromJsonLine(R"({"scale":"F1","device":"fez"})");
        FAIL() << "a device job without shots must be rejected";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'device'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'shots'"), std::string::npos) << msg;
    }
    EXPECT_THROW(service::jobFromJsonLine(
                     R"({"scale":"F1","device":"fez","shots":0})"),
                 FatalError);
    EXPECT_EQ(service::jobFromJsonLine(
                  R"({"scale":"F1","device":"fez","shots":1})")
                  .shots,
              1);
    EXPECT_EQ(service::jobFromJsonLine(R"({"scale":"F1","device":""})")
                  .device,
              "");
}

TEST(JobModel, RejectsOutOfRangeNumericFields)
{
    // Untrusted input: out-of-range or fractional integers must fail
    // the request cleanly, not hit a UB float->int cast.
    EXPECT_THROW(service::jobFromJsonLine(R"({"scale":"F1","case":-1})"),
                 FatalError);
    EXPECT_THROW(service::jobFromJsonLine(R"({"scale":"F1","seed":-5})"),
                 FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"scale":"F1","shots":1e19})"),
        FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"scale":"F1","iters":2.5})"),
        FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"scale":"F1","deadline_ms":-1})"),
        FatalError);
    // Past 2^31 ms the deadline is refused, not armed in the past.
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"scale":"F1","deadline_ms":1e13})"),
        FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"scale":"F1","deadline_ms":1e300})"),
        FatalError);
    EXPECT_EQ(service::jobFromJsonLine(
                  R"({"scale":"F1","deadline_ms":2147483648})")
                  .deadlineMs,
              2147483648.0);
    // A string seed is 1-20 decimal digits below 2^64, or an error that
    // names the field.
    for (const char *bad :
         {"", "abc", "12xyz", "-1", " 1", "+1", "18446744073709551616",
          "99999999999999999999999", "000000000000000000001"}) {
        const std::string line =
            std::string(R"({"scale":"F1","seed":")") + bad + "\"}";
        try {
            service::jobFromJsonLine(line);
            ADD_FAILURE() << "seed string '" << bad << "' was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("'seed'"),
                      std::string::npos)
                << e.what();
        }
    }
    // A present field of the wrong JSON type is an error that names the
    // field, never a job run with that field's default.
    const std::pair<const char *, const char *> wrong_typed[] = {
        {R"({"deadline_ms":"5"})", "'deadline_ms'"},
        {R"({"scale":7})", "'scale'"},
        {R"({"solver":5})", "'solver'"},
        {R"({"iters":"abc"})", "'iters'"},
        {R"({"device":3,"shots":5})", "'device'"},
        {R"({"id":1})", "'id'"},
        {R"({"case":"1"})", "'case'"},
        {R"({"seed":true})", "'seed'"},
        {R"({"shots":"5"})", "'shots'"},
        {R"({"layers":null})", "'layers'"},
        {R"({"keep_starts":[1]})", "'keep_starts'"},
    };
    for (const auto &[line, field] : wrong_typed) {
        try {
            service::jobFromJsonLine(line);
            ADD_FAILURE() << line << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << line << ": " << e.what();
        }
    }
}

TEST(Suite, ScaleByName)
{
    ASSERT_TRUE(problems::scaleByName("F1").has_value());
    EXPECT_EQ(*problems::scaleByName("F1"), problems::Scale::F1);
    EXPECT_EQ(*problems::scaleByName("k4"), problems::Scale::K4);
    EXPECT_FALSE(problems::scaleByName("F9").has_value());
    EXPECT_FALSE(problems::scaleByName("").has_value());
}

// ------------------------------------------------------- compile cache

TEST(CompileCache, KeyIgnoresNameButSeesStructure)
{
    const core::ChocoQOptions opts;
    auto a = problems::makeCase(problems::Scale::F1, 0);
    auto b = problems::makeCase(problems::Scale::F1, 0);
    b.setName("renamed-but-identical");
    EXPECT_EQ(service::compileKey(a, opts), service::compileKey(b, opts));

    // Different case: same constraint shape, different objective
    // coefficients -> different key.
    const auto c = problems::makeCase(problems::Scale::F1, 1);
    EXPECT_NE(service::compileKey(a, opts), service::compileKey(c, opts));

    // Compile-relevant options are part of the key...
    core::ChocoQOptions other = opts;
    other.eliminate = 0;
    EXPECT_NE(service::compileKey(a, opts), service::compileKey(a, other));

    // ...run-only options are not.
    core::ChocoQOptions run_only = opts;
    run_only.layers = 3;
    run_only.engine.seed = 123;
    EXPECT_EQ(service::compileKey(a, opts),
              service::compileKey(a, run_only));
}

TEST(CompileCache, HitOnEqualStructureMissOnDistinct)
{
    service::CompileCache cache;
    const core::ChocoQSolver solver;
    const auto p0 = problems::makeCase(problems::Scale::F1, 0);
    const auto p1 = problems::makeCase(problems::Scale::F1, 1);

    bool hit = true;
    const auto a0 = cache.get(p0, solver, &hit);
    EXPECT_FALSE(hit);
    const auto a0_again = cache.get(p0, solver, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a0.get(), a0_again.get()) << "hit must share the artifacts";

    cache.get(p1, solver, &hit);
    EXPECT_FALSE(hit) << "structurally distinct problem must recompile";

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 1.0 / 3.0);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CompileCache, FailedCompilationIsNotCached)
{
    service::CompileCache cache;
    const core::ChocoQSolver solver;
    model::Problem infeasible(2, model::Sense::Minimize, "infeasible");
    infeasible.addEquality({1, 1}, 3);

    EXPECT_THROW(cache.get(infeasible, solver), FatalError);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_THROW(cache.get(infeasible, solver), FatalError);
    EXPECT_EQ(cache.stats().misses, 2u) << "failures must not be cached";
}

TEST(CompileCache, SharedArtifactsSolveIdentically)
{
    const core::ChocoQSolver solver;
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    const auto fresh = solver.compile(p);

    service::CompileCache cache;
    const auto cached_a = cache.get(p, solver);
    const auto cached_b = cache.get(p, solver);

    const auto out_fresh = solver.solveCompiled(p, *fresh);
    const auto out_cached = solver.solveCompiled(p, *cached_b);
    (void)cached_a;
    ASSERT_EQ(out_fresh.distribution.size(), out_cached.distribution.size());
    EXPECT_EQ(0, std::memcmp(&out_fresh.bestCost, &out_cached.bestCost,
                             sizeof(double)));
    for (auto it_f = out_fresh.distribution.begin(),
              it_c = out_cached.distribution.begin();
         it_f != out_fresh.distribution.end(); ++it_f, ++it_c) {
        EXPECT_EQ(it_f->first, it_c->first);
        EXPECT_EQ(0, std::memcmp(&it_f->second, &it_c->second,
                                 sizeof(double)));
    }
}

TEST(CompileCache, LruEvictsUnderByteBudget)
{
    const core::ChocoQSolver solver;
    const auto p0 = problems::makeCase(problems::Scale::F1, 0);
    const auto p1 = problems::makeCase(problems::Scale::F1, 1);
    const auto p2 = problems::makeCase(problems::Scale::K1, 0);

    // Budget one byte short of all three structures: inserting the
    // third must evict exactly the coldest entry.
    const std::size_t b0 = solver.compile(p0)->memoryBytes();
    const std::size_t b1 = solver.compile(p1)->memoryBytes();
    const std::size_t b2 = solver.compile(p2)->memoryBytes();
    service::CompileCache cache(
        service::CompileCacheOptions{b0 + b1 + b2 - 1});

    bool hit = false;
    cache.get(p0, solver, &hit);
    cache.get(p1, solver, &hit);
    cache.get(p0, solver, &hit); // touch p0: p1 becomes coldest
    EXPECT_TRUE(hit);
    cache.get(p2, solver, &hit); // over budget -> evict LRU tail

    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, stats.maxBytes);
    EXPECT_EQ(stats.entries, 2u);

    // The recently touched structure survived; the coldest did not.
    cache.get(p0, solver, &hit);
    EXPECT_TRUE(hit) << "recently used entry must survive eviction";
    cache.get(p1, solver, &hit);
    EXPECT_FALSE(hit) << "evicted structure must recompile";
}

TEST(CompileCache, EvictionDoesNotChangeResults)
{
    const core::ChocoQSolver solver;
    const auto p = problems::makeCase(problems::Scale::F1, 0);

    // A 1-byte budget evicts every completed entry immediately: all
    // misses, yet the recompiled artifacts must solve identically.
    service::CompileCache cache(service::CompileCacheOptions{1});
    bool hit = true;
    const auto a = cache.get(p, solver, &hit);
    EXPECT_FALSE(hit);
    const auto out_a = solver.solveCompiled(p, *a);
    const auto b = cache.get(p, solver, &hit);
    EXPECT_FALSE(hit) << "budget of 1 byte keeps nothing";
    const auto out_b = solver.solveCompiled(p, *b);
    EXPECT_GE(cache.stats().evictions, 2u);
    EXPECT_EQ(0, std::memcmp(&out_a.bestCost, &out_b.bestCost,
                             sizeof(double)));
}

TEST(CompileCache, UnboundedBudgetNeverEvicts)
{
    const core::ChocoQSolver solver;
    service::CompileCache cache(service::CompileCacheOptions{0});
    cache.get(problems::makeCase(problems::Scale::F1, 0), solver);
    cache.get(problems::makeCase(problems::Scale::F1, 1), solver);
    cache.get(problems::makeCase(problems::Scale::K1, 0), solver);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_GT(stats.bytes, 0u);
}

// ----------------------------------------------------------- scheduler

TEST(Scheduler, RunsEveryTaskOnSomeWorker)
{
    service::Scheduler scheduler(4);
    std::atomic<int> count{0};
    std::atomic<bool> id_ok{true};
    for (int i = 0; i < 64; ++i)
        scheduler.submit([&](service::WorkerContext &ctx) {
            if (ctx.id < 0 || ctx.id >= 4)
                id_ok = false;
            ++count;
        });
    scheduler.wait();
    EXPECT_EQ(count.load(), 64);
    EXPECT_TRUE(id_ok.load());
}

TEST(Scheduler, WaitWithNoTasksReturnsImmediately)
{
    service::Scheduler scheduler(2);
    scheduler.wait();
    SUCCEED();
}

TEST(Scheduler, StartsQueuedTasksInSubmissionOrder)
{
    service::Scheduler scheduler(2);
    std::mutex mu;
    std::condition_variable cv;
    int gatesHeld = 0;
    bool open[2] = {false, false};
    std::vector<std::string> started;
    // Hold both workers, each on its own gate.
    for (int g = 0; g < 2; ++g)
        scheduler.submit([&, g](service::WorkerContext &) {
            std::unique_lock<std::mutex> lock(mu);
            ++gatesHeld;
            cv.notify_all();
            cv.wait(lock, [&] { return open[g]; });
        });
    const auto waitFor = [&](const auto &pred) {
        std::unique_lock<std::mutex> lock(mu);
        return cv.wait_for(lock, std::chrono::seconds(10), pred);
    };
    const bool held = waitFor([&] { return gatesHeld == 2; });
    for (const char *name : {"A", "B", "C", "D"})
        scheduler.submit([&, name](service::WorkerContext &) {
            std::lock_guard<std::mutex> lock(mu);
            started.push_back(name);
            cv.notify_all();
        });
    // Free one worker: it alone drains the queue while the other waits.
    {
        std::lock_guard<std::mutex> lock(mu);
        open[0] = true;
    }
    cv.notify_all();
    const bool ranAll = waitFor([&] { return started.size() == 4; });
    {
        std::lock_guard<std::mutex> lock(mu);
        open[1] = true;
    }
    cv.notify_all();
    scheduler.wait(); // every gate is open by now: no path can hang
    ASSERT_TRUE(held);
    ASSERT_TRUE(ranAll);
    EXPECT_EQ(started, (std::vector<std::string>{"A", "B", "C", "D"}));
}

TEST(Scheduler, ThrowingTaskDoesNotKillThePoolOrHangWait)
{
    service::Scheduler scheduler(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        scheduler.submit([&](service::WorkerContext &) {
            ++ran;
            throw std::runtime_error("callback failure");
        });
    scheduler.submit([&](service::WorkerContext &) { ++ran; });
    scheduler.wait(); // must return: throwing tasks still count as done
    EXPECT_EQ(ran.load(), 9);
}

// ----------------------------------------- service determinism & jobs

namespace
{

std::vector<service::SolveJob>
determinismSuite()
{
    std::vector<service::SolveJob> jobs;
    const char *scales[] = {"F1", "F1", "K1"};
    const unsigned cases[] = {0, 1, 0};
    for (int s = 0; s < 3; ++s)
        for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
            service::SolveJob job;
            job.id = std::string(scales[s]) + "#"
                     + std::to_string(cases[s]) + "@"
                     + std::to_string(seed);
            job.scale = scales[s];
            job.caseIndex = cases[s];
            job.seed = seed;
            job.maxIterations = 10;
            job.keepStarts = 2;
            jobs.push_back(std::move(job));
        }
    // One device-noise job, so the shared-prefix sampler is covered
    // too (same structure as F1#0: a cache hit).
    service::SolveJob noisy = jobs.front();
    noisy.id = "F1#0@11-fez";
    noisy.device = "fez";
    noisy.shots = 256;
    jobs.push_back(std::move(noisy));
    return jobs;
}

} // namespace

TEST(SolveService, DeterministicAcrossWorkersAndSubmissionOrder)
{
    auto jobs = determinismSuite();

    service::ServiceOptions serial;
    serial.workers = 1;
    auto base = service::SolveService(serial).solveAll(jobs);

    // Same jobs, reversed submission, four workers sharing one cache.
    std::reverse(jobs.begin(), jobs.end());
    service::ServiceOptions parallel;
    parallel.workers = 4;
    auto shuffled = service::SolveService(parallel).solveAll(jobs);

    ASSERT_EQ(base.size(), shuffled.size());
    for (const auto &expect : base) {
        const auto it = std::find_if(
            shuffled.begin(), shuffled.end(),
            [&](const auto &r) { return r.id == expect.id; });
        ASSERT_NE(it, shuffled.end()) << expect.id;
        EXPECT_EQ(expect.status, "ok");
        EXPECT_EQ(it->status, "ok");
        EXPECT_EQ(expect.distHash, it->distHash)
            << expect.id << ": distribution must be bit-identical";
        EXPECT_EQ(0,
                  std::memcmp(&expect.bestCost, &it->bestCost,
                              sizeof(double)))
            << expect.id;
        EXPECT_EQ(expect.evaluations, it->evaluations) << expect.id;
    }
}

TEST(SolveService, CacheDoesNotChangeResults)
{
    const auto jobs = determinismSuite();
    service::ServiceOptions so;
    so.workers = 2;

    service::SolveService cached(so);
    const auto a = cached.solveAll(jobs);
    for (std::size_t i = 0; i < a.size(); ++i) {
        // A fresh service per job: every compile is a cache miss.
        const auto b = service::SolveService(so).solveAll({jobs[i]});
        ASSERT_EQ(b.size(), 1u);
        EXPECT_FALSE(b[0].cacheHit) << b[0].id;
        EXPECT_EQ(a[i].distHash, b[0].distHash) << a[i].id;
    }
    // 13 choco-q jobs over 3 distinct structures: 3 misses, 10 hits.
    EXPECT_EQ(cached.cacheStats().misses, 3u);
    EXPECT_EQ(cached.cacheStats().hits, 10u);
}

TEST(SolveService, RetiredBatchWidthIsIgnored)
{
    // The retired batch_width key is an unknown key now, ignored like
    // any other: no range check, and it changes neither the result nor
    // the compile-cache key.
    EXPECT_NO_THROW(service::jobFromJsonLine(
        R"({"scale":"F1","batch_width":4097})"));
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;
    const auto r0 = svc.execute(
        service::jobFromJsonLine(
            R"({"id":"w0","scale":"F1","iters":8,"batch_width":0})"),
        ctx);
    const auto r8 = svc.execute(
        service::jobFromJsonLine(
            R"({"id":"w8","scale":"F1","iters":8,"batch_width":8})"),
        ctx);
    ASSERT_EQ(r0.status, "ok");
    ASSERT_EQ(r8.status, "ok");
    EXPECT_EQ(r0.distHash, r8.distHash);
    EXPECT_FALSE(r0.cacheHit);
    EXPECT_TRUE(r8.cacheHit);
}

TEST(SolveService, ErrorAndExpiredJobs)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;

    service::SolveJob bad;
    bad.id = "bad";
    bad.scale = "F1";
    bad.solver = "choco-q";
    bad.device = "not-a-device";
    const auto r = svc.execute(bad, ctx);
    EXPECT_EQ(r.status, "error");
    EXPECT_NE(r.error.find("unknown device"), std::string::npos);

    // A deadline far in the past must expire without running.
    service::SolveJob late;
    late.id = "late";
    late.scale = "F1";
    late.deadlineMs = 1e-9;
    service::SolveResult out;
    svc.submit(late, [&](const service::SolveResult &res) { out = res; });
    svc.drain();
    EXPECT_EQ(out.status, "expired");
    EXPECT_EQ(out.id, "late");

    // 1e13 ms overflows a nanosecond clock: submit caps it at 2^31 ms
    // instead of arming a deadline in the past.
    service::SolveJob patient;
    patient.id = "patient";
    patient.scale = "F1";
    patient.maxIterations = 5;
    patient.deadlineMs = 1e13;
    svc.submit(patient,
               [&](const service::SolveResult &res) { out = res; });
    svc.drain();
    EXPECT_EQ(out.status, "ok") << out.error;
    EXPECT_EQ(out.id, "patient");
}

TEST(SolveService, ResultJsonRoundTrip)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;
    service::SolveJob job;
    job.id = "rt";
    job.scale = "F1";
    job.maxIterations = 8;
    const auto r = svc.execute(job, ctx);
    ASSERT_EQ(r.status, "ok");
    const auto v = service::Json::parse(service::resultToJson(r).dump());
    EXPECT_EQ(v.getString("id", ""), "rt");
    EXPECT_EQ(v.getString("status", ""), "ok");
    EXPECT_EQ(v.getString("problem", ""), r.problem);
    EXPECT_EQ(v.getNumber("evaluations", -1.0),
              static_cast<double>(r.evaluations));
    EXPECT_EQ(v.getString("dist_hash", "").size(), 16u);
}

// ------------------------------------------------- multi-start path

TEST(MultiStart, ScreeningPrunesOptimizerWork)
{
    // keepStarts = 1 must spend fewer objective evaluations than
    // optimizing all four default starts, and stay a valid solve.
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;

    service::SolveJob all;
    all.id = "all";
    all.scale = "F1";
    all.maxIterations = 20;
    const auto res_all = svc.execute(all, ctx);

    service::SolveJob pruned = all;
    pruned.id = "pruned";
    pruned.keepStarts = 1;
    const auto res_pruned = svc.execute(pruned, ctx);

    ASSERT_EQ(res_all.status, "ok");
    ASSERT_EQ(res_pruned.status, "ok");
    EXPECT_LT(res_pruned.evaluations, res_all.evaluations);
    EXPECT_GT(res_pruned.feasibleMass, 0.99);
}

// --------------------------------------------- fusion on/off (service)

namespace
{

/** The 8-job CI fixture, parsed from the source tree. */
std::vector<service::SolveJob>
fixtureJobs()
{
    std::ifstream in(std::string(CHOCOQ_SOURCE_DIR)
                     + "/tests/data/service_jobs.jsonl");
    EXPECT_TRUE(in.is_open()) << "fixture missing";
    std::vector<service::SolveJob> jobs;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#')
            continue;
        jobs.push_back(service::jobFromJsonLine(line));
    }
    return jobs;
}

} // namespace

TEST(SolveService, FixtureIdenticalWithFusionOnAndOff)
{
    // Fusion reshapes the kernel schedule, never the arithmetic: the
    // functional path is bit-identical by construction, and the noisy
    // sampling job always executes the unfused per-gate circuit. Every
    // result of the 8-job CI fixture must therefore match bitwise.
    auto jobs = fixtureJobs();
    ASSERT_EQ(jobs.size(), 8u);
    for (const auto &job : jobs)
        EXPECT_TRUE(job.fusion) << "fixture jobs default to fusion on";

    service::ServiceOptions options;
    options.workers = 2;
    auto fused = service::SolveService(options).solveAll(jobs);

    for (auto &job : jobs)
        job.fusion = false;
    auto plain = service::SolveService(options).solveAll(jobs);

    ASSERT_EQ(fused.size(), plain.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
        ASSERT_EQ(fused[i].status, "ok") << fused[i].id << ": "
                                         << fused[i].error;
        ASSERT_EQ(plain[i].status, "ok") << plain[i].id;
        EXPECT_EQ(fused[i].distHash, plain[i].distHash) << fused[i].id;
        EXPECT_EQ(0, std::memcmp(&fused[i].bestCost, &plain[i].bestCost,
                                 sizeof(double)))
            << fused[i].id;
        EXPECT_EQ(fused[i].evaluations, plain[i].evaluations)
            << fused[i].id;
    }
}

// ------------------------------------------- request-line front end

TEST(RequestLine, Utf8Validation)
{
    EXPECT_TRUE(service::utf8Valid("plain ascii"));
    EXPECT_TRUE(service::utf8Valid("caf\xc3\xa9 \xf0\x9f\x98\x80"));
    EXPECT_TRUE(service::utf8Valid(""));
    EXPECT_FALSE(service::utf8Valid("\xff\xfe"));         // invalid lead
    EXPECT_FALSE(service::utf8Valid("\xc3"));             // truncated
    EXPECT_FALSE(service::utf8Valid("\xc0\xaf"));         // overlong
    EXPECT_FALSE(service::utf8Valid("\xed\xa0\x80"));     // surrogate
    EXPECT_FALSE(service::utf8Valid("a\x80z"));           // stray cont.
}

TEST(RequestLine, ClassifiesSkipsJobsAndErrors)
{
    EXPECT_TRUE(service::parseRequestLine("", 1).skip);
    EXPECT_TRUE(service::parseRequestLine("  # comment", 2).skip);

    const auto ok =
        service::parseRequestLine(R"({"scale":"F1","seed":3})", 7);
    ASSERT_TRUE(ok.ok);
    EXPECT_EQ(ok.job.id, "job-7") << "empty id defaults per line";
    EXPECT_EQ(ok.job.seed, 3u);

    const auto bad = service::parseRequestLine("not json", 9);
    ASSERT_FALSE(bad.ok);
    EXPECT_FALSE(bad.skip);
    EXPECT_EQ(bad.error.id, "line-9");
    EXPECT_EQ(bad.error.status, "error");

    const auto utf8 = service::parseRequestLine("{\"id\":\"\xff\"}", 4);
    ASSERT_FALSE(utf8.ok);
    EXPECT_NE(utf8.error.error.find("UTF-8"), std::string::npos);

    const auto big = service::parseRequestLine("", 5, /*oversized=*/true);
    ASSERT_FALSE(big.ok);
    EXPECT_NE(big.error.error.find("size limit"), std::string::npos);
}

namespace
{

/** One counter or gauge off the service's books, read the way the
 * stats probe reports it; -1 when @p name is not registered, so a
 * misspelt name cannot pass for a zero count. */
double
books(const service::SolveService &svc, const std::string &name)
{
    const service::Json m = svc.metricsToJson();
    for (const char *section : {"counters", "gauges"})
        if (const service::Json *v = m.find(section)->find(name))
            return v->asNumber(-1.0);
    return -1.0;
}

} // namespace

TEST(BatchStream, HostileInputFailsPerLineNeverTheStream)
{
    // Oversized line, binary garbage, malformed UTF-8, a valid job, and
    // a truncated final line (no newline): every bad line must produce
    // its own error response, the good job must still run, and the
    // stream must finish cleanly.
    std::string input;
    input += std::string(5000, 'x') + "\n";              // line 1: oversized
    input += "\x01\x02\x03 binary garbage\n";            // line 2: bad JSON
    input += "{\"id\":\"\xff\xfe\"}\n";                  // line 3: bad UTF-8
    input += "# annotated fixture comment\n";            // line 4: skip
    input += R"({"id":"good","scale":"F1","iters":5})" "\n"; // line 5: ok
    input += R"({"id":"trunc","scale":"F1")";            // line 6: truncated

    std::istringstream in(input);
    std::ostringstream out;
    service::SolveService svc{service::ServiceOptions{}};
    service::StreamLimits limits;
    limits.maxLineBytes = 4096;
    service::runJsonlStream(in, out, svc, limits);

    EXPECT_EQ(books(svc, "jobs.submitted"), 1.0);
    EXPECT_EQ(books(svc, "jobs.ok"), 1.0);
    EXPECT_EQ(books(svc, "requests.line_errors"), 4.0);

    std::map<std::string, service::Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        by_id.emplace(service::Json::parse(line).getString("id", ""),
                      service::Json::parse(line));
    ASSERT_EQ(by_id.size(), 5u);
    EXPECT_NE(by_id.at("line-1").getString("error", "").find("size limit"),
              std::string::npos);
    EXPECT_EQ(by_id.at("line-2").getString("status", ""), "error");
    EXPECT_NE(by_id.at("line-3").getString("error", "").find("UTF-8"),
              std::string::npos);
    EXPECT_EQ(by_id.at("good").getString("status", ""), "ok");
    EXPECT_EQ(by_id.at("line-6").getString("status", ""), "error")
        << "a truncated final line is a request, not silence";
}

// ------------------------------------------------- line framing (wire)

TEST(LineFramer, ReassemblesLinesAcrossArbitrarySplits)
{
    // The same byte stream must frame identically no matter how the
    // kernel fragments it: feed one byte at a time.
    const std::string stream = "{\"a\":1}\n\n{\"b\":2}\r\n";
    service::LineFramer framer(64);
    std::vector<std::string> lines;
    service::LineFramer::Line ln;
    for (char c : stream) {
        framer.feed(&c, 1);
        while (framer.next(ln))
            lines.push_back(ln.text);
    }
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "{\"a\":1}");
    EXPECT_EQ(lines[1], "");
    EXPECT_EQ(lines[2], "{\"b\":2}\r")
        << "framing is byte-faithful; the JSON parser owns whitespace";
    EXPECT_FALSE(framer.tail(ln)) << "no partial bytes remain";
}

TEST(LineFramer, OversizedLineFailsOnceAndDiscardsUnbuffered)
{
    service::LineFramer framer(8);
    // 32 bytes without a newline: the verdict must arrive as soon as
    // the buffer exceeds the bound, and the rest of the line must be
    // dropped without growing the buffer.
    const std::string big(32, 'x');
    framer.feed(big.data(), big.size());
    service::LineFramer::Line ln;
    ASSERT_TRUE(framer.next(ln));
    EXPECT_TRUE(ln.oversized);
    EXPECT_EQ(ln.lineno, 1);
    EXPECT_TRUE(framer.discarding());
    EXPECT_LE(framer.buffered(), 8u) << "discard must not buffer the tail";

    // More tail bytes, then the newline ends the discard; the next
    // line frames normally with the next line number.
    framer.feed("yyyy\n{\"ok\":1}\n", 14);
    ASSERT_TRUE(framer.next(ln));
    EXPECT_FALSE(ln.oversized);
    EXPECT_EQ(ln.text, "{\"ok\":1}");
    EXPECT_EQ(ln.lineno, 2);
    EXPECT_FALSE(framer.next(ln));
}

TEST(LineFramer, TailYieldsTheTruncatedFinalLine)
{
    service::LineFramer framer(64);
    framer.feed("{\"id\":\"a\"}\n{\"id\":\"tr", 20);
    service::LineFramer::Line ln;
    ASSERT_TRUE(framer.next(ln));
    EXPECT_EQ(ln.text, "{\"id\":\"a\"}");
    ASSERT_FALSE(framer.next(ln));
    ASSERT_TRUE(framer.tail(ln)) << "a truncated final line is a request";
    EXPECT_EQ(ln.text, "{\"id\":\"tr");
    EXPECT_EQ(ln.lineno, 2);
    EXPECT_FALSE(framer.tail(ln)) << "tail consumes";
}

// -------------------------------------------------- socket front end

namespace
{

/** The stable (non-timing) result fields must match the batch-mode
 * result bit for bit; %.17g serialization round-trips doubles. */
void
expectMatchesBatch(const service::Json &line,
                   const service::SolveResult &r)
{
    EXPECT_EQ(line.getString("status", ""), r.status) << r.id;
    EXPECT_EQ(line.getString("problem", ""), r.problem) << r.id;
    EXPECT_EQ(line.getString("solver", ""), r.solver) << r.id;
    EXPECT_EQ(line.getString("dist_hash", ""),
              service::distHashHex(r.distHash))
        << r.id << ": distribution must be bit-identical";
    const double cost = line.getNumber("best_cost", 0.0);
    EXPECT_EQ(0, std::memcmp(&cost, &r.bestCost, sizeof(double))) << r.id;
    const double top = line.getNumber("top_probability", -1.0);
    EXPECT_EQ(0, std::memcmp(&top, &r.topProbability, sizeof(double)))
        << r.id;
    EXPECT_EQ(line.getNumber("evaluations", -1.0),
              static_cast<double>(r.evaluations))
        << r.id;
    EXPECT_EQ(line.getNumber("iterations", -1.0),
              static_cast<double>(r.iterations))
        << r.id;
}

/** Raw loopback TCP connect for the wire-torture tests. @p rcvbufBytes
 * shrinks SO_RCVBUF before connect (it must be set pre-handshake to
 * bound the advertised window) so the server's send side fills fast. */
int
rawConnect(int port, int rcvbufBytes = 0)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbufBytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes,
                     sizeof rcvbufBytes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof addr),
              0);
    return fd;
}

/** Blocking send of every byte of @p bytes. */
void
rawSendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const auto n =
            ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << "send failed at offset " << off;
        off += static_cast<std::size_t>(n);
    }
}

/**
 * Read until @p nlines complete lines arrived (newline stripped) or
 * @p timeout_ms passed. The first @p slowPrefixBytes bytes are read one
 * byte per @p slowDelayMs — the torture-test slow-reader pattern that
 * keeps the server's send side trickling while results queue behind it.
 */
std::vector<std::string>
rawReadLines(int fd, int nlines, int timeout_ms, int slowPrefixBytes = 0,
             int slowDelayMs = 10)
{
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::milliseconds(timeout_ms);
    std::vector<std::string> lines;
    std::string buf;
    std::size_t start = 0;
    long bytes_read = 0;
    char chunk[4096];
    while (static_cast<int>(lines.size()) < nlines
           && std::chrono::steady_clock::now() < deadline) {
        const bool slow = bytes_read < slowPrefixBytes;
        timeval tv{};
        tv.tv_sec = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        const auto n = ::recv(fd, chunk, slow ? 1 : sizeof chunk, 0);
        if (n == 0)
            break; // server closed
        if (n < 0)
            continue; // timeout tick: re-check the deadline
        bytes_read += n;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos;
        while ((pos = buf.find('\n', start)) != std::string::npos) {
            lines.push_back(buf.substr(start, pos - start));
            start = pos + 1;
        }
        if (slow)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slowDelayMs));
    }
    return lines;
}

} // namespace

TEST(SocketFrontEnd, BitIdenticalToBatchUnderConcurrentConnections)
{
    const auto jobs = determinismSuite(); // 13 jobs, 3 structures

    // Batch-mode reference: the cross-checked ground truth.
    service::ServiceOptions so;
    so.workers = 2;
    const auto batch = service::SolveService(so).solveAll(jobs);

    // Socket mode: a fresh service behind the TCP front-end, the same
    // jobs spread over 4 concurrent client connections.
    service::SolveService svc(so);
    service::Server server(svc, service::ServerOptions{});
    server.start();

    constexpr int kConns = 4;
    std::mutex mu;
    std::map<std::string, std::string> lines; // id -> raw result line
    std::vector<std::thread> clients;
    for (int c = 0; c < kConns; ++c) {
        clients.emplace_back([&, c] {
            service::JsonlClient client(server.port());
            int sent = 0;
            for (std::size_t i = static_cast<std::size_t>(c);
                 i < jobs.size(); i += kConns) {
                client.sendLine(service::jobToJsonRequest(jobs[i]).dump());
                ++sent;
            }
            client.shutdownWrite();
            for (int i = 0; i < sent; ++i) {
                std::string line;
                ASSERT_TRUE(client.readLine(line, 60000))
                    << "conn " << c << " result " << i;
                const auto v = service::Json::parse(line);
                std::lock_guard<std::mutex> lock(mu);
                lines.emplace(v.getString("id", ""), line);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    server.drain();

    ASSERT_EQ(lines.size(), jobs.size());
    for (const auto &expect : batch) {
        ASSERT_EQ(expect.status, "ok") << expect.id;
        const auto it = lines.find(expect.id);
        ASSERT_NE(it, lines.end()) << expect.id;
        expectMatchesBatch(service::Json::parse(it->second), expect);
    }
    EXPECT_EQ(books(svc, "server.connections_accepted"), kConns);
    EXPECT_EQ(books(svc, "jobs.submitted"), static_cast<double>(jobs.size()));
    EXPECT_EQ(books(svc, "server.results_written"),
              static_cast<double>(jobs.size()));
    EXPECT_EQ(books(svc, "server.rejected"), 0.0);
}

TEST(SocketFrontEnd, HostileInputFailsPerLineAndKeepsTheConnection)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::ServerOptions opts;
    opts.limits.maxLineBytes = 4096;
    service::Server server(svc, opts);
    server.start();

    service::JsonlClient client(server.port());
    client.sendLine("\x01\x02 binary garbage");          // line 1
    client.sendLine("{\"id\":\"\xff\xfe\"}");            // line 2: UTF-8
    client.sendLine(std::string(9000, 'x'));             // line 3: oversized
    client.sendLine(R"({"id":"good","scale":"F1","iters":5})"); // line 4
    client.sendRaw(R"({"id":"trunc","scale":"F1")");     // line 5: truncated
    client.shutdownWrite();

    std::map<std::string, service::Json> by_id;
    for (int i = 0; i < 5; ++i) {
        std::string line;
        ASSERT_TRUE(client.readLine(line, 60000)) << "response " << i;
        auto v = service::Json::parse(line);
        by_id.emplace(v.getString("id", ""), std::move(v));
    }
    ASSERT_EQ(by_id.size(), 5u);
    EXPECT_EQ(by_id.at("line-1").getString("status", ""), "error");
    EXPECT_NE(by_id.at("line-2").getString("error", "").find("UTF-8"),
              std::string::npos);
    EXPECT_NE(by_id.at("line-3").getString("error", "").find("size limit"),
              std::string::npos);
    EXPECT_EQ(by_id.at("good").getString("status", ""), "ok")
        << "a valid job after garbage must still run";
    EXPECT_EQ(by_id.at("line-5").getString("status", ""), "error")
        << "truncated final line must be answered, not dropped";

    server.drain();
    EXPECT_EQ(books(svc, "requests.line_errors"), 4.0);
    EXPECT_EQ(books(svc, "jobs.submitted"), 1.0);
}

TEST(SocketFrontEnd, OverloadAnswersRejectedInsteadOfQueueing)
{
    // One worker, in-flight bound 1: while the slow job occupies the
    // worker, every further request on the burst must be answered with
    // a status "rejected" line (the documented backpressure response).
    // The slow job runs on the dense unfused oracle ("fusion":false) so
    // its ~1 s hold does not depend on kernel speed.
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);
    service::ServerOptions opts;
    opts.maxInflight = 1;
    service::Server server(svc, opts);
    server.start();

    service::JsonlClient client(server.port());
    std::string burst;
    burst += R"({"id":"slow","scale":"K3","iters":200,"fusion":false})"
             "\n";
    burst += R"({"id":"q1","scale":"F1","iters":5})" "\n";
    burst += R"({"id":"q2","scale":"F1","iters":5})" "\n";
    client.sendRaw(burst);

    int ok = 0, rejected = 0;
    for (int i = 0; i < 3; ++i) {
        std::string line;
        ASSERT_TRUE(client.readLine(line, 60000)) << "response " << i;
        const auto v = service::Json::parse(line);
        const auto status = v.getString("status", "");
        if (status == "ok") {
            ++ok;
            EXPECT_EQ(v.getString("id", ""), "slow");
        } else {
            ++rejected;
            EXPECT_EQ(status, "rejected");
            EXPECT_NE(v.getString("error", "").find("capacity"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(rejected, 2);
    client.shutdownWrite(); // drain need not wait out the close linger
    server.drain();
    EXPECT_EQ(books(svc, "server.rejected"), 2.0);
}

TEST(SocketFrontEnd, ConnectionCapRefusesWithARejectedLine)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::ServerOptions opts;
    opts.maxConnections = 1;
    service::Server server(svc, opts);
    server.start();

    service::JsonlClient first(server.port()); // holds the only slot
    // Give the accept loop a tick to register the first connection.
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(10);
    while (books(svc, "server.connections_open") < 1
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(books(svc, "server.connections_open"), 1.0);

    service::JsonlClient second(server.port());
    std::string line;
    ASSERT_TRUE(second.readLine(line, 60000));
    const auto v = service::Json::parse(line);
    EXPECT_EQ(v.getString("status", ""), "rejected");
    EXPECT_NE(v.getString("error", "").find("connection capacity"),
              std::string::npos);
    EXPECT_FALSE(second.readLine(line, 5000)) << "refused conn must close";

    // The surviving connection still works.
    first.sendLine(R"({"id":"a","scale":"F1","iters":5})");
    ASSERT_TRUE(first.readLine(line, 60000));
    EXPECT_EQ(service::Json::parse(line).getString("status", ""), "ok");
    first.shutdownWrite();
    server.drain();
    EXPECT_EQ(books(svc, "server.connections_rejected"), 1.0);
}

TEST(SocketFrontEnd, IdleTimeoutClosesQuietConnections)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::ServerOptions opts;
    opts.idleTimeoutMs = 150;
    service::Server server(svc, opts);
    server.start();

    service::JsonlClient client(server.port());
    client.sendLine(R"({"id":"a","scale":"F1","iters":5})");
    std::string line;
    ASSERT_TRUE(client.readLine(line, 60000));
    EXPECT_EQ(service::Json::parse(line).getString("status", ""), "ok");

    // No further traffic: the server must close the connection (EOF on
    // our side), not hold it forever.
    EXPECT_FALSE(client.readLine(line, 10000));
    client.shutdownWrite();
    server.drain();
    EXPECT_EQ(books(svc, "server.idle_closes"), 1.0);
    EXPECT_EQ(books(svc, "server.connections_open"), 0.0);
}

TEST(SocketFrontEnd, GracefulDrainCompletesAcceptedJobs)
{
    service::ServiceOptions so;
    so.workers = 2;
    service::SolveService svc(so);
    service::Server server(svc, service::ServerOptions{});
    server.start();

    service::JsonlClient client(server.port());
    std::string burst;
    burst += R"({"id":"d1","scale":"F1","case":0,"seed":5,"iters":10})" "\n";
    burst += R"({"id":"d2","scale":"F1","case":1,"seed":6,"iters":10})" "\n";
    burst += R"({"id":"d3","scale":"K1","case":0,"seed":7,"iters":10})" "\n";
    client.sendRaw(burst);

    // Wait until all three are accepted, then drain mid-flight: every
    // accepted job must finish and its result reach the wire.
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(30);
    while (books(svc, "jobs.submitted") < 3
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(books(svc, "jobs.submitted"), 3.0);
    client.shutdownWrite();
    server.requestStop();
    server.drain();

    int ok = 0;
    for (int i = 0; i < 3; ++i) {
        std::string line;
        ASSERT_TRUE(client.readLine(line, 10000)) << "result " << i;
        if (service::Json::parse(line).getString("status", "") == "ok")
            ++ok;
    }
    EXPECT_EQ(ok, 3);
    EXPECT_EQ(books(svc, "server.results_written"), 3.0);

    // The listener is gone: new connections must be refused.
    EXPECT_THROW(service::JsonlClient{server.port()}, FatalError);
}

// -------------------------------------- cancellation & fault injection

namespace
{

/** A job whose optimizer loop runs far longer (tens of seconds) than
 * any test step, so a cancel/deadline/disconnect always lands
 * mid-execution — while iteration boundaries stay milliseconds apart,
 * so the engine's token polls still stop it fast. The deep ansatz on
 * the dense unfused oracle ("fusion":false) sets its length; the
 * feasible-subspace backend would converge it in well under a second,
 * so the pin keeps the hold independent of kernel speed. */
service::SolveJob
longJob(const std::string &id)
{
    service::SolveJob job;
    job.id = id;
    job.scale = "K3";
    job.layers = 6;
    job.seed = 11;
    job.maxIterations = 1 << 20;
    job.fusion = false;
    return job;
}

service::SolveJob
quickJob(const std::string &id, std::uint64_t seed = 11)
{
    service::SolveJob job;
    job.id = id;
    job.scale = "F1";
    job.seed = seed;
    job.maxIterations = 10;
    return job;
}

/** Spin until @p done() or the deadline; false on timeout. */
template <typename Pred>
bool
waitFor(Pred done, int timeout_ms = 30000)
{
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::milliseconds(timeout_ms);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

} // namespace

TEST(FaultSpec, ParsesGrammarAndRejectsMalformedClauses)
{
    const auto spec =
        service::parseFaultSpec("stall=0.5:400,alloc_fail=1,seed=9");
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_DOUBLE_EQ(spec.stallProbability, 0.5);
    EXPECT_EQ(spec.stallMs, 400);
    EXPECT_DOUBLE_EQ(spec.allocFailProbability, 1.0);
    EXPECT_TRUE(spec.enabled());

    EXPECT_FALSE(service::FaultSpec{}.enabled());
    EXPECT_FALSE(service::parseFaultSpec("stall=0").enabled());

    EXPECT_THROW(service::parseFaultSpec("bogus=1"), FatalError);
    // The wire sites are gone: nothing fired them.
    EXPECT_THROW(service::parseFaultSpec("conn_reset=0.1"), FatalError);
    EXPECT_THROW(service::parseFaultSpec("read_delay=0.5"), FatalError);
    EXPECT_THROW(service::parseFaultSpec("stall=2"), FatalError);
    EXPECT_THROW(service::parseFaultSpec("stall=-0.1"), FatalError);
    EXPECT_THROW(service::parseFaultSpec("stall"), FatalError);
    EXPECT_THROW(service::parseFaultSpec("seed=x"), FatalError);
    EXPECT_THROW(service::parseFaultSpec("alloc_fail=0.5:100"), FatalError)
        << "a duration on a site without one must be rejected";
}

TEST(FaultInjector, DecisionSequenceIsDeterministicPerSeed)
{
    auto spec = service::parseFaultSpec("stall=0.37,seed=42");
    service::FaultInjector a(spec), b(spec);
    std::vector<bool> seq_a, seq_b;
    for (int i = 0; i < 256; ++i) {
        seq_a.push_back(a.fire(service::FaultInjector::Site::WorkerStall));
        seq_b.push_back(b.fire(service::FaultInjector::Site::WorkerStall));
    }
    EXPECT_EQ(seq_a, seq_b)
        << "same spec must replay the same fault sequence";
    const auto fired = std::count(seq_a.begin(), seq_a.end(), true);
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 256);

    spec.seed = 43;
    service::FaultInjector c(spec);
    std::vector<bool> seq_c;
    for (int i = 0; i < 256; ++i)
        seq_c.push_back(c.fire(service::FaultInjector::Site::WorkerStall));
    EXPECT_NE(seq_a, seq_c) << "a different seed must shuffle decisions";
}

TEST(Cancellation, UnfiredTokenIsABitwiseNoOp)
{
    // The checkpoint hook must never perturb the numeric or random
    // streams: a solve polled by a token that never fires is
    // bit-identical to an unpolled one.
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;
    const auto plain = svc.execute(quickJob("plain"), ctx);
    ASSERT_EQ(plain.status, "ok") << plain.error;

    service::CancelToken token;
    const auto polled = svc.execute(quickJob("polled"), ctx, &token);
    ASSERT_EQ(polled.status, "ok") << polled.error;
    EXPECT_EQ(plain.distHash, polled.distHash);
    EXPECT_EQ(0, std::memcmp(&plain.bestCost, &polled.bestCost,
                             sizeof(double)));
    EXPECT_EQ(plain.evaluations, polled.evaluations);
}

TEST(Cancellation, CancelBeforeStartAnswersCancelled)
{
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);

    std::mutex mu;
    std::map<std::string, service::SolveResult> results;
    const auto collect = [&](const service::SolveResult &r) {
        std::lock_guard<std::mutex> lock(mu);
        results[r.id] = r;
    };

    svc.submit(longJob("blocker"), collect);
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));
    svc.submit(quickJob("victim"), collect);
    ASSERT_TRUE(waitFor([&] { return svc.health().queued >= 1; }));

    EXPECT_EQ(svc.cancel("victim"), 1);
    EXPECT_EQ(svc.cancel("no-such-job"), 0);
    EXPECT_EQ(svc.cancel("blocker"), 1);
    svc.drain();

    ASSERT_EQ(results.count("victim"), 1u);
    EXPECT_EQ(results["victim"].status, "cancelled");
    EXPECT_NE(results["victim"].error.find("before execution"),
              std::string::npos);
    EXPECT_EQ(results["blocker"].status, "cancelled");
    EXPECT_EQ(svc.health().cancelledJobs, 2u);
}

TEST(Cancellation, MidExecutionCancelStopsFastAndFreesTheWorker)
{
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);

    service::SolveResult out;
    std::atomic<bool> done{false};
    svc.submit(longJob("victim"), [&](const service::SolveResult &r) {
        out = r;
        done = true;
    });
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));
    // Let the job get past compilation and into the optimizer loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    EXPECT_EQ(svc.cancel("victim"), 1);
    ASSERT_TRUE(waitFor([&] { return done.load(); }))
        << "a cancelled job must unwind within iterations, not run out "
           "its full budget";
    EXPECT_EQ(out.status, "cancelled");
    EXPECT_NE(out.error.find("cancelled"), std::string::npos);

    // The worker survives the unwind: the very next job must solve.
    const auto after = svc.solveAll({quickJob("after")});
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].status, "ok") << after[0].error;
}

TEST(Cancellation, DeadlineFiresMidExecutionAndWorkerIsReusable)
{
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);

    auto job = longJob("deadline");
    job.deadlineMs = 400;
    service::SolveResult out;
    std::atomic<bool> done{false};
    const auto t0 = std::chrono::steady_clock::now();
    svc.submit(job, [&](const service::SolveResult &r) {
        out = r;
        done = true;
    });
    ASSERT_TRUE(waitFor([&] { return done.load(); }, 60000));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    EXPECT_EQ(out.status, "expired");
    EXPECT_NE(out.error.find("deadline exceeded"), std::string::npos);
    EXPECT_GE(out.worker, 0) << "the job must have reached a worker";
    // 1 << 20 iterations would run for hours; stopping within a minute
    // proves the deadline cut execution short at a polling boundary.
    EXPECT_LT(elapsed, 60000);
    EXPECT_EQ(svc.health().expiredJobs, 1u);

    const auto after = svc.solveAll({quickJob("after")});
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].status, "ok") << after[0].error;
}

TEST(Cancellation, SiblingsOfACancelledJobStayBitIdentical)
{
    // Cancelling one job must not perturb concurrently running jobs:
    // siblings must match a fresh run without any cancellation, bit
    // for bit.
    const auto s1 = quickJob("s1", 11);
    const auto s2 = quickJob("s2", 13);
    service::ServiceOptions so;
    so.workers = 2;
    const auto baseline = service::SolveService(so).solveAll({s1, s2});
    ASSERT_EQ(baseline.size(), 2u);

    service::SolveService svc(so);
    std::mutex mu;
    std::map<std::string, service::SolveResult> results;
    const auto collect = [&](const service::SolveResult &r) {
        std::lock_guard<std::mutex> lock(mu);
        results[r.id] = r;
    };
    svc.submit(longJob("victim"), collect);
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));
    svc.submit(s1, collect);
    svc.submit(s2, collect);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(svc.cancel("victim"), 1);
    svc.drain();

    EXPECT_EQ(results["victim"].status, "cancelled");
    for (const auto &expect : baseline) {
        ASSERT_EQ(results.count(expect.id), 1u) << expect.id;
        const auto &got = results[expect.id];
        ASSERT_EQ(got.status, "ok") << got.error;
        EXPECT_EQ(got.distHash, expect.distHash) << expect.id;
        EXPECT_EQ(0, std::memcmp(&got.bestCost, &expect.bestCost,
                                 sizeof(double)))
            << expect.id;
        EXPECT_EQ(got.evaluations, expect.evaluations) << expect.id;
    }
}

TEST(FaultInjection, InjectedStallsAreFlaggedExactlyOncePerJob)
{
    // Two jobs on one worker, each stalled 400 ms against a 50 ms
    // threshold: probes during the first stall count it once however
    // often they look, the second is counted when it finishes with no
    // probe watching, and the count is exact after the drain.
    service::FaultInjector fault(service::parseFaultSpec("stall=1:400"));
    service::ServiceOptions so;
    so.workers = 1;
    so.fault = &fault;
    so.stallThresholdMs = 50;
    service::SolveService svc(so);

    std::mutex mu;
    std::vector<service::SolveResult> results;
    const auto collect = [&](const service::SolveResult &r) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(r);
    };
    svc.submit(quickJob("stalled1"), collect);
    svc.submit(quickJob("stalled2"), collect);
    ASSERT_TRUE(waitFor([&] { return svc.health().stalledNow == 1; }));
    for (int probe = 0; probe < 2; ++probe) {
        const auto h = svc.health();
        EXPECT_EQ(h.stalledNow, 1) << "probe " << probe;
        EXPECT_EQ(h.stallsFlagged, 1u)
            << "probe " << probe << ": one stuck job counts once";
    }
    svc.drain();

    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results)
        EXPECT_EQ(r.status, "ok")
            << "a stall delays the job, it must not fail it: " << r.error;
    EXPECT_EQ(books(svc, "faults.stalls"), 2.0);
    EXPECT_EQ(books(svc, "scheduler.stalls_flagged"), 2.0);
    EXPECT_EQ(svc.health().stallsFlagged, 2u);
    EXPECT_EQ(svc.health().stalledNow, 0);

    // Threshold 0 counts nothing, however long a job stalls.
    service::FaultInjector quiet_fault(
        service::parseFaultSpec("stall=1:100"));
    so.fault = &quiet_fault;
    so.stallThresholdMs = 0;
    service::SolveService quiet(so);
    ASSERT_EQ(quiet.solveAll({quickJob("unwatched")})[0].status, "ok");
    EXPECT_EQ(books(quiet, "faults.stalls"), 1.0);
    EXPECT_EQ(books(quiet, "scheduler.stalls_flagged"), 0.0);
}

TEST(FaultInjection, DestroyingTheServiceFinishesQueuedStalledJobs)
{
    // ~SolveService runs every job still queued. Each of these stalls
    // past the threshold and so flags itself as it finishes: the stall
    // books must outlive the scheduler's wind-down (the sanitizer jobs
    // see a read of freed memory otherwise).
    service::FaultInjector fault(service::parseFaultSpec("stall=1:20"));
    std::atomic<int> ok{0};
    {
        service::ServiceOptions so;
        so.workers = 1;
        so.fault = &fault;
        so.stallThresholdMs = 1;
        service::SolveService svc(so);
        for (int i = 0; i < 3; ++i)
            svc.submit(quickJob("q" + std::to_string(i)),
                       [&](const service::SolveResult &r) {
                           ok += r.status == "ok" ? 1 : 0;
                       });
    }
    EXPECT_EQ(ok.load(), 3);
}

TEST(FaultInjection, InjectedAllocFailureFailsTheJobNotTheWorker)
{
    service::FaultInjector fault(service::parseFaultSpec("alloc_fail=1"));
    service::ServiceOptions so;
    so.workers = 1;
    so.fault = &fault;
    service::SolveService svc(so);

    const auto results = svc.solveAll({quickJob("doomed")});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, "error");
    EXPECT_NE(results[0].error.find("injected allocation failure"),
              std::string::npos);
    EXPECT_EQ(books(svc, "faults.alloc_fails"), 1.0);
}

TEST(RequestLine, ClassifiesControlRequests)
{
    const auto health = service::parseRequestLine(R"({"type":"health"})", 1);
    ASSERT_TRUE(health.ok);
    EXPECT_EQ(health.control, service::ControlKind::Health);

    const auto cancel = service::parseRequestLine(
        R"({"type":"cancel","id":"job-7"})", 2);
    ASSERT_TRUE(cancel.ok);
    EXPECT_EQ(cancel.control, service::ControlKind::Cancel);
    EXPECT_EQ(cancel.cancelId, "job-7");

    const auto no_id = service::parseRequestLine(R"({"type":"cancel"})", 3);
    ASSERT_FALSE(no_id.ok);
    EXPECT_NE(no_id.error.error.find("non-empty string 'id'"),
              std::string::npos);

    const auto unknown =
        service::parseRequestLine(R"({"type":"reboot"})", 4);
    ASSERT_FALSE(unknown.ok);
    EXPECT_NE(unknown.error.error.find("unknown request type"),
              std::string::npos);
}

TEST(SocketFrontEnd, CancelAndHealthControlRequests)
{
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);
    service::Server server(svc, service::ServerOptions{});
    server.start();

    service::JsonlClient submitter(server.port());
    submitter.sendLine(service::jobToJsonRequest(longJob("slow")).dump());
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));

    // A second connection probes and cancels — the control plane must
    // work even while the only worker is busy.
    service::JsonlClient control(server.port());
    control.sendLine(R"({"type":"health"})");
    std::string line;
    ASSERT_TRUE(control.readLine(line, 30000));
    const auto h = service::Json::parse(line);
    EXPECT_EQ(h.getString("type", ""), "health");
    EXPECT_EQ(h.getString("status", ""), "ok");
    EXPECT_EQ(h.getNumber("workers", 0.0), 1.0);
    EXPECT_GE(h.getNumber("inflight", 0.0), 1.0);
    EXPECT_GE(h.getNumber("connections_open", 0.0), 2.0);

    control.sendLine(R"({"type":"cancel","id":"slow"})");
    ASSERT_TRUE(control.readLine(line, 30000));
    const auto ack = service::Json::parse(line);
    EXPECT_EQ(ack.getString("type", ""), "cancel");
    EXPECT_EQ(ack.getString("id", ""), "slow");
    EXPECT_EQ(ack.getNumber("cancelled", 0.0), 1.0);

    // The submitter gets its job's terminal "cancelled" result.
    ASSERT_TRUE(submitter.readLine(line, 60000));
    const auto result = service::Json::parse(line);
    EXPECT_EQ(result.getString("id", ""), "slow");
    EXPECT_EQ(result.getString("status", ""), "cancelled");

    submitter.shutdownWrite();
    control.shutdownWrite();
    server.drain();
    EXPECT_EQ(books(svc, "requests.cancel"), 1.0);
    EXPECT_EQ(books(svc, "requests.health"), 1.0);
    EXPECT_EQ(books(svc, "jobs.cancelled"), 1.0);
}

TEST(SocketFrontEnd, ClientDisconnectCancelsItsJobsAndFreesTheWorker)
{
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);
    service::Server server(svc, service::ServerOptions{});
    server.start();

    {
        service::JsonlClient doomed(server.port());
        doomed.sendLine(
            service::jobToJsonRequest(longJob("orphan")).dump());
        ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));
        // Abortive close (RST): the client vanished mid-job. A
        // half-close (EOF) must NOT trigger this — patient clients
        // half-close after their last request and wait for results.
        doomed.abortConnection();
    }
    ASSERT_TRUE(waitFor([&] { return svc.health().inflight == 0; }))
        << "the orphaned job must be cancelled, not run to completion";

    // The freed worker serves the next connection immediately.
    service::JsonlClient next(server.port());
    next.sendLine(service::jobToJsonRequest(quickJob("after")).dump());
    std::string line;
    ASSERT_TRUE(next.readLine(line, 60000));
    EXPECT_EQ(service::Json::parse(line).getString("status", ""), "ok");

    next.shutdownWrite();
    server.drain();
    EXPECT_GE(books(svc, "server.disconnect_cancels"), 1.0);
    EXPECT_EQ(books(svc, "jobs.cancelled"), 1.0);
    EXPECT_EQ(svc.health().cancelledJobs, 1u);
}

TEST(BatchStream, AnswersControlRequestsInline)
{
    std::istringstream in("{\"type\":\"health\"}\n"
                          "{\"type\":\"cancel\",\"id\":\"nothing\"}\n"
                          "{\"id\":\"j\",\"scale\":\"F1\",\"iters\":5}\n");
    std::ostringstream out;
    service::SolveService svc{service::ServiceOptions{}};
    service::runJsonlStream(in, out, svc);
    // The same requests.* books the socket keeps.
    EXPECT_EQ(books(svc, "jobs.submitted"), 1.0);
    EXPECT_EQ(books(svc, "requests.health"), 1.0);
    EXPECT_EQ(books(svc, "requests.cancel"), 1.0);
    EXPECT_EQ(books(svc, "requests.stats"), 0.0);
    EXPECT_EQ(books(svc, "requests.line_errors"), 0.0);

    int health_lines = 0, cancel_lines = 0, ok_lines = 0;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        const auto v = service::Json::parse(line);
        if (v.getString("type", "") == "health")
            ++health_lines;
        else if (v.getString("type", "") == "cancel") {
            ++cancel_lines;
            EXPECT_EQ(v.getNumber("cancelled", -1.0), 0.0);
        } else if (v.getString("status", "") == "ok")
            ++ok_lines;
    }
    EXPECT_EQ(health_lines, 1);
    EXPECT_EQ(cancel_lines, 1);
    EXPECT_EQ(ok_lines, 1);
}

// ------------------------------------------------------ observability

TEST(RequestLine, ClassifiesStatsControlRequest)
{
    const auto stats = service::parseRequestLine(R"({"type":"stats"})", 1);
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.control, service::ControlKind::Stats);
}

TEST(SocketFrontEnd, StatsProbeJsonShapeOverSocket)
{
    service::ServiceOptions so;
    so.workers = 2;
    service::SolveService svc(so);
    service::Server server(svc, service::ServerOptions{});
    server.start();

    // Two jobs through the wire, then the probe reads the registry.
    service::JsonlClient jobs(server.port());
    jobs.sendLine(service::jobToJsonRequest(quickJob("s1", 11)).dump());
    jobs.sendLine(service::jobToJsonRequest(quickJob("s2", 12)).dump());
    jobs.shutdownWrite();
    std::string line;
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(jobs.readLine(line, 60000));

    service::JsonlClient probe(server.port());
    probe.sendLine(R"({"type":"stats"})");
    ASSERT_TRUE(probe.readLine(line, 30000));
    const auto v = service::Json::parse(line);
    EXPECT_EQ(v.getString("type", ""), "stats");
    EXPECT_EQ(v.getString("status", ""), "ok");
    std::vector<std::string> sections;
    for (const auto &[key, value] : v.members())
        sections.push_back(key);
    ASSERT_EQ(sections,
              (std::vector<std::string>{"type", "status", "counters",
                                        "gauges", "histograms", "cache",
                                        "registry", "scheduler"}))
        << "no server section: the front-end's counts are registry "
           "counters";

    const auto *counters = v.find("counters");
    EXPECT_DOUBLE_EQ(counters->getNumber("jobs.submitted", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(counters->getNumber("jobs.completed", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(counters->getNumber("jobs.ok", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(counters->getNumber("requests.stats", -1.0), 1.0)
        << "a stats probe counts itself";
    EXPECT_DOUBLE_EQ(
        counters->getNumber("server.connections_accepted", -1.0), 2.0);

    // Stage histograms reconcile with the counters: every completed
    // job recorded exactly one queue and one total observation.
    const auto *hists = v.find("histograms");
    for (const char *name : {"stage.queue_ms", "stage.solve_ms",
                             "stage.total_ms"})
        EXPECT_DOUBLE_EQ(hists->find(name)->getNumber("count", -1.0), 2.0)
            << name;

    EXPECT_DOUBLE_EQ(
        v.find("scheduler")->getNumber("workers", -1.0), 2.0);
    probe.shutdownWrite();
    server.drain();
    EXPECT_EQ(books(svc, "requests.stats"), 1.0);
}

TEST(SocketFrontEnd, StatsProbeNeverConsumesAnInflightSlot)
{
    // One worker, in-flight bound 1, the worker pinned by a slow job:
    // a stats probe must still answer "ok" (like health, it bypasses
    // the admission bound entirely).
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);
    service::ServerOptions server_options;
    server_options.maxInflight = 1;
    service::Server server(svc, server_options);
    server.start();

    service::JsonlClient submitter(server.port());
    submitter.sendLine(service::jobToJsonRequest(longJob("slow")).dump());
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));

    service::JsonlClient probe(server.port());
    probe.sendLine(R"({"type":"stats"})");
    std::string line;
    ASSERT_TRUE(probe.readLine(line, 30000));
    const auto v = service::Json::parse(line);
    EXPECT_EQ(v.getString("type", ""), "stats");
    EXPECT_EQ(v.getString("status", ""), "ok");
    EXPECT_DOUBLE_EQ(
        v.find("gauges")->getNumber("jobs.inflight", -1.0), 1.0);

    probe.sendLine(R"({"type":"cancel","id":"slow"})");
    ASSERT_TRUE(probe.readLine(line, 30000));
    submitter.shutdownWrite();
    probe.shutdownWrite();
    server.drain();
    EXPECT_EQ(books(svc, "server.rejected"), 0.0)
        << "the probe must not have been counted against maxInflight";
}

TEST(Observability, CountersReconcileUnderConcurrentLoad)
{
    service::ServiceOptions so;
    so.workers = 2;
    service::SolveService svc(so);

    // Every worker pinned by a long job so the victim deterministically
    // sits in the queue (an idle worker would race the queued-state
    // check and could start it), then the queued job is cancelled
    // before it starts, plus a concurrent burst of ok jobs from several
    // submitter threads: afterwards the counters and the stage
    // histograms must agree exactly — metrics are monotonic
    // increments, never samples.
    svc.submit(longJob("blocker0"));
    svc.submit(longJob("blocker1"));
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 2; }));
    svc.submit(quickJob("victim", 99));
    ASSERT_TRUE(waitFor([&] { return svc.health().queued >= 1; }));
    EXPECT_EQ(svc.cancel("victim"), 1);
    EXPECT_EQ(svc.cancel("blocker0"), 1);
    EXPECT_EQ(svc.cancel("blocker1"), 1);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                svc.submit(quickJob(
                    "c" + std::to_string(t) + "/" + std::to_string(i),
                    100 + static_cast<std::uint64_t>(t * kPerThread + i)));
        });
    for (auto &t : submitters)
        t.join();
    svc.drain();

    constexpr std::uint64_t kTotal = kThreads * kPerThread + 3;
    auto &m = svc.metrics();
    EXPECT_EQ(m.counter("jobs.submitted").value(), kTotal);
    EXPECT_EQ(m.counter("jobs.completed").value(), kTotal);
    EXPECT_EQ(m.counter("jobs.ok").value(), kTotal - 3);
    EXPECT_EQ(m.counter("jobs.cancelled").value(), 3u);
    EXPECT_EQ(m.counter("jobs.error").value(), 0u);
    EXPECT_EQ(m.counter("jobs.ok").value()
                  + m.counter("jobs.error").value()
                  + m.counter("jobs.cancelled").value()
                  + m.counter("jobs.expired").value(),
              m.counter("jobs.completed").value());
    // Histogram counts are the same ground truth: one queue and one
    // total observation per completed job, one solve observation per
    // started job (the pre-start cancellation never reached a worker).
    EXPECT_EQ(m.histogram("stage.queue_ms").snapshot().count, kTotal);
    EXPECT_EQ(m.histogram("stage.total_ms").snapshot().count, kTotal);
    EXPECT_EQ(m.histogram("stage.solve_ms").snapshot().count,
              m.counter("jobs.started").value());
    EXPECT_DOUBLE_EQ(m.gauge("jobs.inflight").value(), 0.0);
    // The health probe reads the same books, not a second tally.
    const auto health = svc.health();
    EXPECT_EQ(health.cancelledJobs, m.counter("jobs.cancelled").value());
    EXPECT_EQ(health.expiredJobs, m.counter("jobs.expired").value());
}

TEST(Observability, KernelMixFlowsIntoMetricsAndTrace)
{
    // Every solve drives the engine's kernels through a per-job counter
    // sink; after a job the aggregated per-kernel calls/amps counters
    // and the modeled traffic totals must be visible in the registry,
    // and a traced job must carry the mix as a "kernels" span note.
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;
    obs::Trace trace(std::chrono::steady_clock::now());
    const auto r = svc.execute(quickJob("mix"), ctx, nullptr, &trace);
    ASSERT_EQ(r.status, "ok");

    auto &m = svc.metrics();
    EXPECT_GT(m.counter("kernels.bytes").value(), 0u);
    EXPECT_GT(m.counter("kernels.flops").value(), 0u);
    // The QAOA engine cannot evaluate an objective without at least
    // one expectation sweep; the per-kernel counters caught it.
    std::uint64_t amps = 0;
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const auto id = static_cast<obs::KernelId>(k);
        amps += m.counter(std::string("kernels.")
                          + obs::kernelName(id) + ".amps")
                    .value();
    }
    EXPECT_GT(amps, 0u);

    bool saw_kernels = false;
    for (const auto &span : trace.spans())
        if (span.name == "kernels") {
            saw_kernels = true;
            EXPECT_NE(span.note.find("bytes="), std::string::npos)
                << span.note;
        }
    EXPECT_TRUE(saw_kernels);
}

TEST(Observability, TraceSpansOrderedAndNestedOnTheWire)
{
    // Through the batch stream so the parse span is on the timeline
    // too: the trace rides the result line as a "trace" object.
    std::istringstream in(
        "{\"id\":\"t\",\"scale\":\"F1\",\"iters\":10,\"trace\":true}\n");
    std::ostringstream out;
    service::SolveService svc{service::ServiceOptions{}};
    service::runJsonlStream(in, out, svc);

    const auto v = service::Json::parse(out.str());
    ASSERT_EQ(v.getString("status", ""), "ok");
    const auto *trace = v.find("trace");
    ASSERT_NE(trace, nullptr);
    const auto &spans = trace->find("spans")->items();
    ASSERT_GE(spans.size(), 6u);

    // Expected pipeline order; "optimize", "transpile" and "sample"
    // nest inside "solve".
    std::vector<std::string> names;
    for (const auto &s : spans)
        names.push_back(s.getString("name", ""));
    const char *expected[] = {"parse",     "queue",  "resolve",
                              "compile",   "solve",  "optimize",
                              "transpile", "sample", "respond"};
    std::size_t at = 0;
    for (const char *name : expected) {
        const auto it = std::find(names.begin() + at, names.end(), name);
        ASSERT_NE(it, names.end()) << name << " missing or out of order";
        at = static_cast<std::size_t>(it - names.begin());
    }

    double prev_start = 0.0;
    std::map<std::string, std::pair<double, double>> bounds;
    for (const auto &s : spans) {
        const double start = s.getNumber("start_ms", -1.0);
        const double dur = s.getNumber("dur_ms", -1.0);
        EXPECT_GE(start, prev_start) << "spans must sort by start";
        EXPECT_GE(dur, 0.0);
        prev_start = start;
        bounds[s.getString("name", "")] = {start, start + dur};
    }
    // Nesting invariant: optimize, then transpile, then sample, one
    // after the other inside solve; everything inside [0, respond].
    EXPECT_GE(bounds["optimize"].first, bounds["solve"].first);
    EXPECT_LE(bounds["optimize"].second, bounds["transpile"].first);
    EXPECT_LE(bounds["transpile"].second, bounds["sample"].first);
    EXPECT_LE(bounds["sample"].second, bounds["solve"].second);
    EXPECT_LE(bounds["solve"].second, bounds["respond"].first);
    // The compile span carries the cache annotation (cold cache: miss).
    for (const auto &s : spans)
        if (s.getString("name", "") == "compile")
            EXPECT_EQ(s.getString("note", ""), "cache_miss");
}

TEST(Observability, NoisyJobsFoldOnlyTheOptimizerIntoOptimize)
{
    // The optimize span folds the optimizer's checkpoints alone: the
    // final circuits and the noisy trajectories run in their own
    // transpile and sample spans, so device noise leaves the optimize
    // note of an F1 job unchanged.
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;
    const auto notesOf = [&](const service::SolveJob &job) {
        obs::Trace trace(std::chrono::steady_clock::now());
        const auto r = svc.execute(job, ctx, nullptr, &trace);
        EXPECT_EQ(r.status, "ok") << r.error;
        std::map<std::string, std::string> notes;
        for (const auto &span : trace.spans())
            notes[span.name] = span.note;
        return notes;
    };
    service::SolveJob plain = quickJob("plain", 3);
    plain.maxIterations = 20;
    service::SolveJob noisy = plain;
    noisy.id = "noisy";
    noisy.device = "fez";
    noisy.shots = 256;
    const auto quiet = notesOf(plain);
    const auto loud = notesOf(noisy);
    ASSERT_EQ(quiet.count("optimize"), 1u);
    ASSERT_EQ(loud.count("optimize"), 1u);
    EXPECT_NE(quiet.at("optimize").find("checkpoints="), std::string::npos);
    EXPECT_EQ(loud.at("optimize"), quiet.at("optimize"));
    for (const char *name : {"transpile", "sample"}) {
        EXPECT_EQ(quiet.count(name), 1u) << name;
        EXPECT_EQ(loud.count(name), 1u) << name;
    }
}

TEST(Observability, TracingIsBitIdentical)
{
    // The answer must not depend on whether anyone watched it happen.
    const auto jobs = determinismSuite();
    service::ServiceOptions so;
    so.workers = 2;
    const auto plain = service::SolveService(so).solveAll(jobs);

    auto traced_jobs = jobs;
    for (auto &job : traced_jobs)
        job.trace = true;
    const auto traced = service::SolveService(so).solveAll(traced_jobs);

    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].status, "ok");
        EXPECT_EQ(plain[i].distHash, traced[i].distHash) << plain[i].id;
        EXPECT_EQ(std::memcmp(&plain[i].bestCost, &traced[i].bestCost,
                              sizeof(double)),
                  0)
            << plain[i].id;
        EXPECT_EQ(plain[i].trace, nullptr)
            << "untraced jobs must not allocate a trace";
        ASSERT_NE(traced[i].trace, nullptr);
        EXPECT_FALSE(traced[i].trace->spans().empty());
    }
}

TEST(BatchStream, AnswersStatsInline)
{
    std::istringstream in("{\"id\":\"j\",\"scale\":\"F1\",\"iters\":5}\n"
                          "{\"type\":\"stats\"}\n");
    std::ostringstream out;
    service::SolveService svc{service::ServiceOptions{}};
    service::runJsonlStream(in, out, svc);
    EXPECT_EQ(books(svc, "jobs.submitted"), 1.0);
    EXPECT_EQ(books(svc, "requests.stats"), 1.0);
    EXPECT_EQ(books(svc, "requests.health"), 0.0);

    bool saw_stats = false;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        const auto v = service::Json::parse(line);
        if (v.getString("type", "") != "stats")
            continue;
        saw_stats = true;
        // Batch mode answers control lines inline (without draining),
        // so the preceding job is submitted but may still be running.
        EXPECT_DOUBLE_EQ(
            v.find("counters")->getNumber("jobs.submitted", -1.0), 1.0);
        EXPECT_DOUBLE_EQ(
            v.find("counters")->getNumber("requests.stats", -1.0), 1.0)
            << "a stats probe counts itself, in batch mode too";
    }
    EXPECT_TRUE(saw_stats);
}

// ------------------------------------------------ wire torture tests

TEST(SocketFrontEnd, WireTortureBytewiseSplitsSlowReadsAndHalfCloses)
{
    // Three hostile clients at once, each violating a different framing
    // assumption. Every line must be answered on the connection that
    // sent it — per-line errors for garbage, results for jobs, no
    // cross-connection corruption.
    service::ServiceOptions so;
    so.workers = 2;
    service::SolveService svc(so);
    service::Server server(svc, service::ServerOptions{});
    server.start();
    const int port = server.port();

    std::vector<std::thread> clients;

    // Client 0: sends one byte at a time (every recv on the server sees
    // a 1-byte fragment) and reads the responses one byte per 10 ms for
    // the first 40 bytes — the pathological slow reader.
    clients.emplace_back([&] {
        const int fd = rawConnect(port);
        std::string req;
        req += "\x01\x02 binary garbage\n"; // line 1: per-line error
        req += service::jobToJsonRequest(quickJob("t0", 21)).dump() + "\n";
        for (char c : req)
            rawSendAll(fd, std::string(1, c));
        ::shutdown(fd, SHUT_WR);
        const auto lines =
            rawReadLines(fd, 2, 60000, /*slowPrefixBytes=*/40);
        ::close(fd);
        ASSERT_EQ(lines.size(), 2u);
        const auto err = service::Json::parse(lines[0]);
        EXPECT_EQ(err.getString("id", ""), "line-1");
        EXPECT_EQ(err.getString("status", ""), "error");
        const auto ok = service::Json::parse(lines[1]);
        EXPECT_EQ(ok.getString("id", ""), "t0");
        EXPECT_EQ(ok.getString("status", ""), "ok") << lines[1];
    });

    // Client 1: splits one JSON request across two TCP segments with a
    // pause in between, then half-closes before the response arrives
    // (a patient client's EOF must not cancel its job).
    clients.emplace_back([&] {
        service::JsonlClient client(port);
        const std::string line =
            service::jobToJsonRequest(quickJob("t1", 22)).dump();
        client.sendRaw(line.substr(0, line.size() / 2));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        client.sendRaw(line.substr(line.size() / 2) + "\n");
        client.shutdownWrite(); // mid-response half-close
        std::string out;
        ASSERT_TRUE(client.readLine(out, 60000));
        const auto v = service::Json::parse(out);
        EXPECT_EQ(v.getString("id", ""), "t1");
        EXPECT_EQ(v.getString("status", ""), "ok") << out;
    });

    // Client 2: pipelines two jobs plus a truncated final line and
    // half-closes; the tail must be answered as a request, the jobs
    // must both run.
    clients.emplace_back([&] {
        service::JsonlClient client(port);
        client.sendLine(service::jobToJsonRequest(quickJob("t2a", 23)).dump());
        client.sendLine(service::jobToJsonRequest(quickJob("t2b", 24)).dump());
        client.sendRaw(R"({"id":"t2c","scale":"F1)"); // no newline
        client.shutdownWrite();
        std::map<std::string, std::string> by_id;
        for (int i = 0; i < 3; ++i) {
            std::string out;
            ASSERT_TRUE(client.readLine(out, 60000)) << "response " << i;
            by_id[service::Json::parse(out).getString("id", "")] = out;
        }
        ASSERT_EQ(by_id.count("t2a"), 1u);
        ASSERT_EQ(by_id.count("t2b"), 1u);
        ASSERT_EQ(by_id.count("line-3"), 1u)
            << "truncated tail must be answered";
        EXPECT_EQ(service::Json::parse(by_id["t2a"]).getString("status", ""),
                  "ok");
        EXPECT_EQ(service::Json::parse(by_id["t2b"]).getString("status", ""),
                  "ok");
        EXPECT_EQ(
            service::Json::parse(by_id["line-3"]).getString("status", ""),
            "error");
    });

    for (auto &t : clients)
        t.join();
    server.drain();

    EXPECT_EQ(books(svc, "server.connections_accepted"), 3.0);
    EXPECT_EQ(books(svc, "jobs.submitted"), 4.0);
    EXPECT_EQ(books(svc, "requests.line_errors"), 2.0); // garbage + tail
    EXPECT_EQ(books(svc, "server.results_written"), 6.0);
    EXPECT_EQ(books(svc, "server.disconnect_cancels"), 0.0)
        << "half-closes are patient clients, never disconnects";
}

TEST(SocketFrontEnd, MassDisconnectCancelsExactlyOncePerConnection)
{
    // 200 connections submit one job each behind a pinned worker, then
    // 100 of them RST mid-flight. The disconnect-cancellation path must
    // fire exactly once per dropped connection — the read-error and
    // failed-write paths race for the same connection and must not
    // double-count — and the books must still balance exactly.
    constexpr int kConns = 200;
    constexpr int kDropped = 100;

    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);
    service::ServerOptions opts;
    opts.maxConnections = 0; // the test IS the thousand-client shape
    opts.maxInflight = 0;
    service::Server server(svc, opts);
    server.start();

    // Pin the only worker so every connection's job stays queued (and
    // therefore cancellable-before-start) at RST time. The blocker must
    // outlast the whole test on its own — only cancellation ends it.
    service::JsonlClient control(server.port());
    auto blocker = longJob("blocker");
    blocker.maxIterations = 1 << 28;
    control.sendLine(service::jobToJsonRequest(blocker).dump());
    ASSERT_TRUE(waitFor([&] { return svc.health().running >= 1; }));

    std::vector<std::unique_ptr<service::JsonlClient>> conns;
    conns.reserve(kConns);
    for (int i = 0; i < kConns; ++i) {
        conns.push_back(
            std::make_unique<service::JsonlClient>(server.port()));
        conns.back()->sendLine(
            service::jobToJsonRequest(quickJob("m" + std::to_string(i)))
                .dump());
    }
    ASSERT_TRUE(waitFor(
        [&] { return books(svc, "jobs.submitted") == kConns + 1; }, 60000))
        << "accepted " << books(svc, "jobs.submitted");

    // Queued-job cancellation is lazy (the tally lands when a worker
    // dequeues the job), and the only worker is pinned — so wait on the
    // server's own disconnect stat, which fires eagerly at RST time.
    for (int i = 0; i < kDropped; ++i)
        conns[static_cast<std::size_t>(i)]->abortConnection();
    ASSERT_TRUE(waitFor(
        [&] { return books(svc, "server.disconnect_cancels") >= kDropped; },
        60000))
        << "every dropped connection must trip disconnect-cancel, got "
        << books(svc, "server.disconnect_cancels");

    // Unpin the worker; the 100 surviving jobs must all complete ok.
    control.sendLine(R"({"type":"cancel","id":"blocker"})");
    std::string line;
    ASSERT_TRUE(control.readLine(line, 30000)); // cancel ack
    ASSERT_TRUE(control.readLine(line, 60000)); // blocker's result
    EXPECT_EQ(service::Json::parse(line).getString("status", ""),
              "cancelled");

    for (int i = kDropped; i < kConns; ++i) {
        ASSERT_TRUE(
            conns[static_cast<std::size_t>(i)]->readLine(line, 60000))
            << "survivor " << i;
        const auto v = service::Json::parse(line);
        EXPECT_EQ(v.getString("id", ""), "m" + std::to_string(i));
        EXPECT_EQ(v.getString("status", ""), "ok") << line;
    }
    control.shutdownWrite();
    for (int i = kDropped; i < kConns; ++i)
        conns[static_cast<std::size_t>(i)]->shutdownWrite();
    server.drain();

    EXPECT_EQ(books(svc, "server.disconnect_cancels"), kDropped)
        << "exactly once per dropped connection, no double counting";
    EXPECT_EQ(books(svc, "jobs.cancelled"), kDropped + 1); // + the blocker

    // The PR 7 reconciliation contract holds through the carnage.
    auto &m = svc.metrics();
    EXPECT_EQ(m.counter("jobs.submitted").value(),
              static_cast<std::uint64_t>(kConns + 1));
    EXPECT_EQ(m.counter("jobs.completed").value(),
              m.counter("jobs.submitted").value());
    EXPECT_EQ(m.counter("jobs.ok").value(),
              static_cast<std::uint64_t>(kConns - kDropped));
    EXPECT_EQ(m.counter("jobs.ok").value() + m.counter("jobs.error").value()
                  + m.counter("jobs.cancelled").value()
                  + m.counter("jobs.expired").value(),
              m.counter("jobs.completed").value());
}

// ------------------------------------------- write-backpressure tests

TEST(SocketFrontEnd, SlowReaderBuffersWritesAndEventuallyDrains)
{
    // A 4 KiB send buffer against a 4 KiB receive window: kilobytes of
    // traced results cannot leave in one send(2). Workers must never
    // block on the socket — jobs complete while the client reads
    // nothing — and every buffered byte must surface once it reads.
    service::ServiceOptions so;
    so.workers = 2;
    service::SolveService svc(so);
    service::ServerOptions opts;
    opts.sendBufferBytes = 4096;
    opts.maxInflight = 0;
    opts.sendTimeoutMs = 120000; // a slow CI box must not trip the stall
    service::Server server(svc, opts);
    server.start();

    const int fd = rawConnect(server.port(), /*rcvbufBytes=*/4096);
    constexpr int kJobs = 64;
    std::string burst;
    for (int i = 0; i < kJobs; ++i) {
        auto job = quickJob("bp" + std::to_string(i));
        job.trace = true; // traced result lines are kilobytes each
        burst += service::jobToJsonRequest(job).dump() + "\n";
    }
    rawSendAll(fd, burst);

    ASSERT_TRUE(waitFor(
        [&] {
            return svc.metrics().counter("jobs.completed").value() == kJobs;
        },
        120000))
        << "an unread client must not block the workers";

    const auto lines = rawReadLines(fd, kJobs, 120000);
    ::close(fd);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kJobs));
    std::set<std::string> ids;
    for (const auto &l : lines) {
        const auto v = service::Json::parse(l); // throws on corruption
        EXPECT_EQ(v.getString("status", ""), "ok") << l;
        ids.insert(v.getString("id", ""));
    }
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(kJobs))
        << "every result surfaced exactly once";
    server.drain();
    EXPECT_GT(books(svc, "server.partial_writes"), 0.0)
        << "kilobytes into a 4 KiB window must need POLLOUT resumption";
}

TEST(SocketFrontEnd, WriteStallBreaksTheConnectionInsteadOfWedging)
{
    // A client that stops reading entirely: once no byte has left for
    // sendTimeoutMs the loop must declare the connection broken and
    // close it — a stalled reader costs a buffer, never a wedged server.
    service::ServiceOptions so;
    so.workers = 1;
    service::SolveService svc(so);
    service::ServerOptions opts;
    opts.sendBufferBytes = 4096;
    opts.sendTimeoutMs = 300;
    opts.maxInflight = 0;
    service::Server server(svc, opts);
    server.start();

    const int fd = rawConnect(server.port(), /*rcvbufBytes=*/4096);
    constexpr int kJobs = 48;
    std::string burst;
    for (int i = 0; i < kJobs; ++i) {
        auto job = quickJob("ws" + std::to_string(i));
        job.trace = true;
        burst += service::jobToJsonRequest(job).dump() + "\n";
    }
    rawSendAll(fd, burst);

    // Wait for the accept first: before it, server.connections_open is
    // 0 trivially. The client then neither reads nor closes, so only
    // the write-stall bound can close the connection.
    ASSERT_TRUE(waitFor(
        [&] { return books(svc, "server.connections_accepted") == 1; },
        60000));
    ASSERT_TRUE(waitFor(
        [&] { return books(svc, "server.connections_open") == 0; }, 120000))
        << "the stalled connection must be torn down";
    EXPECT_GT(books(svc, "server.partial_writes"), 0.0);
    ::close(fd);
    server.drain();
}
