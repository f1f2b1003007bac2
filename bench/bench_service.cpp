/**
 * @file
 * Throughput/latency benchmark of the concurrent solve service, in the
 * spirit of HPC AI500's "measure, don't assert" methodology: a
 * repeated-structure job suite (the production shape: many requests,
 * few distinct problem structures) runs at 1/2/4 workers and the run
 * reports jobs/sec, p50/p99 end-to-end latency, compilation-cache hit
 * rate, and a bitwise cross-worker-count determinism check, mirrored to
 * BENCH_service.json for PR-over-PR tracking.
 *
 * Note on scaling: worker speedup is meaningful only on a machine with
 * that many cores; the JSON records the hardware concurrency alongside
 * the numbers so a 1-core CI box reporting ~1x is interpreted correctly.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "problems/suite.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "spec/spec.hpp"

using namespace chocoq;

namespace
{

struct Config
{
    bool full = false;
    /** Jobs per distinct problem structure. */
    int repeats = 8;
    int iterations = 20;
    std::vector<int> workerCounts = {1, 2, 4};
    std::string outPath = "BENCH_service.json";
};

/** The repeated-structure suite: every structure appears `repeats`
 * times with distinct ids and seeds, shuffled round-robin so repeats of
 * one structure are interleaved across the stream (worst case for a
 * cacheless service, steady state for ours). */
std::vector<service::SolveJob>
makeSuite(const Config &cfg)
{
    struct Structure
    {
        const char *scale;
        unsigned caseIndex;
    };
    std::vector<Structure> structures = {
        {"F1", 0}, {"F1", 1}, {"K1", 0}, {"K1", 1}, {"K2", 0}, {"G1", 0},
    };
    if (cfg.full) {
        structures.push_back({"G1", 1});
        structures.push_back({"F2", 0});
    }

    std::vector<service::SolveJob> jobs;
    for (int r = 0; r < cfg.repeats; ++r) {
        for (std::size_t s = 0; s < structures.size(); ++s) {
            service::SolveJob job;
            job.id = std::string(structures[s].scale) + "#"
                     + std::to_string(structures[s].caseIndex) + "/"
                     + std::to_string(r);
            job.scale = structures[s].scale;
            job.caseIndex = structures[s].caseIndex;
            // Distinct seeds across repeats: structure is shared,
            // execution is not, which is exactly what the cache keys on.
            job.seed = 1000 + 17 * static_cast<std::uint64_t>(r) + s;
            job.maxIterations = cfg.iterations;
            job.keepStarts = 2; // multi-start screening
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** @p sorted must be ascending (sorted once by the caller). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

struct RunReport
{
    int workers = 0;
    double wallSeconds = 0.0;
    double jobsPerSec = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double execP50Ms = 0.0;
    double cacheHitRate = 0.0;
    service::CompileCache::Stats cache;
    std::vector<service::SolveResult> results;
};

RunReport
runSuite(const std::vector<service::SolveJob> &jobs, int workers)
{
    service::ServiceOptions options;
    options.workers = workers;
    service::SolveService svc(options); // fresh service: cold cache
    Timer wall;
    RunReport report;
    report.results = svc.solveAll(jobs);
    report.wallSeconds = wall.seconds();
    report.workers = workers;
    report.jobsPerSec =
        static_cast<double>(jobs.size()) / report.wallSeconds;

    std::vector<double> end_to_end, exec;
    for (const auto &r : report.results) {
        end_to_end.push_back(r.queueMs + r.solveMs);
        exec.push_back(r.solveMs);
        if (r.status != "ok")
            std::cerr << "job " << r.id << " failed: " << r.error << "\n";
    }
    std::sort(end_to_end.begin(), end_to_end.end());
    std::sort(exec.begin(), exec.end());
    report.p50Ms = percentile(end_to_end, 0.50);
    report.p99Ms = percentile(end_to_end, 0.99);
    report.execP50Ms = percentile(exec, 0.50);
    report.cache = svc.cacheStats();
    report.cacheHitRate = report.cache.hitRate();
    return report;
}

/** Bitwise comparison of per-job outputs between two runs. */
bool
sameResults(const RunReport &a, const RunReport &b)
{
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const auto &ra = a.results[i];
        const auto &rb = b.results[i];
        if (ra.distHash != rb.distHash
            || std::memcmp(&ra.bestCost, &rb.bestCost, sizeof(double)) != 0)
            return false;
    }
    return true;
}

// ------------------------------------------------- socket-mode probe

struct SocketReport
{
    int workers = 0;
    int connections = 0;
    /** Mean accept -> shard-pickup latency, from the server's own
     * server.accept_ms histogram: the server-controlled half of
     * connection setup (emitted as accept_ms_avg). */
    double acceptMsAvg = 0.0;
    /** Mean accept -> first request byte, from
     * server.idle_before_first_request_ms: the client's connect
     * round-trip and first write (idle time, not server latency). */
    double idleBeforeFirstRequestMsAvg = 0.0;
    /** Mean first request byte -> first response byte, from
     * server.first_byte_ms: the server-side first-response latency. */
    double firstByteMsAvg = 0.0;
    double wallSeconds = 0.0;
    double jobsPerSec = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** Socket results bitwise-match the in-process reference run. */
    bool matchesInProcess = true;
};

/**
 * The same suite through the TCP front-end: a fresh service behind a
 * loopback Server, jobs spread over @p connections concurrent client
 * connections, per-job latency measured from the client side (send to
 * result line). The wire and framing overhead relative to the
 * in-process numbers is the cost of the network front-end.
 */
SocketReport
runSocketSuite(const std::vector<service::SolveJob> &jobs, int workers,
               int connections, const RunReport &reference)
{
    using Clock = std::chrono::steady_clock;

    SocketReport report;
    report.workers = workers;
    report.connections = connections;

    service::ServiceOptions options;
    options.workers = workers;
    service::SolveService svc(options); // fresh service: cold cache
    service::ServerOptions server_options;
    // Clients pipeline their whole share before reading, so the probe
    // must not trip the default backpressure bound on large suites —
    // this measures the wire, not the overload response.
    server_options.maxInflight = 0;
    service::Server server(svc, server_options);
    server.start();

    // Connection setup amortization probes: connect/teardown with no
    // traffic. These populate server.accept_ms (every accepted
    // connection records it); only the real suite connections below
    // carry bytes, so they alone feed the idle-before-first-request
    // and first-byte histograms.
    constexpr int kSetupProbes = 32;
    for (int i = 0; i < kSetupProbes; ++i)
        service::JsonlClient probe(server.port());

    std::mutex mu;
    std::map<std::string, double> latency_ms;           // id -> ms
    std::map<std::string, std::string> result_lines;    // id -> line
    Timer wall;
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            service::JsonlClient client(server.port());
            std::map<std::string, Clock::time_point> sent;
            for (std::size_t i = static_cast<std::size_t>(c);
                 i < jobs.size(); i += static_cast<std::size_t>(connections)) {
                sent.emplace(jobs[i].id, Clock::now());
                client.sendLine(service::jobToJsonRequest(jobs[i]).dump());
            }
            client.shutdownWrite();
            for (std::size_t i = 0; i < sent.size(); ++i) {
                std::string line;
                if (!client.readLine(line, 600000))
                    return; // missing results fail the match check below
                const auto v = service::Json::parse(line);
                const std::string id = v.getString("id", "");
                const auto it = sent.find(id);
                const double ms =
                    it == sent.end()
                        ? 0.0
                        : std::chrono::duration<double, std::milli>(
                              Clock::now() - it->second)
                              .count();
                std::lock_guard<std::mutex> lock(mu);
                latency_ms[id] = ms;
                result_lines[id] = line;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    report.wallSeconds = wall.seconds();
    server.drain();

    // The setup split, read from the server's own span timestamps:
    // accept -> shard pickup, accept -> first request byte (client
    // idle), and first request byte -> first response byte.
    report.acceptMsAvg =
        svc.metrics().histogram("server.accept_ms").snapshot().avgMs();
    report.idleBeforeFirstRequestMsAvg =
        svc.metrics()
            .histogram("server.idle_before_first_request_ms")
            .snapshot()
            .avgMs();
    report.firstByteMsAvg =
        svc.metrics().histogram("server.first_byte_ms").snapshot().avgMs();

    report.jobsPerSec =
        static_cast<double>(result_lines.size()) / report.wallSeconds;
    std::vector<double> sorted;
    for (const auto &[id, ms] : latency_ms)
        sorted.push_back(ms);
    std::sort(sorted.begin(), sorted.end());
    report.p50Ms = percentile(sorted, 0.50);
    report.p99Ms = percentile(sorted, 0.99);

    // Bitwise cross-check against the in-process reference: the wire
    // must change transport, never results.
    report.matchesInProcess = result_lines.size() == jobs.size();
    for (const auto &r : reference.results) {
        const auto it = result_lines.find(r.id);
        if (it == result_lines.end()) {
            report.matchesInProcess = false;
            break;
        }
        const auto v = service::Json::parse(it->second);
        const double cost = v.getNumber("best_cost", 0.0);
        if (v.getString("dist_hash", "") != service::distHashHex(r.distHash)
            || std::memcmp(&cost, &r.bestCost, sizeof(double)) != 0) {
            report.matchesInProcess = false;
            break;
        }
    }
    return report;
}

// -------------------------------------------- inline-spec probe

struct InlineSpecReport
{
    /** Serialized bytes of the probe spec (K1 case 0 transcribed). */
    std::size_t specBytes = 0;
    /** Mean parse + validate + canonicalize cost per spec. */
    double parseCanonicalizeUs = 0.0;
    /** Compile-cache hit rate of 1 inline submission + N problem_refs. */
    double refReuseHitRate = 0.0;
    /** Inline submission bitwise matches the registry-case job. */
    bool matchesRegistry = true;
};

/**
 * The inline-problem path, measured: per-request spec cost
 * (parse + validate + canonicalize, the work the front-end pays before
 * any solver runs) and the ref-reuse behavior the protocol promises —
 * one inline submission, many problem_ref follow-ups, all sharing one
 * compilation, bit-identical to the registry-case job.
 */
InlineSpecReport
runInlineSpecProbe(int repeats, int iterations)
{
    InlineSpecReport report;
    const auto spec_json = spec::problemToSpecJson(
        problems::makeCase(problems::Scale::K1, 0));
    const std::string spec_text = spec_json.dump();
    report.specBytes = spec_text.size();

    constexpr int kParseProbes = 200;
    Timer parse_timer;
    for (int i = 0; i < kParseProbes; ++i)
        spec::parseProblemSpec(service::Json::parse(spec_text));
    report.parseCanonicalizeUs =
        parse_timer.seconds() * 1e6 / kParseProbes;

    // Registry-case reference for the bitwise cross-check.
    service::SolveService svc{service::ServiceOptions{}};
    service::SolveJob reg;
    reg.id = "registry";
    reg.scale = "K1";
    reg.seed = 11;
    reg.maxIterations = iterations;
    const auto reg_result = svc.solveAll({reg}).front();

    // One inline submission registers the model...
    service::SolveJob inline_job;
    inline_job.id = "inline";
    inline_job.problem = std::make_shared<const spec::ProblemSpec>(
        spec::parseProblemSpec(spec_json));
    inline_job.seed = 11;
    inline_job.maxIterations = iterations;
    const auto inline_result = svc.solveAll({inline_job}).front();
    report.matchesRegistry =
        inline_result.status == "ok" && reg_result.status == "ok"
        && inline_result.distHash == reg_result.distHash
        && std::memcmp(&inline_result.bestCost, &reg_result.bestCost,
                       sizeof(double))
               == 0;

    // ...and the follow-ups ride the hash. Count compile-cache hits
    // across exactly the refs batch (diff against a snapshot: the
    // registry-case and inline lookups above are not ref reuse).
    const auto before = svc.cacheStats();
    std::vector<service::SolveJob> refs;
    for (int r = 0; r < repeats; ++r) {
        service::SolveJob ref;
        ref.id = "ref/" + std::to_string(r);
        ref.problemRef = inline_job.problem->hashHex;
        ref.seed = 100 + static_cast<std::uint64_t>(r);
        ref.maxIterations = iterations;
        refs.push_back(std::move(ref));
    }
    for (const auto &r : svc.solveAll(refs))
        report.matchesRegistry = report.matchesRegistry
                                 && r.status == "ok";
    const auto after = svc.cacheStats();
    const std::uint64_t lookups =
        (after.hits - before.hits) + (after.misses - before.misses);
    report.refReuseHitRate =
        lookups == 0 ? 0.0
                     : static_cast<double>(after.hits - before.hits)
                           / static_cast<double>(lookups);
    return report;
}

// -------------------------------------------- observability probe

struct ObservabilityReport
{
    /** Best-of jobs/sec with the metric registry recording. */
    double jobsPerSecMetricsOn = 0.0;
    /** Best-of jobs/sec with a disabled registry (every record an
     * early return) — the baseline, not an operational mode. */
    double jobsPerSecMetricsOff = 0.0;
    /** (off - on) / off as a percentage, clamped at 0. The always-on
     * contract is <2% (gated in CI). */
    double overheadPct = 0.0;
    /** Mean {"type":"stats"} probe round-trip over loopback. */
    double statsRttUsAvg = 0.0;
    /** Stage-histogram counts equal the job counters after the load
     * (the exact-reconciliation contract). */
    bool reconciled = true;
    /** Traced run bitwise matches the untraced reference. */
    bool traceMatches = true;
};

/**
 * The cost of observability, measured: the suite runs with metrics on
 * and off in interleaved rounds (best-of per mode, so machine noise
 * hits both sides alike), a fully traced run is checked bitwise
 * against the untraced reference, stage-histogram counts are
 * reconciled against the job counters, and a stats probe's round-trip
 * is timed over loopback.
 */
ObservabilityReport
runObservabilityProbe(const std::vector<service::SolveJob> &jobs,
                      int workers, const RunReport &reference, int rounds)
{
    ObservabilityReport report;

    auto timed_run = [&](bool metrics_on) {
        service::ServiceOptions options;
        options.workers = workers;
        options.metricsEnabled = metrics_on;
        service::SolveService svc(options); // fresh service: cold cache
        Timer wall;
        svc.solveAll(jobs);
        return static_cast<double>(jobs.size()) / wall.seconds();
    };
    // Alternate which mode goes first each round so thermal/scheduler
    // drift debits both sides alike; best-of per mode filters the
    // remaining noise (the metric cost itself is nanoseconds/job, so
    // anything beyond the gate is measurement artifact).
    for (int r = 0; r < rounds; ++r) {
        const bool on_first = (r % 2) == 0;
        const double first = timed_run(on_first);
        const double second = timed_run(!on_first);
        const double on = on_first ? first : second;
        const double off = on_first ? second : first;
        report.jobsPerSecMetricsOn =
            std::max(report.jobsPerSecMetricsOn, on);
        report.jobsPerSecMetricsOff =
            std::max(report.jobsPerSecMetricsOff, off);
    }
    report.overheadPct =
        std::max(0.0, (report.jobsPerSecMetricsOff
                       - report.jobsPerSecMetricsOn)
                          / report.jobsPerSecMetricsOff * 100.0);

    // Reconciliation + trace bit-identity on one instrumented run:
    // every job traced, outputs compared against the untraced
    // reference, histogram counts against the counters.
    {
        service::ServiceOptions options;
        options.workers = workers;
        service::SolveService svc(options);
        auto traced = jobs;
        for (auto &job : traced)
            job.trace = true;
        const auto results = svc.solveAll(traced);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &rt = results[i];
            const auto &rr = reference.results[i];
            if (!rt.trace || rt.trace->spans().empty()
                || rt.distHash != rr.distHash
                || std::memcmp(&rt.bestCost, &rr.bestCost, sizeof(double))
                       != 0) {
                report.traceMatches = false;
                break;
            }
        }
        auto &m = svc.metrics();
        const auto n = static_cast<std::uint64_t>(jobs.size());
        report.reconciled =
            m.counter("jobs.submitted").value() == n
            && m.counter("jobs.completed").value() == n
            && m.counter("jobs.ok").value() == n
            && m.histogram("stage.queue_ms").snapshot().count == n
            && m.histogram("stage.total_ms").snapshot().count == n
            && m.histogram("stage.solve_ms").snapshot().count == n;
    }

    // Stats-probe round-trip: one connection, repeated probes, mean
    // client-side RTT (send line -> response line).
    {
        service::ServiceOptions options;
        options.workers = workers;
        service::SolveService svc(options);
        service::Server server(svc, service::ServerOptions{});
        server.start();
        constexpr int kProbes = 64;
        service::JsonlClient client(server.port());
        Timer t;
        for (int i = 0; i < kProbes; ++i) {
            client.sendLine("{\"type\":\"stats\"}");
            std::string line;
            if (!client.readLine(line, 10000))
                break;
        }
        report.statsRttUsAvg = t.seconds() * 1e6 / kProbes;
        server.drain();
    }
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full") {
            cfg.full = true;
        } else if (arg == "--repeats" && i + 1 < argc) {
            cfg.repeats = std::atoi(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            cfg.outPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << argv[0]
                      << " [--full] [--repeats N] [--out FILE]\n";
            return 0;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }
    const char *env = std::getenv("CHOCOQ_BENCH_FULL");
    if (env && std::string(env) != "0")
        cfg.full = true;
    if (cfg.full)
        cfg.repeats = std::max(cfg.repeats, 16);

    const auto jobs = makeSuite(cfg);
    std::cout << "=== bench_service (" << (cfg.full ? "full" : "quick")
              << " mode): " << jobs.size()
              << " jobs, hardware concurrency "
              << std::thread::hardware_concurrency() << " ===\n";

    std::vector<RunReport> runs;
    for (const int workers : cfg.workerCounts) {
        RunReport report = runSuite(jobs, workers);
        std::cout << "workers=" << report.workers << ": "
                  << report.jobsPerSec << " jobs/s, p50 " << report.p50Ms
                  << " ms, p99 " << report.p99Ms << " ms, exec p50 "
                  << report.execP50Ms << " ms, cache hit rate "
                  << report.cacheHitRate << " ("
                  << report.cache.entries << " entries, "
                  << report.cache.bytes << " bytes, "
                  << report.cache.evictions << " evictions, budget "
                  << report.cache.maxBytes << ")\n";
        runs.push_back(std::move(report));
    }

    bool deterministic = true;
    for (std::size_t i = 1; i < runs.size(); ++i)
        deterministic = deterministic && sameResults(runs[0], runs[i]);
    const double speedup =
        runs.size() >= 2 ? runs.back().jobsPerSec / runs.front().jobsPerSec
                         : 1.0;
    std::cout << "speedup " << runs.back().workers << "w vs "
              << runs.front().workers << "w: " << speedup
              << "x; deterministic across worker counts: "
              << (deterministic ? "yes" : "NO") << "\n";

    // The TCP front-end over loopback: same suite, same worker count as
    // the middle in-process run, 4 concurrent connections. The spread
    // vs the in-process jobs/sec is the wire + framing cost.
    const int socket_workers = runs.size() >= 2 ? runs[1].workers : 1;
    const SocketReport socket =
        runSocketSuite(jobs, socket_workers, 4, runs[0]);
    std::cout << "socket (workers=" << socket.workers << ", "
              << socket.connections << " conns): " << socket.jobsPerSec
              << " jobs/s, p50 " << socket.p50Ms << " ms, p99 "
              << socket.p99Ms << " ms, accept " << socket.acceptMsAvg
              << " ms avg, first byte " << socket.firstByteMsAvg
              << " ms avg; bitwise matches in-process: "
              << (socket.matchesInProcess ? "yes" : "NO") << "\n";

    // The overhead probe needs runs long enough that jobs/sec is not
    // dominated by startup noise: rerun the suite maker with a higher
    // repeat floor (same structures, so the reference-run bitwise
    // check still applies job-by-job via a fresh reference below).
    Config probe_cfg = cfg;
    probe_cfg.repeats = std::max(cfg.repeats, cfg.full ? 32 : 24);
    const auto probe_jobs = makeSuite(probe_cfg);
    RunReport probe_reference;
    {
        service::ServiceOptions options;
        options.workers = socket_workers;
        service::SolveService svc(options);
        probe_reference.results = svc.solveAll(probe_jobs);
    }
    const ObservabilityReport obs_report = runObservabilityProbe(
        probe_jobs, socket_workers, probe_reference, cfg.full ? 8 : 6);
    std::cout << "observability: " << obs_report.jobsPerSecMetricsOn
              << " jobs/s metrics on vs " << obs_report.jobsPerSecMetricsOff
              << " off (overhead " << obs_report.overheadPct
              << "%), stats RTT " << obs_report.statsRttUsAvg
              << " us avg; counters reconcile: "
              << (obs_report.reconciled ? "yes" : "NO")
              << "; traced run bitwise matches: "
              << (obs_report.traceMatches ? "yes" : "NO") << "\n";

    const InlineSpecReport inline_spec =
        runInlineSpecProbe(cfg.full ? 32 : 8, cfg.iterations);
    std::cout << "inline spec (" << inline_spec.specBytes
              << " bytes): parse+canonicalize "
              << inline_spec.parseCanonicalizeUs
              << " us, ref-reuse cache hit rate "
              << inline_spec.refReuseHitRate
              << "; bitwise matches registry case: "
              << (inline_spec.matchesRegistry ? "yes" : "NO") << "\n";

    service::Json doc = service::Json::object();
    doc.set("bench", "service");
    doc.set("mode", cfg.full ? "full" : "quick");
    doc.set("jobs", static_cast<double>(jobs.size()));
    doc.set("hardware_concurrency",
            static_cast<double>(std::thread::hardware_concurrency()));
    doc.set("deterministic_across_worker_counts", deterministic);
    doc.set("speedup_max_vs_min_workers", speedup);
    service::Json run_array = service::Json::array();
    for (const auto &r : runs) {
        service::Json entry = service::Json::object();
        entry.set("workers", r.workers);
        entry.set("wall_seconds", r.wallSeconds);
        entry.set("jobs_per_sec", r.jobsPerSec);
        entry.set("latency_p50_ms", r.p50Ms);
        entry.set("latency_p99_ms", r.p99Ms);
        entry.set("exec_p50_ms", r.execP50Ms);
        entry.set("cache_hit_rate", r.cacheHitRate);
        entry.set("cache_entries", static_cast<double>(r.cache.entries));
        entry.set("cache_bytes", static_cast<double>(r.cache.bytes));
        entry.set("cache_evictions",
                  static_cast<double>(r.cache.evictions));
        entry.set("cache_max_bytes",
                  static_cast<double>(r.cache.maxBytes));
        run_array.push(std::move(entry));
    }
    doc.set("runs", std::move(run_array));

    service::Json socket_doc = service::Json::object();
    socket_doc.set("workers", socket.workers);
    socket_doc.set("connections", socket.connections);
    socket_doc.set("accept_ms_avg", socket.acceptMsAvg);
    socket_doc.set("idle_before_first_request_ms_avg",
                   socket.idleBeforeFirstRequestMsAvg);
    socket_doc.set("first_byte_ms_avg", socket.firstByteMsAvg);
    socket_doc.set("wall_seconds", socket.wallSeconds);
    socket_doc.set("jobs_per_sec", socket.jobsPerSec);
    socket_doc.set("latency_p50_ms", socket.p50Ms);
    socket_doc.set("latency_p99_ms", socket.p99Ms);
    socket_doc.set("matches_in_process", socket.matchesInProcess);
    doc.set("socket", std::move(socket_doc));

    service::Json inline_doc = service::Json::object();
    inline_doc.set("spec_bytes",
                   static_cast<double>(inline_spec.specBytes));
    inline_doc.set("parse_canonicalize_us",
                   inline_spec.parseCanonicalizeUs);
    inline_doc.set("ref_reuse_cache_hit_rate",
                   inline_spec.refReuseHitRate);
    inline_doc.set("matches_registry_case", inline_spec.matchesRegistry);
    doc.set("inline_spec", std::move(inline_doc));

    service::Json obs_doc = service::Json::object();
    obs_doc.set("jobs_per_sec_metrics_on", obs_report.jobsPerSecMetricsOn);
    obs_doc.set("jobs_per_sec_metrics_off",
                obs_report.jobsPerSecMetricsOff);
    obs_doc.set("overhead_pct", obs_report.overheadPct);
    obs_doc.set("stats_rtt_us_avg", obs_report.statsRttUsAvg);
    obs_doc.set("counters_reconcile", obs_report.reconciled);
    obs_doc.set("trace_matches_untraced", obs_report.traceMatches);
    doc.set("observability", std::move(obs_doc));

    std::ofstream out(cfg.outPath);
    out << doc.pretty() << "\n";
    std::cout << "wrote " << cfg.outPath << "\n";
    return deterministic && socket.matchesInProcess
                   && inline_spec.matchesRegistry && obs_report.reconciled
                   && obs_report.traceMatches
               ? 0
               : 1;
}
