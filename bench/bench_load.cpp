/**
 * @file
 * Open-loop load harness for the socket front-end, following the HPC
 * AI500 metrics-under-load methodology: arrivals follow a fixed,
 * seed-derived schedule and are sent at their scheduled wall-clock
 * times whether or not earlier responses came back. A closed-loop
 * (request-response) client self-throttles the moment the server slows
 * down and so can never observe queueing collapse; the open-loop
 * schedule keeps offering load, which is what makes the p99/p99.9
 * numbers honest (coordinated-omission-free).
 *
 * Per stage (64/256/1024 connections by default) the harness walks a
 * ladder of offered rates and reports the highest rung the server
 * sustained — achieved >= 90% of offered with zero error lines — plus
 * p50/p99/p99.9 end-to-end latency at that rung, measured from the
 * *scheduled* send time (so client-side send backlog counts against
 * the server, as it would for a real caller). Server-side stage
 * breakdowns come from a {"type":"stats"} probe on the same wire the
 * jobs used. Results mirror to BENCH_load.json (schema:
 * docs/benchmarks.md; checked by tools/check_bench_schema.py).
 *
 * Modes:
 *  - in-process (default): a fresh SolveService + Server per stage.
 *  - --port P: drive an external chocoq_serve --listen (the soak test
 *    and the CI load-smoke job use this). Counter assertions use
 *    before/after deltas so prior traffic on the server is fine.
 *
 * --check turns protocol violations into a nonzero exit: malformed
 * response lines, cross-connection leakage (every id encodes its
 * connection), non-monotonic per-connection sequence numbers, lost or
 * duplicated responses, and a failed final counter reconciliation.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/timer.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace chocoq;
using Clock = std::chrono::steady_clock;

namespace
{

struct Config
{
    std::vector<int> connections = {64, 256, 1024};
    /** Offered-rate ladder in jobs/sec, walked per stage. */
    std::vector<double> rates = {100.0, 200.0, 400.0};
    double durationSeconds = 3.0;
    std::uint64_t seed = 42;
    int workers = 2;
    /** External server port; 0 = in-process per stage. */
    int port = 0;
    bool check = false;
    std::string outPath = "BENCH_load.json";
};

/** splitmix64: the deterministic jitter source (same seed, same
 * schedule, byte for byte — the soak test depends on it). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** @p sorted ascending. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** One scheduled request: send at @p atSeconds on connection @p conn. */
struct Arrival
{
    double atSeconds = 0.0;
    int conn = 0;
    long seq = 0;
    std::string line; // request bytes incl. newline
};

/**
 * The fixed open-loop schedule: K = rate * duration arrivals, evenly
 * spaced with +-20% seeded jitter, assigned round-robin to
 * connections. Job bodies are tiny F1 solves (single structure: after
 * the first compile the service is pure dispatch + simulate, which is
 * what a front-end benchmark should measure).
 */
std::vector<Arrival>
makeSchedule(double rate, double duration, int conns, std::uint64_t seed)
{
    const long total = std::max(1L, static_cast<long>(rate * duration));
    std::vector<Arrival> schedule;
    schedule.reserve(static_cast<std::size_t>(total));
    std::vector<long> seq(static_cast<std::size_t>(conns), 0);
    const double spacing = duration / static_cast<double>(total);
    for (long k = 0; k < total; ++k) {
        Arrival a;
        const double jitter =
            (static_cast<double>(mix64(seed ^ static_cast<std::uint64_t>(k))
                                 & 0xffffffu)
                 / double(0xffffffu)
             - 0.5)
            * 0.4 * spacing;
        a.atSeconds = static_cast<double>(k) * spacing + jitter;
        if (a.atSeconds < 0.0)
            a.atSeconds = 0.0;
        a.conn = static_cast<int>(k % conns);
        a.seq = seq[static_cast<std::size_t>(a.conn)]++;
        service::SolveJob job;
        job.id = "c" + std::to_string(a.conn) + "-" + std::to_string(a.seq);
        job.scale = "F1";
        job.seed = seed * 1000003ull + static_cast<std::uint64_t>(k);
        job.maxIterations = 3;
        job.keepStarts = 1;
        a.line = service::jobToJsonRequest(job).dump() + "\n";
        schedule.push_back(std::move(a));
    }
    return schedule;
}

/** Violation counters one rung accumulates (see --check). */
struct RungResult
{
    double offered = 0.0;
    double achieved = 0.0;
    long sent = 0;
    long responses = 0;
    long errorLines = 0;     // status error/rejected/cancelled/expired
    long malformedLines = 0; // not parseable JSON
    long misdelivered = 0;   // id names a different connection
    long outOfOrder = 0;     // per-connection seq went backwards
    long duplicates = 0;
    double wallSeconds = 0.0;
    std::vector<double> latenciesMs;
};

/** Client-side state of one open connection. */
struct ClientConn
{
    int fd = -1;
    service::LineFramer framer{1 << 20};
    long lastSeq = -1;
    std::vector<bool> seen; // seq -> response arrived
    /** Bytes the kernel would not take yet (open-loop: never block the
     * schedule on one backpressured connection). */
    std::string pendingOut;
};

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
        != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
}

/**
 * Run one rung: open @p conns connections, fire the schedule, read
 * responses until complete (or a post-schedule grace timeout), close.
 * Client work is spread over a small fixed thread pool, each thread
 * owning a disjoint connection subset — the client must not itself be
 * a thread-per-connection design or 1024 connections would measure
 * the harness.
 */
RungResult
runRung(int port, int conns, double rate, double duration,
        std::uint64_t seed)
{
    RungResult result;
    result.offered = rate;

    auto schedule = makeSchedule(rate, duration, conns, seed);
    const long perConn = (static_cast<long>(schedule.size())
                          + conns - 1)
                         / conns;

    std::vector<ClientConn> table(static_cast<std::size_t>(conns));
    for (auto &c : table) {
        c.seen.assign(static_cast<std::size_t>(perConn), false);
        c.fd = connectLoopback(port);
        if (c.fd < 0) {
            std::cerr << "bench_load: connect failed: " << std::strerror(errno)
                      << "\n";
            for (auto &cc : table)
                if (cc.fd >= 0)
                    ::close(cc.fd);
            result.malformedLines = static_cast<long>(schedule.size());
            return result;
        }
    }

    const int threads = std::max(
        2, std::min(8, static_cast<int>(std::thread::hardware_concurrency())));
    std::mutex mu; // guards the merged counters below
    std::atomic<long> sent{0}, responses{0};

    const auto t0 = Clock::now();
    const auto elapsed = [&t0] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            // This thread's connections and arrivals, in time order.
            std::vector<int> mine;
            for (int c = t; c < conns; c += threads)
                mine.push_back(c);
            std::vector<const Arrival *> arrivals;
            for (const auto &a : schedule)
                if (a.conn % threads == t)
                    arrivals.push_back(&a);
            // id -> scheduled time, for latency without a global map.
            std::map<std::string, double> sched_at;
            for (const auto *a : arrivals)
                sched_at.emplace("c" + std::to_string(a->conn) + "-"
                                     + std::to_string(a->seq),
                                 a->atSeconds);

            RungResult local;
            std::size_t next = 0;
            long expect = static_cast<long>(arrivals.size());
            long got = 0;
            std::vector<pollfd> pfds(mine.size());
            const double grace = 30.0;
            double done_at = -1.0;

            while (got < expect) {
                const double now = elapsed();
                // Open loop: send everything due, schedule time rules.
                while (next < arrivals.size()
                       && arrivals[next]->atSeconds <= now) {
                    const Arrival &a = *arrivals[next];
                    auto &c = table[static_cast<std::size_t>(a.conn)];
                    c.pendingOut += a.line;
                    ++next;
                    sent.fetch_add(1, std::memory_order_relaxed);
                }
                if (next == arrivals.size() && done_at < 0.0)
                    done_at = now;
                if (done_at >= 0.0 && now - done_at > grace)
                    break; // responses lost; counted below

                for (std::size_t i = 0; i < mine.size(); ++i) {
                    auto &c = table[static_cast<std::size_t>(mine[i])];
                    pfds[i].fd = c.fd;
                    pfds[i].events = static_cast<short>(
                        POLLIN | (c.pendingOut.empty() ? 0 : POLLOUT));
                    pfds[i].revents = 0;
                }
                double wait_ms = 2.0;
                if (next < arrivals.size())
                    wait_ms = std::min(
                        wait_ms,
                        std::max(0.0,
                                 (arrivals[next]->atSeconds - now) * 1000.0));
                ::poll(pfds.data(), pfds.size(),
                       std::max(0, static_cast<int>(wait_ms)));

                for (std::size_t i = 0; i < mine.size(); ++i) {
                    auto &c = table[static_cast<std::size_t>(mine[i])];
                    if (c.fd < 0)
                        continue;
                    if ((pfds[i].revents & POLLOUT)
                        && !c.pendingOut.empty()) {
                        const auto n = ::send(c.fd, c.pendingOut.data(),
                                              c.pendingOut.size(),
                                              MSG_NOSIGNAL);
                        if (n > 0)
                            c.pendingOut.erase(
                                0, static_cast<std::size_t>(n));
                    }
                    if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                        continue;
                    char buf[16384];
                    for (;;) {
                        const auto n = ::recv(c.fd, buf, sizeof buf, 0);
                        if (n <= 0)
                            break; // EAGAIN, or close handled via grace
                        c.framer.feed(buf, static_cast<std::size_t>(n));
                        const double recv_at = elapsed();
                        service::LineFramer::Line ln;
                        while (c.framer.next(ln)) {
                            ++got;
                            ++local.responses;
                            std::string id, status;
                            try {
                                const auto v =
                                    service::Json::parse(ln.text);
                                id = v.getString("id", "");
                                status = v.getString("status", "");
                            } catch (...) {
                                ++local.malformedLines;
                                continue;
                            }
                            if (status != "ok")
                                ++local.errorLines;
                            const std::string prefix =
                                "c" + std::to_string(mine[i]) + "-";
                            if (id.compare(0, prefix.size(), prefix)
                                != 0) {
                                ++local.misdelivered;
                                continue;
                            }
                            const long seq = std::atol(
                                id.c_str() + prefix.size());
                            if (seq < 0 || seq >= perConn) {
                                ++local.malformedLines;
                                continue;
                            }
                            if (c.seen[static_cast<std::size_t>(seq)])
                                ++local.duplicates;
                            c.seen[static_cast<std::size_t>(seq)] = true;
                            if (seq <= c.lastSeq)
                                ++local.outOfOrder;
                            c.lastSeq = std::max(c.lastSeq, seq);
                            const auto it = sched_at.find(id);
                            if (it != sched_at.end())
                                local.latenciesMs.push_back(
                                    (recv_at - it->second) * 1000.0);
                        }
                        if (static_cast<std::size_t>(n) < sizeof buf)
                            break;
                    }
                }
            }
            responses.fetch_add(local.responses,
                                std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mu);
            result.errorLines += local.errorLines;
            result.malformedLines += local.malformedLines;
            result.misdelivered += local.misdelivered;
            result.outOfOrder += local.outOfOrder;
            result.duplicates += local.duplicates;
            result.latenciesMs.insert(result.latenciesMs.end(),
                                      local.latenciesMs.begin(),
                                      local.latenciesMs.end());
        });
    }
    for (auto &t : pool)
        t.join();
    result.wallSeconds = elapsed();
    for (auto &c : table)
        if (c.fd >= 0)
            ::close(c.fd);

    result.sent = sent.load();
    result.responses = responses.load();
    result.achieved = result.wallSeconds > 0.0
                          ? static_cast<double>(result.responses)
                                / result.wallSeconds
                          : 0.0;
    std::sort(result.latenciesMs.begin(), result.latenciesMs.end());
    return result;
}

/** One {"type":"stats"} probe; empty Json on failure. */
service::Json
probeStats(int port)
{
    try {
        service::JsonlClient probe(port);
        probe.sendLine(R"({"type":"stats"})");
        std::string line;
        if (!probe.readLine(line, 30000))
            return service::Json();
        return service::Json::parse(line);
    } catch (...) {
        return service::Json();
    }
}

double
counterOf(const service::Json &stats, const char *name)
{
    const auto *counters = stats.find("counters");
    return counters ? counters->getNumber(name, 0.0) : 0.0;
}

struct StageReport
{
    int connections = 0;
    RungResult best;       // highest sustained rung (or last attempted)
    bool sustainedAny = false;
    std::vector<RungResult> rungs;
    double acceptMsAvg = 0.0;
    /** Client connect-to-send turnaround — open-loop clients hold
     * connections idle, so this is large by design and kept separate
     * from the server-latency first_byte_ms. */
    double idleBeforeFirstRequestMsAvg = 0.0;
    double firstByteMsAvg = 0.0;
    double queueMsP50 = 0.0;
    double solveMsP50 = 0.0;
    double partialWrites = 0.0;
    bool reconciled = true;
};

double
histField(const service::Json &stats, const char *hist, const char *field)
{
    const auto *hists = stats.find("histograms");
    if (hists == nullptr)
        return 0.0;
    const auto *h = hists->find(hist);
    return h ? h->getNumber(field, 0.0) : 0.0;
}

StageReport
runStage(const Config &cfg, int conns)
{
    StageReport report;
    report.connections = conns;

    // In-process mode: a fresh service + server per stage so counters
    // start at zero and the cache is cold exactly once.
    std::unique_ptr<service::SolveService> svc;
    std::unique_ptr<service::Server> server;
    int port = cfg.port;
    if (port == 0) {
        service::ServiceOptions so;
        so.workers = cfg.workers;
        svc = std::make_unique<service::SolveService>(so);
        service::ServerOptions opts;
        opts.maxConnections = 0;
        opts.maxInflight = 4096; // overload shows up as rejected lines
        server = std::make_unique<service::Server>(*svc, opts);
        server->start();
        port = server->port();
    }

    const auto before = probeStats(port);
    long total_sent = 0;
    for (const double rate : cfg.rates) {
        RungResult rung = runRung(port, conns, rate, cfg.durationSeconds,
                                  cfg.seed
                                      ^ static_cast<std::uint64_t>(conns)
                                      ^ static_cast<std::uint64_t>(rate));
        total_sent += rung.sent;
        const bool sustained = rung.errorLines == 0
                               && rung.malformedLines == 0
                               && rung.responses == rung.sent
                               && rung.achieved >= 0.9 * rung.offered;
        std::cout << "  conns=" << conns << " offered=" << rung.offered
                  << "/s achieved=" << rung.achieved << "/s p50="
                  << percentile(rung.latenciesMs, 0.5) << "ms p99="
                  << percentile(rung.latenciesMs, 0.99) << "ms p99.9="
                  << percentile(rung.latenciesMs, 0.999) << "ms errors="
                  << rung.errorLines << (sustained ? "" : "  [not sustained]")
                  << "\n";
        if (sustained || !report.sustainedAny) {
            report.best = rung;
            report.sustainedAny = report.sustainedAny || sustained;
        }
        report.rungs.push_back(std::move(rung));
    }

    const auto after = probeStats(port);
    if (after.isObject()) {
        report.acceptMsAvg =
            histField(after, "server.accept_ms", "avg_ms");
        report.idleBeforeFirstRequestMsAvg = histField(
            after, "server.idle_before_first_request_ms", "avg_ms");
        report.firstByteMsAvg =
            histField(after, "server.first_byte_ms", "avg_ms");
        report.queueMsP50 = histField(after, "stage.queue_ms", "p50_ms");
        report.solveMsP50 = histField(after, "stage.solve_ms", "p50_ms");
        report.partialWrites = counterOf(after, "server.partial_writes");
        // Reconciliation on deltas (an external server may carry prior
        // traffic): everything submitted during the stage completed,
        // and the terminal statuses partition the completions.
        const double submitted = counterOf(after, "jobs.submitted")
                                 - counterOf(before, "jobs.submitted");
        const double completed = counterOf(after, "jobs.completed")
                                 - counterOf(before, "jobs.completed");
        const double terminal =
            counterOf(after, "jobs.ok") - counterOf(before, "jobs.ok")
            + counterOf(after, "jobs.error")
            - counterOf(before, "jobs.error")
            + counterOf(after, "jobs.cancelled")
            - counterOf(before, "jobs.cancelled")
            + counterOf(after, "jobs.expired")
            - counterOf(before, "jobs.expired");
        report.reconciled = submitted == completed
                            && terminal == completed
                            && submitted
                                   == static_cast<double>(total_sent)
                                          - /* rejected lines never
                                               reach the scheduler */
                                          [&] {
                                              long rejected = 0;
                                              for (const auto &r :
                                                   report.rungs)
                                                  rejected += r.errorLines;
                                              return static_cast<double>(
                                                  rejected);
                                          }();
    } else {
        report.reconciled = false;
    }

    if (server)
        server->drain();
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto intArg = [&](int &out) {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            out = std::atoi(argv[++i]);
        };
        if (arg == "--connections" && i + 1 < argc) {
            cfg.connections.clear();
            std::string list = argv[++i];
            for (std::size_t pos = 0; pos < list.size();) {
                const auto comma = list.find(',', pos);
                cfg.connections.push_back(
                    std::atoi(list.substr(pos, comma - pos).c_str()));
                pos = comma == std::string::npos ? list.size() : comma + 1;
            }
        } else if (arg == "--rates" && i + 1 < argc) {
            cfg.rates.clear();
            std::string list = argv[++i];
            for (std::size_t pos = 0; pos < list.size();) {
                const auto comma = list.find(',', pos);
                cfg.rates.push_back(
                    std::atof(list.substr(pos, comma - pos).c_str()));
                pos = comma == std::string::npos ? list.size() : comma + 1;
            }
        } else if (arg == "--duration-s" && i + 1 < argc) {
            cfg.durationSeconds = std::atof(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--workers") {
            intArg(cfg.workers);
        } else if (arg == "--port") {
            intArg(cfg.port);
        } else if (arg == "--check") {
            cfg.check = true;
        } else if (arg == "--out" && i + 1 < argc) {
            cfg.outPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: " << argv[0]
                << " [--connections N,N,...] [--rates R,R,...]\n"
                   "       [--duration-s S] [--seed S] [--workers N]\n"
                   "       [--port P] [--check] [--out FILE]\n";
            return 0;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    // 1024 connections need 1024 fds on each side; in-process mode
    // holds both sides, so lift the soft limit to the hard one.
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) == 0
        && lim.rlim_cur < lim.rlim_max) {
        lim.rlim_cur = lim.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &lim);
    }

    std::cout << "=== bench_load: open-loop, seed " << cfg.seed << ", "
              << cfg.durationSeconds << " s/rung, "
              << (cfg.port ? "external server" : "in-process server")
              << " ===\n";

    std::vector<StageReport> stages;
    bool ok = true;
    for (const int conns : cfg.connections) {
        StageReport stage = runStage(cfg, conns);
        const auto &b = stage.best;
        std::cout << "conns=" << conns << ": max sustained "
                  << (stage.sustainedAny ? b.offered : 0.0)
                  << " jobs/s (achieved " << b.achieved << "), p50 "
                  << percentile(b.latenciesMs, 0.5) << " ms, p99 "
                  << percentile(b.latenciesMs, 0.99) << " ms, p99.9 "
                  << percentile(b.latenciesMs, 0.999)
                  << " ms; reconciled: "
                  << (stage.reconciled ? "yes" : "NO") << "\n";
        if (cfg.check) {
            long violations = 0;
            for (const auto &r : stage.rungs)
                violations += r.malformedLines + r.misdelivered
                              + r.outOfOrder + r.duplicates
                              + (r.sent - r.responses);
            if (violations != 0 || !stage.reconciled
                || !stage.sustainedAny) {
                std::cerr << "bench_load: CHECK FAILED at conns=" << conns
                          << " (violations=" << violations
                          << ", reconciled=" << stage.reconciled
                          << ", sustained=" << stage.sustainedAny << ")\n";
                ok = false;
            }
        }
        stages.push_back(std::move(stage));
    }

    service::Json doc = service::Json::object();
    doc.set("bench", "load");
    doc.set("open_loop", true);
    doc.set("seed", static_cast<double>(cfg.seed));
    doc.set("duration_s_per_rung", cfg.durationSeconds);
    doc.set("workers", cfg.workers);
    doc.set("external_server", cfg.port != 0);
    doc.set("hardware_concurrency",
            static_cast<double>(std::thread::hardware_concurrency()));
    service::Json stage_array = service::Json::array();
    for (const auto &s : stages) {
        service::Json entry = service::Json::object();
        entry.set("connections", s.connections);
        entry.set("max_sustainable_jobs_per_sec",
                  s.sustainedAny ? s.best.offered : 0.0);
        entry.set("offered_jobs_per_sec", s.best.offered);
        entry.set("achieved_jobs_per_sec", s.best.achieved);
        entry.set("latency_p50_ms", percentile(s.best.latenciesMs, 0.5));
        entry.set("latency_p99_ms", percentile(s.best.latenciesMs, 0.99));
        entry.set("latency_p999_ms",
                  percentile(s.best.latenciesMs, 0.999));
        entry.set("jobs_sent", static_cast<double>(s.best.sent));
        entry.set("responses", static_cast<double>(s.best.responses));
        entry.set("error_lines", static_cast<double>(s.best.errorLines));
        entry.set("malformed_lines",
                  static_cast<double>(s.best.malformedLines));
        entry.set("out_of_order", static_cast<double>(s.best.outOfOrder));
        entry.set("reconciled", s.reconciled);
        service::Json server_doc = service::Json::object();
        server_doc.set("accept_ms_avg", s.acceptMsAvg);
        server_doc.set("idle_before_first_request_ms_avg",
                       s.idleBeforeFirstRequestMsAvg);
        server_doc.set("first_byte_ms_avg", s.firstByteMsAvg);
        server_doc.set("stage_queue_ms_p50", s.queueMsP50);
        server_doc.set("stage_solve_ms_p50", s.solveMsP50);
        server_doc.set("partial_writes", s.partialWrites);
        entry.set("server", std::move(server_doc));
        stage_array.push(std::move(entry));
    }
    doc.set("stages", std::move(stage_array));

    std::ofstream out(cfg.outPath);
    out << doc.pretty() << "\n";
    std::cout << "wrote " << cfg.outPath << "\n";
    return ok ? 0 : 1;
}
