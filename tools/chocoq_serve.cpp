/**
 * @file
 * chocoq_serve: JSONL solve server.
 *
 * Two front-ends over the same concurrent solve service:
 *
 * - Batch (default): read one JSON job request per line from a file or
 *   stdin, solve on the worker pool, stream one JSON result per line to
 *   stdout as jobs complete, exit when the stream is drained.
 * - Long-lived (--listen PORT): accept TCP connections on loopback and
 *   speak the same JSONL protocol per connection, with backpressure,
 *   idle timeouts, and graceful drain on SIGINT/SIGTERM (in-flight jobs
 *   finish, results flush, then the process exits 0).
 *
 * The wire contract — request/response fields, error-line shape,
 * overload responses, connection lifecycle — lives in docs/protocol.md;
 * both modes are cross-checked against each other in CI.
 *
 *   $ printf '%s\n' \
 *       '{"id":"a","scale":"F1","case":0,"seed":11}' \
 *       '{"id":"b","scale":"K1","case":1,"solver":"penalty"}' \
 *     | chocoq_serve --workers 4
 *
 *   $ chocoq_serve --listen 7077 --workers 4 &
 *   $ printf '{"id":"a","scale":"F1","seed":11}\n' | nc 127.0.0.1 7077
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "problems/suite.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "spec/spec.hpp"

namespace
{

#ifndef CHOCOQ_VERSION_STRING
#define CHOCOQ_VERSION_STRING "unknown"
#endif

void
usage(const char *argv0)
{
    std::cout
        << "usage: " << argv0 << " [options]\n"
        << "  --input FILE   read JSONL job requests from FILE (default: "
           "stdin)\n"
        << "  --workers N    concurrent solve workers, 1 to 1024 "
           "(default: 1)\n"
        << "  --iters N      default optimizer iteration budget for jobs "
           "that\n"
        << "                 don't set \"iters\", 0 to 2^30 (default: 0 = "
           "solver\n"
        << "                 defaults)\n"
        << "  --cache-mb N   compilation-cache byte budget in MiB "
           "(default: 256,\n"
        << "                 0 = unbounded); coldest artifacts are "
           "evicted first\n"
        << "  --max-line-bytes N  longest accepted request line "
           "(default: 1 MiB;\n"
        << "                 0 = unbounded in batch mode, 1 MiB on the "
           "socket)\n"
        << "  --max-qubits N      most variables an inline \"problem\" "
           "spec may\n"
        << "                 declare (default: 28, hard ceiling 62)\n"
        << "  --max-spec-bytes N  largest serialized inline problem "
           "object\n"
        << "                 (default: 256 KiB); over-cap specs fail "
           "per-line\n"
        << "  --registry-mb N     inline-problem registry byte budget in "
           "MiB\n"
        << "                 (default: 64, 0 = unbounded); coldest "
           "problems are\n"
        << "                 evicted first (their problem_ref then "
           "misses)\n"
        << "  --dump-spec SCALE:CASE  print the inline-problem spec JSON "
           "of a\n"
        << "                 registry case (e.g. F1:0) and exit\n"
        << "  --quiet        suppress the stderr summary\n"
        << "  --help, -h     show this help and exit\n"
        << "  --version      print the version and exit\n"
        << "\nLong-lived server mode (see docs/protocol.md):\n"
        << "  --listen PORT       accept JSONL connections on "
           "127.0.0.1:PORT\n"
        << "                      (0 picks an ephemeral port); SIGINT/"
           "SIGTERM\n"
        << "                      drain gracefully and exit 0\n"
        << "  --max-inflight N    reject requests over N jobs in flight "
           "with a\n"
        << "                      status \"rejected\" line (default: 256, "
           "0 = off)\n"
        << "  --idle-timeout-ms N close a connection idle for N ms with "
           "no job\n"
        << "                      in flight (default: 0 = never)\n"
        << "  --max-conns N       concurrently open connections; over "
           "the bound a\n"
        << "                      connection gets one rejected line and "
           "closes\n"
        << "                      (default: 1024, 0 = unbounded)\n"
        << "  --port-file FILE    write the bound port to FILE once "
           "listening\n"
        << "\nRobustness (both modes; see docs/service.md):\n"
        << "  --stall-threshold-ms N  count a job that keeps its worker "
           "busy for\n"
        << "                      N ms or more as a stall, once per job "
           "(health\n"
        << "                      probe, stats counter scheduler."
           "stalls_flagged\n"
        << "                      and summary; default: 30000, 0 = off)\n"
        << "  --fault-spec SPEC   deterministic fault injection: comma-"
           "separated\n"
        << "                      site=prob[:ms] clauses plus seed=N; "
           "sites are\n"
        << "                      stall and alloc_fail (e.g. "
           "'stall=0.5:400,seed=9');\n"
        << "                      unset means no injection anywhere\n"
        << "\nObservability (both modes; see docs/observability.md):\n"
        << "  --metrics-file FILE     append one JSON metrics snapshot "
           "per line\n"
        << "                      (JSONL, same body as the {\"type\":"
           "\"stats\"}\n"
        << "                      probe plus \"unix_ms\"); one snapshot "
           "per\n"
        << "                      interval and a final one at shutdown\n"
        << "  --metrics-interval-ms N snapshot period for --metrics-file "
           "in ms\n"
        << "                      (default: 1000)\n"
        << "\nUnknown options are rejected with exit status 2.\n";
}

/** Signal flag: handlers only set it; the main loop does the work. */
volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** Parse a CLI integer in [@p lo, @p hi] (lo >= 0) or exit 2. */
long long
parsedNonNegative(const char *raw, const char *flag, long long hi,
                  long long lo = 0)
{
    char *end = nullptr;
    const long long v = std::strtoll(raw, &end, 10);
    if (end == raw || *end != '\0' || v < lo || v > hi) {
        std::cerr << flag << " expects an integer in [" << lo << ", " << hi
                  << "], got '" << raw << "'\n";
        std::exit(2);
    }
    return v;
}

/** One counter off the service's books (every name the summaries read
 * is registered when the service or server is built). */
std::uint64_t
books(chocoq::service::SolveService &service, const char *name)
{
    return service.metrics().counter(name).value();
}

/**
 * Robustness lines: stall/cancellation counters (only when any fired —
 * a clean run stays clean), and injection counts whenever a fault spec
 * was active (even all-zero counts are informative there: they confirm
 * the harness ran and injected nothing).
 */
void
printRobustnessSummary(chocoq::service::SolveService &service,
                       const chocoq::service::FaultInjector *fault)
{
    const auto health = service.health();
    if (health.stallsFlagged > 0 || health.cancelledJobs > 0
        || health.expiredJobs > 0)
        std::cerr << "chocoq_serve: robustness " << health.stallsFlagged
                  << " stalls flagged / " << health.cancelledJobs
                  << " cancelled / " << health.expiredJobs << " expired\n";
    if (fault)
        std::cerr << "chocoq_serve: fault injection (seed "
                  << fault->spec().seed << ") "
                  << books(service, "faults.stalls") << " stalls / "
                  << books(service, "faults.alloc_fails")
                  << " alloc fails\n";
}

/** One registry line when inline problems were used at all. */
void
printRegistrySummary(const chocoq::service::SolveService &service)
{
    const auto reg = service.registryStats();
    if (reg.inserted == 0 && reg.refMisses == 0)
        return;
    std::cerr << "chocoq_serve: problem registry " << reg.inserted
              << " registered / " << reg.reused << " reused / "
              << reg.refHits << " ref hits / " << reg.refMisses
              << " ref misses / " << reg.evictions << " evictions ("
              << reg.bytes << " bytes held)\n";
}

void
printSummary(chocoq::service::SolveService &service, std::uint64_t failed,
             double seconds, const chocoq::service::FaultInjector *fault)
{
    const auto cache = service.cacheStats();
    const std::uint64_t submitted = books(service, "jobs.submitted");
    std::cerr << "chocoq_serve: " << submitted << " jobs on "
              << service.workers() << " workers in " << seconds << " s ("
              << (seconds > 0 ? static_cast<double>(submitted) / seconds
                              : 0.0)
              << " jobs/s), cache " << cache.hits << " hits / "
              << cache.misses << " misses / " << cache.evictions
              << " evictions (" << cache.bytes << " bytes held), " << failed
              << " failed\n";
    printRegistrySummary(service);
    printRobustnessSummary(service, fault);
}

/**
 * Periodic JSONL metrics snapshots (--metrics-file): one line per
 * interval, same body as the {"type":"stats"} probe plus "unix_ms", and
 * a final line at shutdown so even a short batch run leaves a record.
 * Reading the registry is lock-cheap (registration mutex only), so the
 * writer thread never perturbs the serving path.
 */
class MetricsFileWriter
{
  public:
    MetricsFileWriter(const chocoq::service::SolveService &service,
                      const std::string &path, int interval_ms)
        : service_(service), intervalMs_(interval_ms)
    {
        out_.open(path, std::ios::app);
        if (!out_) {
            std::cerr << "cannot open metrics file " << path << "\n";
            std::exit(2);
        }
        thread_ = std::thread([this] { loop(); });
    }

    ~MetricsFileWriter() { stop(); }

    /** Write the final snapshot and join; idempotent. */
    void stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stop_)
                return;
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void writeSnapshot()
    {
        chocoq::service::Json line =
            chocoq::service::statsToJson(service_);
        line.set("unix_ms",
                 static_cast<double>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now()
                             .time_since_epoch())
                         .count()));
        out_ << line.dump() << "\n";
        out_.flush();
    }

    void loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                         [this] { return stop_; });
            if (stop_)
                break;
            lock.unlock();
            writeSnapshot();
            lock.lock();
        }
        writeSnapshot(); // shutdown snapshot: the run's final counts
    }

    const chocoq::service::SolveService &service_;
    const int intervalMs_;
    std::ofstream out_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string input_path;
    std::string port_file;
    std::string metrics_file;
    int metrics_interval_ms = 1000;
    chocoq::service::ServiceOptions options;
    chocoq::service::ServerOptions server_options;
    bool quiet = false;
    bool listen = false;
    // Line and spec bounds, shared by both front-ends.
    chocoq::service::StreamLimits &limits = server_options.limits;
    std::string fault_spec_text;
    // Server-only flags are meaningless in batch mode; accepting them
    // silently would let an operator believe a bound is in effect.
    std::string server_only_flag;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--input") {
            input_path = next();
        } else if (arg == "--workers") {
            options.workers = static_cast<int>(
                parsedNonNegative(next(), "--workers", 1024, 1));
        } else if (arg == "--iters") {
            // The wire "iters" range: every default a job could carry.
            options.defaultIterations = static_cast<int>(
                parsedNonNegative(next(), "--iters", 1 << 30));
        } else if (arg == "--cache-mb") {
            // Untrusted CLI input: a typo or negative value must not
            // silently wrap into a near-unbounded budget.
            const long long mb =
                parsedNonNegative(next(), "--cache-mb", 1ll << 40);
            options.cacheMaxBytes = static_cast<std::size_t>(mb) << 20;
        } else if (arg == "--listen") {
            listen = true;
            server_options.port = static_cast<int>(
                parsedNonNegative(next(), "--listen", 65535));
        } else if (arg == "--max-inflight") {
            server_only_flag = arg;
            server_options.maxInflight = static_cast<int>(
                parsedNonNegative(next(), "--max-inflight", 1 << 30));
        } else if (arg == "--idle-timeout-ms") {
            server_only_flag = arg;
            server_options.idleTimeoutMs = static_cast<int>(
                parsedNonNegative(next(), "--idle-timeout-ms", 1 << 30));
        } else if (arg == "--max-conns") {
            server_only_flag = arg;
            server_options.maxConnections = static_cast<int>(
                parsedNonNegative(next(), "--max-conns", 1 << 30));
        } else if (arg == "--max-line-bytes") {
            // Applies to both modes (0 = unbounded batch; the socket
            // path clamps 0 to its 1 MiB default).
            limits.maxLineBytes = static_cast<std::size_t>(
                parsedNonNegative(next(), "--max-line-bytes", 1ll << 40));
        } else if (arg == "--max-qubits") {
            // Both modes: the spec guards are part of the protocol, not
            // a socket-only defense. 0 would reject every inline
            // problem with an impossible [1, 0] range — refuse it here.
            limits.spec.maxQubits = static_cast<int>(
                parsedNonNegative(next(), "--max-qubits", 62, 1));
        } else if (arg == "--max-spec-bytes") {
            limits.spec.maxSpecBytes = static_cast<std::size_t>(
                parsedNonNegative(next(), "--max-spec-bytes", 1ll << 40));
        } else if (arg == "--registry-mb") {
            const long long mb =
                parsedNonNegative(next(), "--registry-mb", 1ll << 40);
            options.registryMaxBytes = static_cast<std::size_t>(mb) << 20;
        } else if (arg == "--stall-threshold-ms") {
            options.stallThresholdMs = static_cast<int>(
                parsedNonNegative(next(), "--stall-threshold-ms", 1 << 30));
        } else if (arg == "--fault-spec") {
            fault_spec_text = next();
        } else if (arg == "--dump-spec") {
            // Operator/CI helper: transcribe a registry case into the
            // inline-problem wire format (see docs/protocol.md).
            const std::string which = next();
            const auto colon = which.find(':');
            const auto scale = chocoq::problems::scaleByName(
                which.substr(0, colon));
            if (!scale) {
                std::cerr << "--dump-spec expects SCALE:CASE (e.g. F1:0), "
                          << "got '" << which << "'\n";
                return 2;
            }
            const unsigned case_index =
                colon == std::string::npos
                    ? 0
                    : static_cast<unsigned>(parsedNonNegative(
                          which.c_str() + colon + 1, "--dump-spec case",
                          1u << 30));
            std::cout << chocoq::spec::problemToSpecJson(
                             chocoq::problems::makeCase(*scale, case_index))
                             .dump()
                      << "\n";
            return 0;
        } else if (arg == "--metrics-file") {
            metrics_file = next();
        } else if (arg == "--metrics-interval-ms") {
            metrics_interval_ms = static_cast<int>(parsedNonNegative(
                next(), "--metrics-interval-ms", 1 << 30, 1));
        } else if (arg == "--port-file") {
            server_only_flag = arg;
            port_file = next();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--version") {
            std::cout << "chocoq_serve " << CHOCOQ_VERSION_STRING << "\n";
            return 0;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage(argv[0]);
            return 2;
        }
    }

    if (listen && !input_path.empty()) {
        std::cerr << "--listen and --input are mutually exclusive\n";
        return 2;
    }
    if (!listen && !server_only_flag.empty()) {
        std::cerr << server_only_flag << " requires --listen\n";
        return 2;
    }

    // Fault-spec grammar errors are operator errors: exit 2 before
    // anything is bound or any worker starts.
    chocoq::service::FaultSpec fault_spec;
    if (!fault_spec_text.empty()) {
        try {
            fault_spec = chocoq::service::parseFaultSpec(fault_spec_text);
        } catch (const std::exception &e) {
            std::cerr << "chocoq_serve: --fault-spec: " << e.what() << "\n";
            return 2;
        }
    }
    // The injector outlives the service (non-owning pointer); it is
    // only wired in when a clause actually enables a site, so an unset
    // or all-zero spec leaves every hot path untouched.
    chocoq::service::FaultInjector fault_injector(fault_spec);
    if (fault_spec.enabled())
        options.fault = &fault_injector;

    chocoq::service::SolveService service(options);
    chocoq::Timer wall;

    std::unique_ptr<MetricsFileWriter> metrics_writer;
    if (!metrics_file.empty())
        metrics_writer = std::make_unique<MetricsFileWriter>(
            service, metrics_file, metrics_interval_ms);

    if (listen) {
        // Handlers go in before anything is externally observable: a
        // supervisor that reacts to the port file (or the banner) may
        // SIGTERM immediately, and that must already mean "drain", not
        // the default kill.
        struct sigaction sa {};
        sa.sa_handler = onSignal;
        sigaction(SIGINT, &sa, nullptr);
        sigaction(SIGTERM, &sa, nullptr);

        chocoq::service::Server server(service, server_options);
        try {
            server.start();
        } catch (const std::exception &e) {
            std::cerr << "chocoq_serve: " << e.what() << "\n";
            return 2;
        }
        if (!port_file.empty()) {
            // Whoever waits for this file would wait out its own
            // timeout; fail now instead (the Server destructor drains).
            std::ofstream pf(port_file);
            if (!(pf << server.port() << "\n" << std::flush)) {
                std::cerr << "chocoq_serve: cannot write --port-file "
                          << port_file << "\n";
                return 2;
            }
        }
        std::cerr << "chocoq_serve: listening on "
                  << server_options.bindAddress << ":" << server.port()
                  << " (" << service.workers() << " workers)\n";

        while (!g_stop)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));

        // Graceful drain: finish accepted jobs, flush results, close.
        server.drain();
        if (metrics_writer)
            metrics_writer->stop(); // final snapshot sees drained counts
        if (!quiet) {
            // No jobs/s here: lifetime-averaged throughput of a
            // long-lived (mostly idle) server would only mislead.
            const auto cache = service.cacheStats();
            std::cerr << "chocoq_serve: " << books(service, "jobs.submitted")
                      << " jobs on " << service.workers()
                      << " workers over " << wall.seconds()
                      << " s lifetime, cache " << cache.hits << " hits / "
                      << cache.misses << " misses / " << cache.evictions
                      << " evictions (" << cache.bytes << " bytes held), "
                      << books(service, "jobs.completed")
                             - books(service, "jobs.ok")
                      << " failed\n";
            printRegistrySummary(service);
            printRobustnessSummary(service, options.fault);
            std::cerr << "chocoq_serve: "
                      << books(service, "server.connections_accepted")
                      << " connections ("
                      << books(service, "server.connections_rejected")
                      << " refused), "
                      << books(service, "server.results_written")
                      << " results written, "
                      << books(service, "server.rejected") << " rejected, "
                      << books(service, "requests.line_errors")
                      << " malformed lines, "
                      << books(service, "server.idle_closes")
                      << " idle closes; drained\n";
            // Control-plane traffic gets its own line only when any
            // occurred; a server that never saw a cancel or a health
            // probe keeps the familiar two-line epilogue.
            const std::uint64_t cancels = books(service, "requests.cancel");
            const std::uint64_t probes = books(service, "requests.health");
            const std::uint64_t cancelled = books(service, "jobs.cancelled");
            const std::uint64_t dropped =
                books(service, "server.disconnect_cancels");
            if (cancels > 0 || probes > 0 || cancelled > 0 || dropped > 0)
                std::cerr << "chocoq_serve: control " << cancels
                          << " cancel requests / " << probes
                          << " health probes, " << cancelled
                          << " jobs cancelled (" << dropped
                          << " by disconnect)\n";
        }
        return 0;
    }

    std::ifstream file;
    if (!input_path.empty()) {
        file.open(input_path);
        if (!file) {
            std::cerr << "cannot open " << input_path << "\n";
            return 2;
        }
    }
    std::istream &in = input_path.empty() ? std::cin : file;

    chocoq::service::runJsonlStream(in, std::cout, service, limits);
    if (metrics_writer)
        metrics_writer->stop(); // final snapshot sees drained counts
    // Failed: per-line errors plus jobs that finished with any status
    // but ok.
    const std::uint64_t failed = books(service, "requests.line_errors")
                                 + books(service, "jobs.completed")
                                 - books(service, "jobs.ok");
    if (!quiet)
        printSummary(service, failed, wall.seconds(), options.fault);
    return failed == 0 ? 0 : 1;
}
