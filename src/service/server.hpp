/**
 * @file
 * Network front-end of the solve service: a long-lived TCP accept loop
 * speaking the JSONL protocol (docs/protocol.md) per connection, plus
 * the shared request-stream plumbing the stdin batch mode is built on.
 *
 * Design: one poll(2) event loop. Non-blocking sockets are multiplexed
 * by a small fixed set of shard threads, each owning a private
 * connection table (no cross-shard lock on the hot path). Reads are
 * level-triggered into a per-connection LineFramer; writes that cannot
 * complete in one send(2) are buffered and resumed when the loop
 * reports POLLOUT, so a slow reader costs buffered bytes, never a
 * blocked thread, and an idle connection costs no thread at all
 * (docs/service.md#socket-front-end).
 *
 * Requests are parsed off the socket and fed into the shared
 * SolveService scheduler; each result is serialized back on the
 * connection that submitted it, in completion order, under a
 * per-connection write lock. Overload protection is explicit: when the
 * server-wide in-flight bound is reached, a request is answered with a
 * "rejected" line instead of queueing without bound — immediately, or
 * after the bounded --queue-wait park (the client owns the retry
 * policy; see docs/protocol.md).
 *
 * Shutdown contract (graceful drain): requestStop() — or the SIGINT /
 * SIGTERM handler in chocoq_serve that calls it — closes the listener,
 * stops reading new requests, lets every accepted job finish and its
 * result flush to its connection, then closes the connections. drain()
 * blocks until that has happened.
 */

#ifndef CHOCOQ_SERVICE_SERVER_HPP
#define CHOCOQ_SERVICE_SERVER_HPP

#include <atomic>
#include <cstddef>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace chocoq::service
{

/** True when @p s is well-formed UTF-8 (shortest-form, no surrogates,
 * <= U+10FFFF). Request lines are rejected up front when this fails so
 * result streams never echo invalid byte sequences back out. */
bool utf8Valid(const std::string &s);

/** Limits shared by every JSONL request front-end (stdin and socket). */
struct StreamLimits
{
    /**
     * Longest accepted request line in bytes (excluding the newline).
     * A longer line is failed with a per-line error response and
     * discarded without buffering more than this many bytes of it.
     * 0 disables the check (batch fixtures only; the socket path always
     * enforces a bound).
     */
    std::size_t maxLineBytes = 1 << 20;
    /** Resource guards for inline problem specs (see spec/spec.hpp);
     * an over-cap spec fails per-line like any other invalid field. */
    spec::SpecLimits spec;
};

/** Control-request kinds carried on the same JSONL stream as jobs. */
enum class ControlKind
{
    /** Not a control request: a job (or a skip/error). */
    None,
    /** {"type":"cancel","id":...}: cancel active jobs with that id. */
    Cancel,
    /** {"type":"health"}: service liveness/queue probe. */
    Health,
    /** {"type":"stats"}: cumulative metrics-registry snapshot. */
    Stats,
};

/** What became of one raw request line. */
struct ParsedLine
{
    /** Blank line or # comment: produce no response at all. */
    bool skip = false;
    /** Parse outcome when not skipped. */
    bool ok = false;
    /** Control request ({"type":...}); job/error unused when set. */
    ControlKind control = ControlKind::None;
    /** Target job id of a Cancel control request. */
    std::string cancelId;
    /** Valid when ok. */
    SolveJob job;
    /** Error response when !ok (status "error", id "line-N"). */
    SolveResult error;
};

/**
 * Classify one raw request line: blank/comment lines are skipped,
 * oversized (@p oversized, decided by the caller's line reader),
 * non-UTF-8, malformed-JSON, and invalid-field lines (including inline
 * problem specs failing validation or the resource guards in @p limits)
 * become per-line error results named "line-@p lineno", and everything
 * else parses into a SolveJob (with an empty id defaulted to
 * "job-@p lineno"). Never throws on hostile input — that is the point.
 */
ParsedLine parseRequestLine(const std::string &line, long lineno,
                            bool oversized = false,
                            const spec::SpecLimits &limits = {});

/** Counters of one batch-stream run. */
struct StreamStats
{
    long submitted = 0;
    /** Failed results: per-line errors plus jobs whose status != ok. */
    long failed = 0;
    /** {"type":"cancel"} control requests processed. */
    long cancelRequests = 0;
    /** {"type":"health"} probes answered. */
    long healthProbes = 0;
    /** {"type":"stats"} probes answered. */
    long statsProbes = 0;
};

/** One {"type":"health"} response body (shared by both front-ends). */
Json healthToJson(const SolveService::Health &h);

/** One {"type":"stats"} response body (shared by both front-ends):
 * {"type","status"} followed by every section of
 * SolveService::metricsToJson(). */
Json statsToJson(const SolveService &service);

/**
 * Bounded line-framing state machine of the socket front-end: the
 * runJsonlStream framing rules — oversized lines fail per-line and
 * are discarded through their newline without ever buffering more than
 * the bound, and a truncated final "tail" line is still a request —
 * applied to an incrementally fed byte buffer instead of an istream.
 * Single-threaded by design: each connection owns one.
 */
class LineFramer
{
  public:
    /** @p maxLineBytes 0 falls back to the 1 MiB socket default. */
    explicit LineFramer(std::size_t maxLineBytes = 1 << 20)
        : maxLine_(maxLineBytes > 0 ? maxLineBytes : (std::size_t{1} << 20))
    {}

    /** One framed line. An oversized line comes back with empty text
     * and oversized set — its bytes are already discarded. */
    struct Line
    {
        std::string text;
        long lineno = 0;
        bool oversized = false;
    };

    /** Append raw received bytes. While inside the tail of an
     * oversized line, bytes up to its newline are dropped unbuffered. */
    void feed(const char *data, std::size_t n);

    /** Pop the next complete line (or an oversized verdict the moment
     * the partial buffer exceeds the bound). False = need more bytes. */
    bool next(Line &out);

    /** The truncated final line at EOF/close, if any. Consumes it. */
    bool tail(Line &out);

    /** Inside the unterminated tail of an oversized line? */
    bool discarding() const { return discarding_; }

    /** Bytes buffered awaiting a newline. */
    std::size_t buffered() const { return buf_.size() - start_; }

  private:
    std::string buf_;
    std::size_t start_ = 0;
    std::size_t maxLine_;
    long lineno_ = 0;
    bool discarding_ = false;
};

/**
 * The stdin/file batch front-end: read JSONL requests from @p in until
 * EOF (with a bounded line reader — oversized lines fail per-line, a
 * truncated final line without a newline is still processed), submit
 * them to @p service, and stream one JSON result per line to @p out in
 * completion order. Blocks until every job has completed. Used by
 * `chocoq_serve` without --listen and exercised directly by the
 * hostile-input tests.
 */
StreamStats runJsonlStream(std::istream &in, std::ostream &out,
                           SolveService &service,
                           const StreamLimits &limits = {});

/** Server configuration (see docs/protocol.md for the wire contract). */
struct ServerOptions
{
    /** TCP port to listen on; 0 picks an ephemeral port (see port()). */
    int port = 0;
    /** Bind address. Loopback by default: chocoq_serve is an operator
     * tool, exposing it beyond the host is an explicit decision. */
    std::string bindAddress = "127.0.0.1";
    /** listen(2) backlog. */
    int backlog = 16;
    /**
     * Server-wide bound on jobs accepted but not yet completed. A
     * request arriving at the bound is answered immediately with a
     * status "rejected" line (never silently dropped, never queued
     * without bound). 0 = unbounded.
     */
    int maxInflight = 256;
    /**
     * Bounded wait-queue for over-capacity requests (--queue-wait): a
     * request arriving at the maxInflight bound is parked for up to
     * this long — or until its own deadline_ms would expire in queue,
     * whichever is sooner — before the "rejected" answer. Parking is
     * per connection: the connection stops reading further requests
     * while one waits, so TCP backpressure propagates to the sender and
     * at most one request per connection is in limbo. Time spent
     * waiting counts against the job's deadline_ms. Drain ends every
     * wait with the rejection. 0 = reject immediately.
     */
    int queueWaitMs = 0;
    /** Resource guards for inline problem specs on this server. */
    spec::SpecLimits specLimits;
    /**
     * Close a connection after this long with no bytes received and no
     * job of its own in flight. 0 = never. Results of in-flight jobs
     * always flush before an idle close.
     */
    int idleTimeoutMs = 0;
    /**
     * Requests accepted per connection before the server answers with a
     * "rejected" line and closes it (after flushing in-flight results).
     * 0 = unlimited.
     */
    int maxRequestsPerConn = 0;
    /**
     * Concurrently open connections. A connection accepted past the
     * bound is answered with a single "rejected" line and closed
     * immediately. 0 = unbounded.
     */
    int maxConnections = 1024;
    /** Longest accepted request line on a connection, in bytes
     * (0 falls back to the 1 MiB default — the socket path always
     * enforces a bound). */
    std::size_t maxLineBytes = 1 << 20;
    /**
     * Write-stall bound. A client that stops reading fills its socket
     * buffer and then the connection's output buffer; once pending
     * output has made no progress for this long, the connection is
     * marked broken, its in-flight jobs are cancelled and its remaining
     * results dropped, so a stalled reader can never wedge drain.
     * 0 = never declare a stall.
     */
    int sendTimeoutMs = 10000;
    /** Poll granularity of the accept and shard loops; bounds how stale
     * the stop flag and idle clocks can get. */
    int pollTickMs = 20;
    /**
     * Write backpressure: once a connection's buffered unsent output
     * exceeds this many bytes, the loop stops reading its requests
     * until the buffer drains below the bound (TCP backpressure then
     * reaches the sender). Results of already accepted jobs still
     * append past the bound — the true cap is this plus maxInflight
     * result lines — so a slow reader can never deadlock its own
     * completions. 0 = never pause reads.
     */
    std::size_t maxWriteBufferBytes = std::size_t{4} << 20;
    /**
     * SO_SNDBUF override on accepted connections, in bytes (0 = OS
     * default). Shrinking it makes write backpressure trip early —
     * used by the torture tests; rarely useful in production.
     */
    int sendBufferBytes = 0;
    /**
     * Optional fault injector shared with the service (non-owning).
     * Wire-level sites: conn_reset (an accepted connection is RST
     * before serving) and read_delay (a pause after each socket read).
     * nullptr = no injection.
     */
    FaultInjector *fault = nullptr;
};

/** Monotonic counters over the server's lifetime. */
struct ServerStats
{
    long connectionsAccepted = 0;
    long connectionsOpen = 0;
    /** Requests accepted into the scheduler (not skips or rejects). */
    long requestsAccepted = 0;
    /** Accepted jobs that completed with a non-ok status
     * (error/expired), mirroring batch mode's failed count. */
    long jobsFailed = 0;
    /** Results written back (includes per-line error responses). */
    long resultsWritten = 0;
    /** Requests answered with status "rejected" (overload or
     * per-connection limit). */
    long rejected = 0;
    /** Over-capacity requests that waited in the bounded queue
     * (--queue-wait) and were then accepted when a slot freed. */
    long queueWaited = 0;
    /** Connections refused at the maxConnections bound. */
    long connectionsRejected = 0;
    /** Per-line error responses (malformed input). */
    long lineErrors = 0;
    long idleCloses = 0;
    /** {"type":"cancel"} requests processed. */
    long cancelRequests = 0;
    /** {"type":"health"} probes answered. */
    long healthProbes = 0;
    /** {"type":"stats"} probes answered. */
    long statsProbes = 0;
    /** Jobs that finished "cancelled" (explicit cancel or disconnect). */
    long jobsCancelled = 0;
    /** Connections dropped mid-job, cancelling their in-flight work.
     * Counted at most once per connection, whichever of the read-error
     * or failed-write paths observes the drop first. */
    long disconnectCancels = 0;
    /** Result writes send(2) could not complete in one call — the
     * remainder was buffered and resumed via POLLOUT. */
    long partialWrites = 0;
    /** Accepted connections reset by fault injection (conn_reset). */
    long faultConnResets = 0;
};

/**
 * The TCP front-end. Owns the listening socket, the accept thread, and
 * the event-loop shard threads; jobs run on the SolveService passed in
 * (shared compile cache and worker pool across connections).
 */
class Server
{
  public:
    /** @p service must outlive the server. */
    Server(SolveService &service, ServerOptions opts = {});

    /** Drains (stop + join) if still running. */
    ~Server();

    /** Bind, listen, and start accepting. Throws FatalError when the
     * port cannot be bound. */
    void start();

    /** Port actually bound (resolves port 0 to the ephemeral choice). */
    int port() const { return port_; }

    /**
     * Flip the drain flag: stop accepting connections and reading new
     * requests. Safe to call from a signal handler's forwarding thread
     * or any other thread; returns immediately. drain() completes the
     * shutdown.
     */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /**
     * Graceful drain: requestStop(), then wait for every accepted job
     * to finish and its result to flush, close all connections and the
     * listener, and join the threads. Idempotent.
     */
    void drain();

    ServerStats stats() const;

  private:
    struct Connection;
    struct EventShard;

    void acceptLoop();
    /** Answer a cancel/health control request on this connection. */
    void handleControl(const std::shared_ptr<Connection> &conn,
                       const ParsedLine &parsed);
    /** Cancel every job this connection still has in flight (the
     * client dropped: nobody is left to read the results). Counts
     * disconnectCancels at most once per connection. */
    void cancelConnectionJobs(const std::shared_ptr<Connection> &conn);
    /** One non-blocking attempt at an in-flight slot. */
    bool tryReserveInflight();
    /** Counters + cancellation token + scheduler submit for a job that
     * already holds an in-flight slot. */
    void submitAccepted(const std::shared_ptr<Connection> &conn,
                        SolveJob &&job);
    /** Answer a status "rejected" over-capacity line for @p id. */
    void rejectCapacity(const std::shared_ptr<Connection> &conn,
                        const std::string &id);
    /** Answer a per-connection request-limit rejection, echoing the
     * request id when @p line parses (load shedding: id only, never
     * full validation). */
    void rejectAtLimit(const std::shared_ptr<Connection> &conn,
                       const std::string &line, long lineno);
    void writeLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line);

    // Event loop (all run on the owning shard's thread unless noted;
    // see the connection state machine in
    // docs/service.md#event-loop-connection-state-machine).
    void eventShardLoop(EventShard &sh);
    /** Frame and dispatch every complete buffered line; stops early
     * when the connection parks on a full server. */
    void eventProcessBuffer(const std::shared_ptr<Connection> &conn);
    /** Classify and dispatch one framed line (submit / control /
     * per-line error / park / reject). */
    void eventDispatchLine(const std::shared_ptr<Connection> &conn,
                           LineFramer::Line &&ln);
    /** Answer the truncated final line at EOF / idle close. */
    void eventAnswerTail(const std::shared_ptr<Connection> &conn);
    /** One recv(2) worth of progress on a readable connection. */
    void eventHandleReadable(const std::shared_ptr<Connection> &conn);
    /** Timers + state transitions: parked-job retry, idle timeout,
     * write-stall detection, finish (half-close) and close deadlines. */
    void eventHousekeep(const std::shared_ptr<Connection> &conn,
                        bool draining);
    /** Retry / expire a parked over-capacity request. */
    void eventResolveParked(const std::shared_ptr<Connection> &conn,
                            bool draining);
    /** Close the fd and undo the open-connection accounting. */
    void eventFinalize(const std::shared_ptr<Connection> &conn);
    /** Flush buffered output; writeMu must be held. False = peer gone
     * (the connection was marked broken). */
    bool flushOutputLocked(const std::shared_ptr<Connection> &conn);
    /** Mark broken + cancel in-flight jobs; writeMu must be held. */
    void markBrokenLocked(const std::shared_ptr<Connection> &conn);
    /** Interrupt a shard's poll(2) (self-pipe). Any thread. */
    void wakeShard(EventShard &sh);

    SolveService &service_;
    ServerOptions opts_;
    /** Connection-setup and first-response latency, recorded into the
     * service's metrics registry so the stats probe and bench_service's
     * socket suite read one source of truth. accept_ms is accept() to
     * shard pickup (server-controlled); idle_before_first_request_ms
     * is accept() to the connection's first received byte — the
     * client's connect-to-send turnaround, which open-loop harnesses
     * stretch arbitrarily by holding idle connections; first_byte_ms is
     * first received request byte to the first response byte written,
     * the server-side latency that used to be polluted by that idle
     * time when it was measured from accept(). */
    obs::Histogram &acceptMs_;
    obs::Histogram &idleBeforeFirstRequestMs_;
    obs::Histogram &firstByteMs_;
    /** Live connection count as a gauge (mirrors connectionsOpen_). */
    obs::Gauge &connOpenGauge_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    bool started_ = false;
    bool drained_ = false;
    /** Jobs accepted into the scheduler, not yet completed. */
    std::atomic<long> inflight_{0};

    std::thread acceptThread_;
    /** Event-loop shard threads (sized and started by start(), joined
     * by drain()). */
    std::vector<std::unique_ptr<EventShard>> shards_;

    // Stats counters (relaxed: observability only).
    std::atomic<long> connectionsAccepted_{0};
    std::atomic<long> connectionsOpen_{0};
    std::atomic<long> requestsAccepted_{0};
    std::atomic<long> jobsFailed_{0};
    std::atomic<long> resultsWritten_{0};
    std::atomic<long> rejected_{0};
    std::atomic<long> queueWaited_{0};
    std::atomic<long> connectionsRejected_{0};
    std::atomic<long> lineErrors_{0};
    std::atomic<long> idleCloses_{0};
    std::atomic<long> cancelRequests_{0};
    std::atomic<long> healthProbes_{0};
    std::atomic<long> statsProbes_{0};
    std::atomic<long> jobsCancelled_{0};
    std::atomic<long> disconnectCancels_{0};
    std::atomic<long> faultConnResets_{0};
    std::atomic<long> partialWrites_{0};
};

/**
 * Minimal blocking JSONL client over loopback, for the socket tests,
 * bench_service's socket-mode measurement, and ad-hoc tooling. Not part
 * of the serving data path.
 */
class JsonlClient
{
  public:
    /** Connect to 127.0.0.1:@p port. Throws FatalError on failure. */
    explicit JsonlClient(int port);
    ~JsonlClient();

    JsonlClient(const JsonlClient &) = delete;
    JsonlClient &operator=(const JsonlClient &) = delete;

    /** Send @p line plus a trailing newline. */
    void sendLine(const std::string &line);
    /** Send exact bytes (hostile-input tests build partial lines). */
    void sendRaw(const std::string &bytes);
    /** Half-close the write side: the server sees EOF and finishes the
     * connection after flushing in-flight results. */
    void shutdownWrite();
    /**
     * Abortive close: SO_LINGER{1,0} + close sends an RST instead of a
     * FIN, modeling a client that vanished mid-job (crash, network
     * partition). The server detects the reset and cancels this
     * connection's in-flight jobs; a plain close after half-close
     * would be indistinguishable from a patient client.
     */
    void abortConnection();

    /**
     * Read one newline-terminated line (the newline is stripped).
     * Returns false on EOF or after @p timeout_ms without a complete
     * line.
     */
    bool readLine(std::string &out, int timeout_ms = 10000);

    /** Raw socket fd, for tests that need pathological I/O patterns
     * (byte-at-a-time reads, tiny SO_RCVBUF) the line API hides. */
    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buf_;
};

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_SERVER_HPP
