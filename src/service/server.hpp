/**
 * @file
 * Network front-end of the solve service: a long-lived TCP server
 * speaking the JSONL protocol (docs/protocol.md) per connection, plus
 * the shared request-stream plumbing the stdin batch mode is built on.
 *
 * Design: one poll(2) event loop on one thread. It owns the
 * non-blocking listener, a self-pipe that other threads write to wake
 * it, and every connection. Reads are level-triggered into a
 * per-connection LineFramer; writes that cannot complete in one send(2)
 * are buffered and resumed when the loop reports POLLOUT, so a slow
 * reader costs buffered bytes, never a blocked thread, and an idle
 * connection costs no thread at all (docs/service.md#socket-front-end).
 *
 * Requests are parsed off the socket and fed into the shared
 * SolveService scheduler; each result is serialized back on the
 * connection that submitted it, in completion order, under a
 * per-connection write lock. Overload protection is explicit: when the
 * server-wide in-flight bound is reached, a request is answered at once
 * with a "rejected" line instead of queueing without bound (the client
 * owns the retry policy, e.g. tools/socket_client.py --max-retries; see
 * docs/protocol.md).
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

#include "common/error.hpp"
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
     * Must be positive: both front-ends always enforce a bound.
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
    /** @p maxLineBytes must be positive. */
    explicit LineFramer(std::size_t maxLineBytes = 1 << 20)
        : maxLine_(maxLineBytes)
    {
        CHOCOQ_ASSERT(maxLine_ > 0, "a line bound must be positive");
    }

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
 * completion order. Blocks until every job has completed. Per-line
 * errors and control requests count into the service's requests.*
 * counters, as on the socket. Used by `chocoq_serve` without --listen
 * and exercised directly by the hostile-input tests.
 */
void runJsonlStream(std::istream &in, std::ostream &out,
                    SolveService &service, const StreamLimits &limits = {});

/** Server configuration (see docs/protocol.md for the wire contract). */
struct ServerOptions
{
    /** TCP port to listen on; 0 picks an ephemeral port (see port()). */
    int port = 0;
    /** Bind address. Loopback by default: chocoq_serve is an operator
     * tool, exposing it beyond the host is an explicit decision. */
    std::string bindAddress = "127.0.0.1";
    /**
     * Server-wide bound on jobs accepted but not yet completed. A
     * request arriving at the bound is answered immediately with a
     * status "rejected" line (never silently dropped, never queued
     * without bound). 0 = unbounded.
     */
    int maxInflight = 256;
    /** Line and inline-spec bounds, shared with the batch front-end. */
    StreamLimits limits;
    /**
     * Close a connection after this long with no bytes received and no
     * job of its own in flight. 0 = never. Results of in-flight jobs
     * always flush before an idle close.
     */
    int idleTimeoutMs = 0;
    /**
     * Concurrently open connections. A connection accepted past the
     * bound is answered with a single "rejected" line and closed
     * immediately. 0 = unbounded.
     */
    int maxConnections = 1024;
    /**
     * Write-stall bound. A client that stops reading fills its socket
     * buffer and then the connection's output buffer; once pending
     * output has made no progress for this long, the connection is
     * marked broken, its in-flight jobs are cancelled and its remaining
     * results dropped, so a stalled reader can never wedge drain.
     * 0 = never declare a stall.
     */
    int sendTimeoutMs = 10000;
    /**
     * SO_SNDBUF override on accepted connections, in bytes (0 = OS
     * default). Shrinking it makes write backpressure trip early —
     * used by the torture tests; rarely useful in production.
     */
    int sendBufferBytes = 0;
};

/**
 * The TCP front-end. Owns the listening socket and the event-loop
 * thread; jobs run on the SolveService passed in (shared compile cache
 * and worker pool across connections).
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
     * requests (the loop notices within one poll tick). Safe to call
     * from a signal handler's forwarding thread or any other thread;
     * returns immediately. drain() completes the shutdown.
     */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /**
     * Graceful drain: requestStop() and wake the loop, which closes the
     * listener, waits for every accepted job to finish and its result
     * to flush, closes all connections and exits; then join it.
     * Idempotent.
     */
    void drain();

  private:
    struct Connection;

    /** Answer a cancel/health/stats control request on this
     * connection. */
    void handleControl(const std::shared_ptr<Connection> &conn,
                       const ParsedLine &parsed);
    /** Cancel every job this connection still has in flight (the
     * client dropped: nobody is left to read the results). Counts
     * server.disconnect_cancels at most once per connection. */
    void cancelConnectionJobs(const std::shared_ptr<Connection> &conn);
    /** One non-blocking attempt at an in-flight slot. */
    bool tryReserveInflight();
    /** Cancellation token + scheduler submit for a job that already
     * holds an in-flight slot. */
    void submitAccepted(const std::shared_ptr<Connection> &conn,
                        SolveJob &&job);
    /** Answer a status "rejected" over-capacity line for @p id. */
    void rejectCapacity(const std::shared_ptr<Connection> &conn,
                        const std::string &id);
    void writeLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line);

    // Event loop (all run on the loop thread unless noted; see the
    // connection state machine in
    // docs/service.md#event-loop-connection-state-machine).
    void eventLoop();
    /** Accept until EAGAIN and register each connection. False when
     * accept(2) failed for lack of resources (the caller backs off). */
    bool acceptPending();
    /** Frame and dispatch every complete buffered line. */
    void eventProcessBuffer(const std::shared_ptr<Connection> &conn);
    /** Classify and dispatch one framed line (skip / per-line error /
     * control / submit / capacity rejection). */
    void eventDispatchLine(const std::shared_ptr<Connection> &conn,
                           LineFramer::Line &&ln);
    /** Answer the truncated final line at EOF / idle close. */
    void eventAnswerTail(const std::shared_ptr<Connection> &conn);
    /** One recv(2) worth of progress on a readable connection. */
    void eventHandleReadable(const std::shared_ptr<Connection> &conn);
    /** Timers + state transitions: idle timeout, write-stall
     * detection, finish (half-close) and close deadlines. */
    void eventHousekeep(const std::shared_ptr<Connection> &conn,
                        bool draining);
    /** Close the fd and undo the open-connection accounting. */
    void eventFinalize(const std::shared_ptr<Connection> &conn);
    /** Flush buffered output; writeMu must be held. False = peer gone
     * (the connection was marked broken). */
    bool flushOutputLocked(const std::shared_ptr<Connection> &conn);
    /** Mark broken + cancel in-flight jobs; writeMu must be held. */
    void markBrokenLocked(const std::shared_ptr<Connection> &conn);
    /** Interrupt the loop's poll(2) (self-pipe). Any thread. */
    void wake();

    SolveService &service_;
    ServerOptions opts_;
    /** Connection-setup and first-response latency, in the service's
     * metrics registry. accept_ms is accept() to registration in the
     * loop (server-controlled, near zero); first_byte_ms is the first
     * received request byte to the first response byte written, so a
     * client's connect-to-send idle time never counts against the
     * server. */
    obs::Histogram &acceptMs_;
    obs::Histogram &firstByteMs_;
    /** Open connections: the connection cap and the health probe read
     * it. Only the loop thread moves it. */
    obs::Gauge &connectionsOpen_;
    /** The front-end's books, in the service's registry (server.* and
     * requests.line_errors; see docs/observability.md). */
    obs::Counter &connectionsAccepted_;
    /** Connections refused at the maxConnections bound. */
    obs::Counter &connectionsRejected_;
    /** Requests answered with status "rejected" (over maxInflight). */
    obs::Counter &rejected_;
    /** Result lines written back, per-line errors included. */
    obs::Counter &resultsWritten_;
    obs::Counter &idleCloses_;
    /** Connections dropped mid-job, at most once per connection. */
    obs::Counter &disconnectCancels_;
    /** Result writes send(2) could not finish in one call. */
    obs::Counter &partialWrites_;
    obs::Counter &lineErrors_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    bool started_ = false;
    bool drained_ = false;
    /** Jobs accepted into the scheduler, not yet completed: admission
     * control state, not a book. */
    std::atomic<long> inflight_{0};

    /** Self-pipe: [0] polled by the loop, [1] written by wake(). Both
     * non-blocking; closed by drain() once no callback can wake. */
    int wakeRd_ = -1;
    int wakeWr_ = -1;
    /** Open connections. Loop thread only. */
    std::vector<std::shared_ptr<Connection>> conns_;

    /** The event loop; declared last, after everything it uses. */
    std::thread loop_;
};

/**
 * Minimal blocking JSONL client over loopback, for the socket tests.
 * Not part of the serving data path.
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
