#include "service/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"

namespace chocoq::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Whether @p line is blank or a # comment (the JSONL skip rule). */
bool
isSkippableLine(const std::string &line)
{
    const std::size_t start = line.find_first_not_of(" \t\r");
    return start == std::string::npos || line[start] == '#';
}

SolveResult
lineError(long lineno, const std::string &message)
{
    SolveResult r;
    r.id = "line-" + std::to_string(lineno);
    r.status = "error";
    r.error = message;
    return r;
}

/** send(2) the whole buffer; MSG_NOSIGNAL so a client that disappeared
 * mid-result costs a dropped line, not a SIGPIPE'd process. Returns
 * false once the peer is gone. */
bool
sendAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Bound on waiting for a peer to acknowledge a close: after the last
 * result flushes the connection half-closes and reads to the peer's EOF
 * before close(2), because close(2) on a socket with unread
 * receive-queue data sends an RST, and an RST makes the peer's stack
 * discard delivered-but-unread data — the very result lines just
 * flushed. A stale peer costs at most this bound. */
constexpr int kCloseLingerMs = 1000;

/** Poll granularity of the event loop: bounds how stale the stop flag,
 * the idle clock, and the accept backoff can get. */
constexpr int kPollTickMs = 20;

/** Write backpressure: once a connection's buffered unsent output
 * exceeds this many bytes, the loop stops reading its requests until
 * the buffer drains below the bound (TCP backpressure then reaches the
 * sender). Results of already accepted jobs still append past the
 * bound — the true cap is this plus maxInflight result lines — so a
 * slow reader can never deadlock its own completions. */
constexpr std::size_t kMaxWriteBufferBytes = std::size_t{4} << 20;

} // namespace

bool
utf8Valid(const std::string &s)
{
    const auto *p = reinterpret_cast<const unsigned char *>(s.data());
    const std::size_t n = s.size();
    for (std::size_t i = 0; i < n;) {
        const unsigned char c = p[i];
        std::size_t len;
        unsigned cp;
        if (c < 0x80) {
            ++i;
            continue;
        } else if ((c & 0xE0) == 0xC0) {
            len = 2;
            cp = c & 0x1Fu;
        } else if ((c & 0xF0) == 0xE0) {
            len = 3;
            cp = c & 0x0Fu;
        } else if ((c & 0xF8) == 0xF0) {
            len = 4;
            cp = c & 0x07u;
        } else {
            return false; // stray continuation or 0xF8+ lead byte
        }
        if (i + len > n)
            return false; // truncated sequence
        for (std::size_t k = 1; k < len; ++k) {
            if ((p[i + k] & 0xC0) != 0x80)
                return false;
            cp = (cp << 6) | (p[i + k] & 0x3Fu);
        }
        // Shortest form, no UTF-16 surrogates, <= U+10FFFF.
        static constexpr unsigned kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
        if (cp < kMin[len] || cp > 0x10FFFF
            || (cp >= 0xD800 && cp <= 0xDFFF))
            return false;
        i += len;
    }
    return true;
}

ParsedLine
parseRequestLine(const std::string &line, long lineno, bool oversized,
                 const spec::SpecLimits &limits)
{
    // Stamp parse start so a traced job's timeline opens with the real
    // "parse" span (two clock reads per line, noise next to ms-scale
    // jobs). parseMs is service-internal, never a wire field.
    const auto parse_start = Clock::now();
    ParsedLine out;
    if (oversized) {
        out.error = lineError(
            lineno, "request line exceeds the size limit and was discarded");
        return out;
    }
    if (isSkippableLine(line)) {
        out.skip = true;
        return out;
    }
    if (!utf8Valid(line)) {
        out.error = lineError(lineno, "request line is not valid UTF-8");
        return out;
    }
    try {
        const Json v = Json::parse(line);
        // Control requests ride the same stream as jobs, discriminated
        // by a "type" field (a job object has none).
        if (const Json *type = v.isObject() ? v.find("type") : nullptr) {
            if (type->kind() != Json::Kind::String)
                CHOCOQ_FATAL("field 'type' must be a string");
            const std::string kind = type->asString();
            if (kind == "cancel") {
                const Json *id = v.find("id");
                if (!id || id->kind() != Json::Kind::String
                    || id->asString().empty())
                    CHOCOQ_FATAL("cancel request needs a non-empty "
                                 "string 'id' naming the job to cancel");
                out.control = ControlKind::Cancel;
                out.cancelId = id->asString();
            } else if (kind == "health") {
                out.control = ControlKind::Health;
            } else if (kind == "stats") {
                out.control = ControlKind::Stats;
            } else {
                CHOCOQ_FATAL("unknown request type '" << kind
                             << "' (expected cancel, health, or stats)");
            }
            out.ok = true;
            return out;
        }
        out.job = jobFromJson(v, limits);
    } catch (const std::exception &e) {
        // A malformed request fails that request, not the stream.
        out.error = lineError(lineno, e.what());
        return out;
    }
    if (out.job.id.empty())
        out.job.id = "job-" + std::to_string(lineno);
    out.job.parseMs = millisSince(parse_start);
    out.ok = true;
    return out;
}

Json
healthToJson(const SolveService::Health &h)
{
    Json out = Json::object();
    out.set("type", std::string("health"));
    out.set("status", std::string("ok"));
    out.set("workers", h.workers);
    out.set("queued", static_cast<double>(h.queued));
    out.set("running", static_cast<double>(h.running));
    out.set("inflight", static_cast<double>(h.inflight));
    out.set("stalled", h.stalledNow);
    out.set("stalls_flagged", static_cast<double>(h.stallsFlagged));
    out.set("cancelled_jobs", static_cast<double>(h.cancelledJobs));
    out.set("expired_jobs", static_cast<double>(h.expiredJobs));
    return out;
}

Json
statsToJson(const SolveService &service)
{
    Json out = Json::object();
    out.set("type", std::string("stats"));
    out.set("status", std::string("ok"));
    // The envelope keys lead; then every metricsToJson section
    // (counters/gauges/histograms/cache/registry/scheduler) in order.
    const Json m = service.metricsToJson();
    for (const auto &[key, value] : m.members())
        out.set(key, value);
    return out;
}

namespace
{

/** The reply to a control request, shared by both front-ends: counts
 * it into requests.*, then runs a cancel and acknowledges it, or builds
 * the health or stats body. Counted before the reply is built, so a
 * stats probe sees itself. */
Json
controlReply(SolveService &service, const ParsedLine &parsed)
{
    obs::MetricsRegistry &books = service.metrics();
    if (parsed.control == ControlKind::Cancel) {
        books.counter("requests.cancel").add();
        const int n = service.cancel(parsed.cancelId);
        Json ack = Json::object();
        ack.set("type", std::string("cancel"));
        ack.set("id", parsed.cancelId);
        ack.set("status", std::string("ok"));
        ack.set("cancelled", n);
        return ack;
    }
    if (parsed.control == ControlKind::Health) {
        books.counter("requests.health").add();
        return healthToJson(service.health());
    }
    books.counter("requests.stats").add();
    return statsToJson(service);
}

/**
 * Bounded line reader over an istream: like std::getline but a line
 * longer than @p max_bytes is reported oversized and skipped to its
 * newline without ever buffering more than max_bytes of it. Returns
 * false at EOF with nothing read. A truncated final line (EOF, no
 * newline) is returned like any other — it is still a request.
 */
bool
getBoundedLine(std::istream &in, std::string &line, std::size_t max_bytes,
               bool &oversized)
{
    line.clear();
    oversized = false;
    bool read_any = false;
    std::streambuf *sb = in.rdbuf();
    for (int ch = sb->sbumpc();; ch = sb->sbumpc()) {
        if (ch == std::streambuf::traits_type::eof()) {
            if (!read_any)
                in.setstate(std::ios::eofbit | std::ios::failbit);
            return read_any;
        }
        read_any = true;
        if (ch == '\n')
            return true;
        if (max_bytes > 0 && line.size() >= max_bytes) {
            oversized = true;
            line.clear(); // keep only the bound, drop the rest
            // Discard through the newline (or EOF) without buffering.
            for (int c = sb->sbumpc();
                 c != std::streambuf::traits_type::eof(); c = sb->sbumpc())
                if (c == '\n')
                    break;
            return true;
        }
        line.push_back(static_cast<char>(ch));
    }
}

} // namespace

// ----------------------------------------------------------- LineFramer

void
LineFramer::feed(const char *data, std::size_t n)
{
    if (discarding_) {
        // Inside the tail of an oversized line (already answered):
        // drop bytes unbuffered until its newline goes by.
        const auto *nl =
            static_cast<const char *>(std::memchr(data, '\n', n));
        if (nl == nullptr)
            return;
        discarding_ = false;
        const std::size_t skip = static_cast<std::size_t>(nl - data) + 1;
        data += skip;
        n -= skip;
        if (n == 0)
            return;
    }
    buf_.append(data, n);
}

bool
LineFramer::next(Line &out)
{
    const std::size_t pos = buf_.find('\n', start_);
    if (pos == std::string::npos) {
        if (!discarding_ && buf_.size() - start_ > maxLine_) {
            // Oversized line still missing its newline: fail it now
            // (bounded memory) and drop bytes until the newline
            // arrives. feed() handles the rest of the discard.
            out = Line{std::string(), ++lineno_, true};
            buf_.clear();
            start_ = 0;
            discarding_ = true;
            return true;
        }
        if (start_ > 0) { // one compaction per feed/drain cycle
            buf_.erase(0, start_);
            start_ = 0;
        }
        return false;
    }
    std::string text = buf_.substr(start_, pos - start_);
    start_ = pos + 1;
    if (start_ >= buf_.size()) {
        buf_.clear();
        start_ = 0;
    }
    out.lineno = ++lineno_;
    // A whole oversized line can arrive in one burst before the
    // partial-buffer bound trips: same oversize verdict either way.
    out.oversized = text.size() > maxLine_;
    out.text = out.oversized ? std::string() : std::move(text);
    return true;
}

bool
LineFramer::tail(Line &out)
{
    if (discarding_ || start_ >= buf_.size())
        return false;
    // A partial line over the bound already came back oversized from
    // next(), so a surviving tail is always within it.
    out.text = buf_.substr(start_);
    out.lineno = ++lineno_;
    out.oversized = false;
    buf_.clear();
    start_ = 0;
    return true;
}

void
runJsonlStream(std::istream &in, std::ostream &out, SolveService &service,
               const StreamLimits &limits)
{
    obs::Counter &line_errors =
        service.metrics().counter("requests.line_errors");
    std::mutex out_mu;
    std::string line;
    long lineno = 0;
    bool oversized = false;
    while (getBoundedLine(in, line, limits.maxLineBytes, oversized)) {
        ++lineno;
        ParsedLine parsed =
            parseRequestLine(line, lineno, oversized, limits.spec);
        if (parsed.skip)
            continue;
        if (!parsed.ok) {
            std::lock_guard<std::mutex> lock(out_mu);
            out << resultToJson(parsed.error).dump() << "\n";
            out.flush();
            line_errors.add();
            continue;
        }
        if (parsed.control != ControlKind::None) {
            const Json reply = controlReply(service, parsed);
            std::lock_guard<std::mutex> lock(out_mu);
            out << reply.dump() << "\n";
            out.flush();
            continue;
        }
        service.submit(std::move(parsed.job),
                       [&](const SolveResult &r) {
                           std::lock_guard<std::mutex> lock(out_mu);
                           out << resultToJson(r).dump() << "\n";
                           out.flush();
                       });
    }
    service.drain();
}

// --------------------------------------------------------------- Server

/** Per-connection state shared between the event loop and the result
 * callbacks still in flight on worker threads. */
struct Server::Connection
{
    int fd = -1;
    /** First request byte stamped yet? Only the loop touches it. */
    bool sawFirstByte = false;
    /** Serializes result lines (callbacks fire on worker threads) and
     * guards fd teardown, outBuf/outOff, and lastWriteProgress. */
    std::mutex writeMu;
    /** When the first request byte arrived, anchoring first_byte_ms
     * (first request byte -> first response byte). Stamped once by the
     * loop, read by the response path; writeMu guards the handoff
     * because responses are written from worker threads. */
    Clock::time_point firstByteAt;
    bool firstByteStamped = false; // writeMu
    bool sawFirstWrite = false;    // writeMu
    /** This connection's jobs accepted but not yet written back. */
    std::atomic<long> inflight{0};
    /** Set when a write hit a dead peer; stops further writes early. */
    std::atomic<bool> broken{false};
    /** server.disconnect_cancels already counted for this connection?
     * Both the read-error and failed-write paths can observe the same
     * drop; the count is exactly-once per connection. */
    std::atomic<bool> disconnectCounted{false};

    // ---- Event-loop state, owned by the loop thread except where a
    // comment says otherwise.
    LineFramer framer;
    /** No more requests will be read (EOF, idle close, or drain); the
     * connection finishes once in-flight results flush. */
    bool readClosed = false;
    /** SHUT_WR sent; waiting (bounded by kCloseLingerMs) for the
     * peer's close so the flushed results are not RST-discarded. */
    bool wrShutdown = false;
    Clock::time_point closeDeadline;
    /** Idle-timeout clock. */
    Clock::time_point lastActivity;
    /** Outbound bytes send(2) could not take, resumed via POLLOUT.
     * Guarded by writeMu; outOff is the consumed prefix. */
    std::string outBuf;
    std::size_t outOff = 0;
    /** Last time a send made progress (stall detection). writeMu. */
    Clock::time_point lastWriteProgress;

    /** Pending unsent bytes. writeMu must be held. */
    std::size_t pendingOutLocked() const { return outBuf.size() - outOff; }

    /** Cancellation tokens of this connection's in-flight jobs. The
     * token is registered before submit() and removed by the result
     * callback, so a connection drop can cancel exactly the jobs
     * nobody is left to read. */
    std::mutex tokensMu;
    std::vector<std::shared_ptr<CancelToken>> tokens;

    void addToken(const std::shared_ptr<CancelToken> &t)
    {
        std::lock_guard<std::mutex> lock(tokensMu);
        tokens.push_back(t);
    }

    void removeToken(const CancelToken *t)
    {
        std::lock_guard<std::mutex> lock(tokensMu);
        for (auto it = tokens.begin(); it != tokens.end(); ++it) {
            if (it->get() == t) {
                tokens.erase(it);
                return;
            }
        }
    }

    /** Returns how many in-flight tokens were cancelled. */
    int cancelAll(CancelReason reason)
    {
        std::lock_guard<std::mutex> lock(tokensMu);
        for (const auto &t : tokens)
            t->requestCancel(reason);
        return static_cast<int>(tokens.size());
    }
};

Server::Server(SolveService &service, ServerOptions opts)
    : service_(service), opts_(opts),
      acceptMs_(service.metrics().histogram("server.accept_ms")),
      firstByteMs_(service.metrics().histogram("server.first_byte_ms")),
      connectionsOpen_(service.metrics().gauge("server.connections_open")),
      connectionsAccepted_(
          service.metrics().counter("server.connections_accepted")),
      connectionsRejected_(
          service.metrics().counter("server.connections_rejected")),
      rejected_(service.metrics().counter("server.rejected")),
      resultsWritten_(service.metrics().counter("server.results_written")),
      idleCloses_(service.metrics().counter("server.idle_closes")),
      disconnectCancels_(
          service.metrics().counter("server.disconnect_cancels")),
      partialWrites_(service.metrics().counter("server.partial_writes")),
      lineErrors_(service.metrics().counter("requests.line_errors"))
{}

Server::~Server()
{
    drain();
}

void
Server::start()
{
    CHOCOQ_ASSERT(!started_, "Server::start called twice");
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        CHOCOQ_FATAL("socket(): " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.bindAddress.c_str(), &addr.sin_addr)
        != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        CHOCOQ_FATAL("invalid bind address '" << opts_.bindAddress << "'");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr)
        != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        CHOCOQ_FATAL("cannot bind " << opts_.bindAddress << ":"
                     << opts_.port << ": " << std::strerror(err));
    }
    // The kernel's own cap: a burst of connects (up to maxConnections)
    // queues for the event loop instead of overflowing a short backlog
    // into dropped SYNs and ~1 s client retransmits.
    if (::listen(listenFd_, SOMAXCONN) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        CHOCOQ_FATAL("listen(): " << std::strerror(err));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    // Non-blocking listener: the loop accepts until EAGAIN.
    ::fcntl(listenFd_, F_SETFL, ::fcntl(listenFd_, F_GETFL, 0) | O_NONBLOCK);
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        CHOCOQ_FATAL("pipe(): " << std::strerror(err));
    }
    for (const int fd : pipefd)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    wakeRd_ = pipefd[0];
    wakeWr_ = pipefd[1];

    started_ = true;
    loop_ = std::thread([this] { eventLoop(); });
}

bool
Server::acceptPending()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            // ECONNABORTED: a queued connection was reset before
            // accept(2) reached it; the backlog may hold more.
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            // EAGAIN: the backlog is empty. Anything else is resource
            // pressure (EMFILE/ENFILE/ENOBUFS/ENOMEM): the connection
            // stays queued and keeps the listener readable, so the
            // caller must back off rather than poll it again at once.
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        // Result lines are small and latency-sensitive; don't batch them.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (opts_.sendBufferBytes > 0)
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sendBufferBytes,
                         sizeof opts_.sendBufferBytes);

        // Past the connection bound, answer with one rejection and close.
        if (opts_.maxConnections > 0
            && connectionsOpen_.value() >= opts_.maxConnections) {
            SolveResult r;
            r.status = "rejected";
            r.error = "server at connection capacity ("
                      + std::to_string(opts_.maxConnections)
                      + " open); retry later";
            const std::string line = resultToJson(r).dump() + "\n";
            sendAll(fd, line.data(), line.size());
            // Non-blocking discard of whatever arrived with the
            // connect, so close() doesn't RST the rejection line away
            // (must not stall the loop; a peer still mid-write can race
            // this, which costs it only this line).
            char sink[4096];
            while (::recv(fd, sink, sizeof sink, MSG_DONTWAIT) > 0) {}
            ::close(fd);
            connectionsRejected_.add();
            continue;
        }

        const auto acceptedAt = Clock::now();
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        connectionsAccepted_.add();
        connectionsOpen_.add(1.0);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        conn->framer = LineFramer(opts_.limits.maxLineBytes);
        conn->lastActivity = Clock::now();
        // accept -> registration, all of it server-side.
        acceptMs_.record(millisSince(acceptedAt));
        conns_.push_back(std::move(conn));
    }
}

void
Server::wake()
{
    // Self-pipe: interrupt the loop's poll. Non-blocking write; a full
    // pipe already has a wake pending, so EAGAIN is success.
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeWr_, &b, 1);
}

void
Server::markBrokenLocked(const std::shared_ptr<Connection> &conn)
{
    conn->broken.store(true, std::memory_order_relaxed);
    // The peer is provably gone: nobody will read this connection's
    // remaining results, so stop computing them.
    cancelConnectionJobs(conn);
    wake(); // let the loop close and unregister it
}

bool
Server::flushOutputLocked(const std::shared_ptr<Connection> &conn)
{
    while (conn->outOff < conn->outBuf.size()) {
        const ssize_t n =
            ::send(conn->fd, conn->outBuf.data() + conn->outOff,
                   conn->outBuf.size() - conn->outOff,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            conn->outOff += static_cast<std::size_t>(n);
            conn->lastWriteProgress = Clock::now();
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true; // kernel buffer full: resume via POLLOUT
        markBrokenLocked(conn);
        return false;
    }
    conn->outBuf.clear();
    conn->outOff = 0;
    return true;
}

void
Server::writeLine(const std::shared_ptr<Connection> &conn,
                  const std::string &line)
{
    if (conn->broken.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(conn->writeMu);

    // Append, then flush opportunistically — the common case completes
    // right here and the loop never sees POLLOUT. A partial send leaves
    // the remainder buffered; the loop resumes it when the socket
    // drains (never blocking this worker thread).
    if (conn->fd < 0)
        return; // already finalized
    const bool hadPending = conn->outOff < conn->outBuf.size();
    conn->outBuf.append(line);
    conn->outBuf.push_back('\n');
    resultsWritten_.add();
    if (!conn->sawFirstWrite && conn->firstByteStamped) {
        conn->sawFirstWrite = true;
        firstByteMs_.record(millisSince(conn->firstByteAt));
    }
    if (!hadPending) {
        conn->lastWriteProgress = Clock::now();
        if (!flushOutputLocked(conn))
            return;
        if (conn->outOff < conn->outBuf.size()) {
            partialWrites_.add();
            wake(); // start polling POLLOUT
        }
    }
}

bool
Server::tryReserveInflight()
{
    // Reserve the slot first (fetch_add, not load-then-add): completions
    // release slots concurrently from worker threads.
    const long reserved = inflight_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.maxInflight > 0
        && reserved >= static_cast<long>(opts_.maxInflight)) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

void
Server::handleControl(const std::shared_ptr<Connection> &conn,
                      const ParsedLine &parsed)
{
    // Cancellation is server-wide by id, not per-connection: an
    // operator can open a second connection to cancel a job a wedged
    // first connection submitted.
    Json reply = controlReply(service_, parsed);
    if (parsed.control == ControlKind::Health) {
        // Server-level view rides along with the service's counters.
        reply.set("connections_open", connectionsOpen_.value());
        reply.set("server_inflight",
                  static_cast<double>(
                      inflight_.load(std::memory_order_relaxed)));
    }
    writeLine(conn, reply.dump());
}

void
Server::cancelConnectionJobs(const std::shared_ptr<Connection> &conn)
{
    // Requesting cancellation is idempotent per token; the *stat* is
    // exactly-once per connection — the read-error and failed-write
    // paths can both observe the same drop, and only the first counts.
    if (conn->cancelAll(CancelReason::Disconnected) > 0
        && !conn->disconnectCounted.exchange(true,
                                             std::memory_order_relaxed))
        disconnectCancels_.add();
}

void
Server::rejectCapacity(const std::shared_ptr<Connection> &conn,
                       const std::string &id)
{
    SolveResult r;
    r.id = id;
    r.status = "rejected";
    r.error = "server at capacity (" + std::to_string(opts_.maxInflight)
              + " jobs in flight); retry later";
    rejected_.add();
    writeLine(conn, resultToJson(r).dump());
}

void
Server::submitAccepted(const std::shared_ptr<Connection> &conn,
                       SolveJob &&job)
{
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    // Track the token before submitting so there is no window where the
    // job runs but a connection drop cannot reach it.
    auto token = std::make_shared<CancelToken>();
    conn->addToken(token);
    service_.submit(std::move(job),
                    [this, conn, raw_token = token.get()](
                        const SolveResult &r) {
                        conn->removeToken(raw_token);
                        writeLine(conn, resultToJson(r).dump());
                        conn->inflight.fetch_sub(1,
                                                 std::memory_order_release);
                        inflight_.fetch_sub(1, std::memory_order_relaxed);
                        // Completion can finish the connection; don't
                        // leave it to the next tick.
                        wake();
                    },
                    token);
}

// ----------------------------------------------------------- event loop
//
// Connection state machine (one instance per connection, advanced only
// by the loop thread;
// docs/service.md#event-loop-connection-state-machine has the
// operator-facing version):
//
//   OPEN --(EOF / idle / drain)--> READ_CLOSED
//   READ_CLOSED --(inflight==0 && outBuf empty)--> WR_SHUTDOWN
//   WR_SHUTDOWN --(peer EOF | linger deadline)--> CLOSED
//   any --(recv error / failed write / write stall)--> BROKEN --> CLOSED
//
// Writes are the only cross-thread traffic: worker callbacks append
// under writeMu and flush opportunistically; what the kernel refuses
// rides in outBuf until the loop sees POLLOUT.

void
Server::eventHandleReadable(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0 || conn->broken.load(std::memory_order_relaxed))
        return;
    char chunk[65536];
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return;
        // ECONNRESET and kin: the client is gone; nobody will read
        // this connection's results, so cancel its in-flight jobs.
        cancelConnectionJobs(conn);
        conn->broken.store(true, std::memory_order_relaxed);
        eventFinalize(conn);
        return;
    }
    if (conn->wrShutdown) {
        if (n == 0)
            eventFinalize(conn); // clean close handshake complete
        return; // discard late bytes until the peer's close
    }
    if (n == 0) {
        // EOF is a half-close, not a drop: answer the truncated tail,
        // then let in-flight jobs finish and their results flush.
        if (!conn->readClosed) {
            eventAnswerTail(conn);
            conn->readClosed = true;
        }
        return;
    }
    if (conn->readClosed)
        return; // no longer reading; late bytes die at close
    conn->lastActivity = Clock::now();
    if (!conn->sawFirstByte) {
        conn->sawFirstByte = true;
        std::lock_guard<std::mutex> lock(conn->writeMu);
        conn->firstByteAt = Clock::now();
        conn->firstByteStamped = true;
    }
    conn->framer.feed(chunk, static_cast<std::size_t>(n));
    eventProcessBuffer(conn);
}

void
Server::eventProcessBuffer(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    LineFramer::Line ln;
    while (!conn->broken.load(std::memory_order_relaxed)
           && conn->framer.next(ln)) {
        if (ln.oversized) {
            lineErrors_.add();
            writeLine(conn,
                      resultToJson(parseRequestLine("", ln.lineno,
                                                    /*oversized=*/true)
                                       .error)
                          .dump());
            continue;
        }
        eventDispatchLine(conn, std::move(ln));
    }
}

void
Server::eventDispatchLine(const std::shared_ptr<Connection> &conn,
                          LineFramer::Line &&ln)
{
    ParsedLine parsed =
        parseRequestLine(ln.text, ln.lineno, false, opts_.limits.spec);
    if (parsed.skip)
        return;
    if (!parsed.ok) {
        lineErrors_.add();
        writeLine(conn, resultToJson(parsed.error).dump());
        return;
    }
    if (parsed.control != ControlKind::None) {
        // Control requests never consume an in-flight slot: they must
        // work on a loaded server.
        handleControl(conn, parsed);
        return;
    }
    if (tryReserveInflight())
        submitAccepted(conn, std::move(parsed.job));
    else
        rejectCapacity(conn, parsed.job.id);
}

void
Server::eventAnswerTail(const std::shared_ptr<Connection> &conn)
{
    LineFramer::Line tail;
    if (conn->framer.tail(tail))
        eventDispatchLine(conn, std::move(tail));
}

void
Server::eventHousekeep(const std::shared_ptr<Connection> &conn,
                       bool draining)
{
    if (conn->fd < 0)
        return;
    if (conn->broken.load(std::memory_order_relaxed)) {
        eventFinalize(conn);
        return;
    }
    const auto now = Clock::now();

    // Drain: stop reading new requests; in-flight jobs still finish and
    // flush below.
    if (draining && !conn->readClosed)
        conn->readClosed = true;

    // Write-stall detection: pending output making no progress for the
    // send timeout means the client stopped reading (kernel send
    // timeouts don't apply to non-blocking sends).
    if (opts_.sendTimeoutMs > 0) {
        std::lock_guard<std::mutex> lock(conn->writeMu);
        if (conn->pendingOutLocked() > 0
            && millisSince(conn->lastWriteProgress) > opts_.sendTimeoutMs)
            markBrokenLocked(conn);
    }
    if (conn->broken.load(std::memory_order_relaxed)) {
        eventFinalize(conn);
        return;
    }

    // Idle timeout, only while still reading. A running job counts as
    // activity: the idle window starts from (at most one tick after)
    // its last result.
    if (!conn->readClosed) {
        if (conn->inflight.load(std::memory_order_acquire) > 0) {
            conn->lastActivity = now;
        } else if (opts_.idleTimeoutMs > 0
                   && millisSince(conn->lastActivity)
                          > opts_.idleTimeoutMs) {
            idleCloses_.add();
            eventAnswerTail(conn);
            conn->readClosed = true;
        }
    }

    if (conn->wrShutdown) {
        if (now >= conn->closeDeadline)
            eventFinalize(conn); // stale peer: the bounded wait is up
        return;
    }

    // Finished: nothing more will be read and everything accepted has
    // flushed. Half-close and wait (bounded) for the peer's close so
    // the flushed results are not RST-discarded (see kCloseLingerMs).
    bool pending_out;
    {
        std::lock_guard<std::mutex> lock(conn->writeMu);
        pending_out = conn->pendingOutLocked() > 0;
    }
    if (conn->readClosed && !pending_out
        && conn->inflight.load(std::memory_order_acquire) == 0) {
        ::shutdown(conn->fd, SHUT_WR);
        conn->wrShutdown = true;
        conn->closeDeadline =
            now + std::chrono::milliseconds(kCloseLingerMs);
    }
}

void
Server::eventFinalize(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    // A non-graceful close (broken/reset) can still have jobs in
    // flight: cancel them (exactly-once stat inside). Graceful closes
    // only get here at inflight == 0.
    if (conn->broken.load(std::memory_order_relaxed))
        cancelConnectionJobs(conn);
    {
        // fd teardown under writeMu: a worker mid-writeLine must never
        // see the fd recycled under it.
        std::lock_guard<std::mutex> lock(conn->writeMu);
        ::close(conn->fd);
        conn->fd = -1;
    }
    connectionsOpen_.add(-1.0);
}

void
Server::eventLoop()
{
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Connection>> polled;
    // accept(2) out of resources: the listener sits out the poll set
    // until then, so the connection it cannot take doesn't spin the loop.
    Clock::time_point acceptPausedUntil;
    while (true) {
        const bool draining = stop_.load(std::memory_order_relaxed);
        if (draining && listenFd_ >= 0) {
            // Close the listener first: clients connecting mid-drain get
            // connection-refused rather than a backlog slot that never
            // answers.
            ::close(listenFd_);
            listenFd_ = -1;
        }

        // Housekeep every connection, drop the finalized ones, and
        // build the poll set from what remains.
        pfds.clear();
        polled.clear();
        pfds.push_back(pollfd{wakeRd_, POLLIN, 0});
        const bool pollListener =
            listenFd_ >= 0 && Clock::now() >= acceptPausedUntil;
        if (pollListener)
            pfds.push_back(pollfd{listenFd_, POLLIN, 0});
        const std::size_t firstConn = pfds.size();
        for (std::size_t i = 0; i < conns_.size();) {
            const auto conn = conns_[i]; // keep alive across erase
            eventHousekeep(conn, draining);
            if (conn->fd < 0) {
                conns_[i] = std::move(conns_.back());
                conns_.pop_back();
                continue;
            }
            short ev = 0;
            std::size_t pending;
            {
                std::lock_guard<std::mutex> lock(conn->writeMu);
                pending = conn->pendingOutLocked();
            }
            if (pending > 0)
                ev |= POLLOUT;
            // Write backpressure: a connection whose output buffer is
            // over the bound stops being read until it drains (TCP
            // then pushes back on the sender).
            const bool paused = pending >= kMaxWriteBufferBytes;
            if (conn->wrShutdown) {
                ev |= POLLIN; // close handshake: read to peer EOF
            } else if (!conn->readClosed && !paused) {
                ev |= POLLIN;
            }
            if (ev != 0) {
                // A connection wanting nothing stays out of the poll
                // set entirely: poll(2) reports POLLHUP/POLLERR even
                // for events=0 entries, which would busy-spin the loop
                // on a dropped peer whose reads are paused.
                pfds.push_back(pollfd{conn->fd, ev, 0});
                polled.push_back(conn);
            }
            ++i;
        }

        if (draining && conns_.empty())
            break; // drained: every connection finished and closed

        const int pr = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                              kPollTickMs);
        if (pr < 0) {
            if (errno != EINTR)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1)); // transient; keep ticking
            continue;
        }
        if (pr == 0)
            continue; // tick: housekeeping runs at the loop top
        if ((pfds[0].revents & POLLIN) != 0) {
            char sink[256];
            while (::read(wakeRd_, sink, sizeof sink) > 0) {}
        }
        if (pollListener && pfds[1].revents != 0 && !acceptPending())
            acceptPausedUntil =
                Clock::now() + std::chrono::milliseconds(kPollTickMs);
        for (std::size_t k = 0; k < polled.size(); ++k) {
            const pollfd &p = pfds[firstConn + k];
            if (p.revents == 0)
                continue;
            const auto &conn = polled[k];
            if ((p.revents & POLLOUT) != 0) {
                std::lock_guard<std::mutex> lock(conn->writeMu);
                if (conn->fd >= 0
                    && !conn->broken.load(std::memory_order_relaxed))
                    flushOutputLocked(conn);
            }
            // Read only when this pass asked for POLLIN — unrequested
            // POLLERR/POLLHUP is left to whichever direction is active.
            if ((p.events & POLLIN) != 0
                && (p.revents & (POLLIN | POLLERR | POLLHUP)) != 0)
                eventHandleReadable(conn);
        }
    }
}

void
Server::drain()
{
    if (!started_ || drained_)
        return;
    requestStop();
    wake();
    // The loop closes the listener, keeps flushing until every
    // connection has finished and closed, then exits.
    loop_.join();
    service_.drain();
    // No result callback is left to wake the loop: close the pipe.
    ::close(wakeRd_);
    ::close(wakeWr_);
    wakeRd_ = wakeWr_ = -1;
    drained_ = true;
}

// ---------------------------------------------------------- JsonlClient

JsonlClient::JsonlClient(int port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        CHOCOQ_FATAL("socket(): " << std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr)
        != 0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        CHOCOQ_FATAL("cannot connect to 127.0.0.1:" << port << ": "
                     << std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

JsonlClient::~JsonlClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JsonlClient::sendLine(const std::string &line)
{
    sendRaw(line + "\n");
}

void
JsonlClient::sendRaw(const std::string &bytes)
{
    if (!sendAll(fd_, bytes.data(), bytes.size()))
        CHOCOQ_FATAL("send(): " << std::strerror(errno));
}

void
JsonlClient::shutdownWrite()
{
    ::shutdown(fd_, SHUT_WR);
}

void
JsonlClient::abortConnection()
{
    if (fd_ < 0)
        return;
    // Zero-linger close: the kernel sends RST instead of FIN, so the
    // server's next read fails with ECONNRESET — the signal that
    // triggers disconnect cancellation.
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
}

bool
JsonlClient::readLine(std::string &out, int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
        const std::size_t pos = buf_.find('\n');
        if (pos != std::string::npos) {
            out = buf_.substr(0, pos);
            buf_.erase(0, pos + 1);
            return true;
        }
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        if (left.count() <= 0)
            return false;
        pollfd p{fd_, POLLIN, 0};
        const int pr = ::poll(&p, 1, static_cast<int>(left.count()));
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (pr == 0)
            return false;
        char chunk[65536];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace chocoq::service
