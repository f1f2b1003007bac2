/**
 * @file
 * Workload wire_mixed, client side: one process driving a running
 * `chocoq_serve --listen` over loopback with a closed loop of one
 * request in flight per connection. The mix, drawn from the seed:
 *
 *  - inline specs (registry cases at unused case indices, serialized with
 *    spec::problemToSpecJson: a registry miss and a compile miss), each
 *    followed on its connection by problem_ref jobs (hits);
 *  - registry-case Choco-Q jobs;
 *  - penalty / cyclic / hea jobs;
 *  - about 1 in 55 jobs a noisy-device Choco-Q job on F1 (device fez,
 *    256 shots) — frequent enough that p99 falls inside their latencies
 *    rather than on the edge of the group.
 *
 * The stats probe reconciles the server's job counters after the run.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/timer.hpp"
#include "model/exact.hpp"
#include "perfbench.hpp"
#include "problems/suite.hpp"
#include "service/job.hpp"
#include "service/json.hpp"
#include "spec/spec.hpp"

namespace perfbench
{

using chocoq::Timer;
namespace service = chocoq::service;
using service::Json;
using Clock = std::chrono::steady_clock;

namespace
{

constexpr int kIterations = 20;
constexpr int kKeepStarts = 2;
constexpr int kRefFollowups = 3;
constexpr int kSetupRepeats = 25;
constexpr std::size_t kBlockJobs = 1000;
/** Requests per connection in each pass of the traced run. */
constexpr std::size_t kTracedPerConnection = 600;
constexpr int kReadTimeoutMs = 120000;

const char *const kChocoScales[] = {"F1", "K1", "K2", "G1"};
const char *const kSmallScales[] = {"F1", "K1"};
const char *const kBaselines[] = {"penalty", "cyclic", "hea"};
/** Episode mix, out of 1024 draws: noisy, inline spec (+ refs),
 * baseline solver; the rest are registry-case Choco-Q jobs. */
constexpr unsigned kNoisyDraws = 24;
constexpr unsigned kInlineDraws = 102;
constexpr unsigned kBaselineDraws = 205;
/** Registry case indices per pass (pass p uses 4p .. 4p+3). */
constexpr unsigned kCasesPerPass = 4;

/** One problem with its exact ground truth. */
struct Truth
{
    chocoq::model::Problem problem;
    chocoq::model::ExactResult exact;
};

std::shared_ptr<const Truth>
truthOf(chocoq::model::Problem p)
{
    auto t = std::make_shared<Truth>(Truth{std::move(p), {}});
    t->exact = chocoq::model::solveExact(t->problem);
    return t;
}

/** One request and what its answer must satisfy. */
struct Request
{
    std::string id;
    std::string line;
    /** solvers.<label> bucket: choco-q, choco-q-noisy, penalty, ... */
    std::string label;
    /** Noiseless Choco-Q: all mass feasible, quality vs exact. */
    bool noiseless = false;
    /** Ground truth of noiseless Choco-Q requests. */
    std::shared_ptr<const Truth> truth;
    /** Inline and ref jobs: the canonical hash the result must echo. */
    std::string problemRef;
    /** Compile-cache structure key (for the miss-span bookkeeping). */
    std::string structure;
};

/** Registry-case truths of one pass, keyed "F1#4". */
using RegistryTruths = std::map<std::string, std::shared_ptr<const Truth>>;

RegistryTruths
registryTruths(int pass)
{
    RegistryTruths out;
    for (const char *scale : kChocoScales)
        for (unsigned c = 0; c < kCasesPerPass; ++c) {
            const unsigned idx = kCasesPerPass * pass + c;
            out[std::string(scale) + "#" + std::to_string(idx)] =
                truthOf(chocoq::problems::makeCase(
                    *chocoq::problems::scaleByName(scale), idx));
        }
    return out;
}

/** Deterministic request stream of one connection in one pass. */
class Stream
{
  public:
    Stream(std::uint64_t seed, int pass, int conn,
           const RegistryTruths &registry, bool trace)
        : seed_(mix(seed, 7919u * static_cast<unsigned>(pass) + conn)),
          pass_(pass), conn_(conn), trace_(trace), registry_(registry)
    {}

    Request next()
    {
        const std::uint64_t h = mix(seed_, k_);
        const std::string id = "p" + std::to_string(pass_) + "c"
                               + std::to_string(conn_) + "n"
                               + std::to_string(k_);
        ++k_;
        Json req = Json::object();
        req.set("id", id);
        req.set("seed", static_cast<double>(h >> 20));
        req.set("iters", kIterations);
        if (trace_)
            req.set("trace", true);
        Request r;
        r.id = id;
        if (followups_ > 0) {
            --followups_;
            req.set("problem_ref", lastSpec_->problemRef);
            req.set("keep_starts", kKeepStarts);
            r = *lastSpec_;
        } else {
            const unsigned draw = static_cast<unsigned>((h >> 8) % 1024);
            const unsigned pick = static_cast<unsigned>(h >> 40);
            const unsigned c =
                kCasesPerPass * pass_ + (pick >> 4) % kCasesPerPass;
            if (draw < kNoisyDraws) {
                const char *scale = "F1";
                req.set("scale", scale);
                req.set("case", static_cast<int>(c));
                req.set("device", "fez");
                req.set("shots", 256);
                r.label = "choco-q-noisy";
            } else if (draw < kNoisyDraws + kInlineDraws) {
                // A registry case at an index no other request uses,
                // sent inline: a registry miss and a compile miss.
                const char *scale = kChocoScales[pick % 4];
                const unsigned idx =
                    1000u + static_cast<unsigned>((h >> 24) % 100000000u);
                auto truth = truthOf(chocoq::problems::makeCase(
                    *chocoq::problems::scaleByName(scale), idx));
                const Json spec =
                    chocoq::spec::problemToSpecJson(truth->problem);
                r.problemRef = chocoq::spec::parseProblemSpec(spec).hashHex;
                r.structure = r.problemRef;
                req.set("problem", spec);
                req.set("keep_starts", kKeepStarts);
                r.label = "choco-q";
                r.noiseless = true;
                r.truth = std::move(truth);
                lastSpec_ = std::make_shared<Request>(r);
                followups_ = kRefFollowups;
            } else if (draw < kNoisyDraws + kInlineDraws + kBaselineDraws) {
                const char *scale = kSmallScales[pick % 2];
                r.label = kBaselines[(pick >> 2) % 3];
                req.set("solver", r.label);
                req.set("scale", scale);
                req.set("case", static_cast<int>(c));
            } else {
                const char *scale = kChocoScales[pick % 4];
                req.set("scale", scale);
                req.set("case", static_cast<int>(c));
                req.set("keep_starts", kKeepStarts);
                r.label = "choco-q";
                r.noiseless = true;
                r.structure = std::string(scale) + "#" + std::to_string(c);
                r.truth = registry_.at(r.structure);
            }
        }
        r.id = id;
        r.line = req.dump();
        return r;
    }

  private:
    std::uint64_t seed_;
    int pass_;
    int conn_;
    bool trace_;
    const RegistryTruths &registry_;
    std::uint64_t k_ = 0;
    int followups_ = 0;
    std::shared_ptr<const Request> lastSpec_;
};

/** A blocking loopback JSONL connection. */
class Connection
{
  public:
    explicit Connection(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr)
            != 0) {
            ::close(fd_);
            throw std::runtime_error("cannot connect to port "
                                     + std::to_string(port));
        }
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

    void send(const std::string &line)
    {
        const std::string data = line + "\n";
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n =
                ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send failed");
            off += static_cast<std::size_t>(n);
        }
    }

    /** Read what is available (after poll says readable); false on EOF. */
    bool fill()
    {
        char buf[65536];
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        in_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    /** Pop one complete line from the buffer. */
    bool popLine(std::string &out)
    {
        const auto nl = in_.find('\n');
        if (nl == std::string::npos)
            return false;
        out.assign(in_, 0, nl);
        in_.erase(0, nl + 1);
        return true;
    }

    /** Blocking read of one line. */
    std::string readLine()
    {
        std::string line;
        while (!popLine(line)) {
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, kReadTimeoutMs) <= 0 || !fill())
                throw std::runtime_error("connection closed or timed out");
        }
        return line;
    }

  private:
    int fd_ = -1;
    std::string in_;
};

/** One answered request. */
struct Answer
{
    Request request;
    Json result;
    double latencyMs = 0.0;
    Clock::time_point at;
};

/** Closed loop over every connection: one request in flight each, until
 * @p deadline_s passes (when > 0) or @p per_conn requests per
 * connection were answered (when > 0). Each answer goes to @p handle as
 * it arrives; returns the loop's wall time in seconds. */
template <class Handle>
double
closedLoop(std::vector<std::unique_ptr<Connection>> &conns,
           std::vector<Stream> &streams, double deadline_s,
           std::size_t per_conn, Handle &&handle)
{
    const std::size_t n = conns.size();
    std::vector<Request> inflight(n);
    std::vector<Clock::time_point> sent(n);
    std::vector<std::size_t> count(n, 0);
    std::vector<bool> busy(n, false);
    Timer wall;
    auto more = [&](std::size_t c) {
        return (per_conn == 0 || count[c] < per_conn)
               && (deadline_s <= 0.0 || wall.seconds() < deadline_s);
    };
    auto send_next = [&](std::size_t c) {
        inflight[c] = streams[c].next();
        sent[c] = Clock::now();
        conns[c]->send(inflight[c].line);
        busy[c] = true;
        ++count[c];
    };
    for (std::size_t c = 0; c < n; ++c)
        if (more(c))
            send_next(c);
    std::vector<pollfd> fds(n);
    for (;;) {
        std::size_t waiting = 0;
        for (std::size_t c = 0; c < n; ++c) {
            fds[c] = {conns[c]->fd(), static_cast<short>(busy[c] ? POLLIN : 0),
                      0};
            waiting += busy[c] ? 1 : 0;
        }
        if (waiting == 0)
            break;
        if (::poll(fds.data(), fds.size(), kReadTimeoutMs) <= 0)
            throw std::runtime_error("no answer within the read timeout");
        for (std::size_t c = 0; c < n; ++c) {
            if (!busy[c] || !(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!conns[c]->fill())
                throw std::runtime_error("server closed a connection");
            std::string line;
            while (busy[c] && conns[c]->popLine(line)) {
                const auto now = Clock::now();
                Answer a;
                a.request = std::move(inflight[c]);
                a.result = Json::parse(line);
                a.at = now;
                a.latencyMs =
                    std::chrono::duration<double, std::milli>(now - sent[c])
                        .count();
                busy[c] = false;
                if (more(c))
                    send_next(c);
                handle(a);
            }
        }
    }
    return wall.seconds();
}

Json
statsProbe(Connection &conn)
{
    conn.send("{\"type\":\"stats\"}");
    return Json::parse(conn.readLine());
}

double
num(const Json &v, const std::string &section, const std::string &key)
{
    const Json *s = v.find(section);
    return s ? s->getNumber(key, 0.0) : 0.0;
}

/** Check one answer; record its quality when it is a noiseless
 * Choco-Q answer that passes. Returns whether it was ok. */
bool
checkAnswer(const Answer &a, Report &report, Quality &q)
{
    const Json &r = a.result;
    report.attempt();
    const std::string status = r.getString("status", "");
    if (status != "ok" || r.getString("id", "") != a.request.id) {
        report.fail("request " + a.request.id + ": status " + status + " "
                    + r.getString("error", ""));
        return false;
    }
    const double mass = r.getNumber("feasible_mass", -1.0);
    if (!(mass >= 0.0 && mass <= 1.0 + 1e-9)) {
        report.fail("request " + a.request.id + ": feasible mass out of range");
        return false;
    }
    if (!a.request.problemRef.empty()
        && r.getString("problem_ref", "") != a.request.problemRef) {
        report.fail("request " + a.request.id + ": problem_ref mismatch");
        return false;
    }
    if (!a.request.noiseless)
        return true;
    if (!(mass >= 1.0 - 1e-9)) {
        std::ostringstream msg;
        msg << "request " << a.request.id << ": feasible mass " << mass;
        report.fail(msg.str());
        return false;
    }
    const auto &exact = a.request.truth->exact;
    const double best = r.getNumber("best_cost", 0.0);
    if (best < exact.optimum - 1e-6) {
        report.fail("request " + a.request.id
                    + ": best cost below the exact optimum");
        return false;
    }
    q.add(r.getBool("top_feasible", false), r.getNumber("top_objective", 0.0),
          r.getNumber("top_probability", 0.0), best, mass, exact);
    return true;
}

/** Span durations of a traced answer by name. */
std::map<std::string, double>
spansOf(const Json &result)
{
    std::map<std::string, double> out;
    const Json *trace = result.find("trace");
    const Json *spans = trace ? trace->find("spans") : nullptr;
    if (!spans)
        return out;
    for (const auto &s : spans->items())
        out[s.getString("name", "")] += s.getNumber("dur_ms", 0.0);
    return out;
}

/** The SolveResult a result line carries (trace omitted). */
service::SolveResult
resultFromJson(const Json &v)
{
    service::SolveResult r;
    r.id = v.getString("id", "");
    r.status = v.getString("status", "");
    r.problem = v.getString("problem", "");
    r.problemRef = v.getString("problem_ref", "");
    r.solver = v.getString("solver", "");
    r.bestCost = v.getNumber("best_cost", 0.0);
    r.topState = static_cast<chocoq::Basis>(v.getNumber("top_state", 0.0));
    r.topProbability = v.getNumber("top_probability", 0.0);
    r.topFeasible = v.getBool("top_feasible", false);
    r.topObjective = v.getNumber("top_objective", 0.0);
    r.feasibleMass = v.getNumber("feasible_mass", 0.0);
    r.distHash = std::strtoull(v.getString("dist_hash", "0").c_str(),
                               nullptr, 16);
    r.iterations = static_cast<int>(v.getNumber("iterations", 0.0));
    r.evaluations = static_cast<int>(v.getNumber("evaluations", 0.0));
    r.cacheHit = v.getBool("cache_hit", false);
    r.compileSeconds = v.getNumber("compile_s", 0.0);
    r.simSeconds = v.getNumber("sim_s", 0.0);
    r.classicalSeconds = v.getNumber("classical_s", 0.0);
    r.queueMs = v.getNumber("queue_ms", 0.0);
    r.solveMs = v.getNumber("solve_ms", 0.0);
    r.worker = static_cast<int>(v.getNumber("worker", 0.0));
    return r;
}

/** Client set-up: ground truth of a pass's registry cases, the streams,
 * and the connections. */
struct Setup
{
    RegistryTruths registry;
    std::vector<Stream> streams;
    std::vector<std::unique_ptr<Connection>> conns;
};

void
prepare(Setup &s, const Args &args, int pass, bool trace)
{
    s.conns.clear();
    s.streams.clear();
    s.registry = registryTruths(pass);
    for (int c = 0; c < args.connections; ++c) {
        s.streams.emplace_back(args.seed, pass, c, s.registry, trace);
        s.conns.push_back(std::make_unique<Connection>(args.port));
    }
}

} // namespace

void
runWireClient(const Args &args, Report &report)
{
    // Set-up, repeated; the first one carries process start. The
    // server's own start-up time is added by perfbench/run.py.
    Setup setup;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Timer t;
        prepare(setup, args, 0, false);
        setup_s.push_back(i == 0 ? sinceStart() : t.seconds());
    }
    if (!args.trace) {
        report.metric("setup_s", median(setup_s), "s");
        report.note(describeTiming("set-up", setup_s, "s"));
        // Answers are checked as they arrive and only their timings kept.
        Quality q;
        std::size_t ok = 0;
        std::vector<double> latencies;
        std::vector<Clock::time_point> ends;
        std::map<std::string, std::size_t> per_label;
        latencies.reserve(1 << 18);
        ends.reserve(1 << 18);
        const double seconds = closedLoop(
            setup.conns, setup.streams, args.seconds, 0,
            [&](const Answer &a) {
                ok += checkAnswer(a, report, q) ? 1 : 0;
                latencies.push_back(a.latencyMs);
                ends.push_back(a.at);
                ++per_label[a.request.label];
            });
        reconcile(statsProbe(*setup.conns.front()), report);
        emitServiceEndToEnd(report, latencies, std::move(ends), kBlockJobs, q,
                            ok, seconds);
        std::ostringstream n;
        n << "wire_mixed: " << args.connections << " connections, "
          << latencies.size() << " requests in " << seconds << " s:";
        for (const auto &[label, count] : per_label)
            n << " " << label << "=" << count;
        report.note(n.str());
        return;
    }

    // Traced run: three passes of a fixed request count per connection,
    // each on its own registry cases and inline specs (so each starts
    // cold for its structures): untraced, traced, untraced (the base).
    Quality untraced_q;
    auto check = [&](const Answer &a) { checkAnswer(a, report, untraced_q); };
    const double first_s = closedLoop(setup.conns, setup.streams, 0.0,
                                      kTracedPerConnection, check);
    Setup traced_setup;
    prepare(traced_setup, args, 1, true);
    const Json before = statsProbe(*traced_setup.conns.front());
    std::vector<Answer> traced;
    const double traced_s =
        closedLoop(traced_setup.conns, traced_setup.streams, 0.0,
                   kTracedPerConnection,
                   [&](const Answer &a) { traced.push_back(a); });
    const Json after = statsProbe(*traced_setup.conns.front());
    Setup base_setup;
    prepare(base_setup, args, 2, false);
    const double base_s = closedLoop(base_setup.conns, base_setup.streams,
                                     0.0, kTracedPerConnection, check);
    reconcile(statsProbe(*base_setup.conns.front()), report);

    PerLayer layers;
    Quality q;
    std::vector<double> queue, exec;
    std::map<std::string, std::vector<double>> per_solver;
    std::map<std::string, double> miss_compile_ms;
    double unattributed = 0.0;
    double service_unattributed = 0.0;
    double transpile = 0.0;
    // First pass over the answers: the compile span each structure's
    // miss paid (its artifact's own compile time).
    for (const auto &a : traced)
        if (!a.request.structure.empty()
            && !a.result.getBool("cache_hit", true))
            miss_compile_ms[a.request.structure] = spansOf(a.result)["compile"];
    for (const auto &a : traced) {
        checkAnswer(a, report, q);
        const Json &r = a.result;
        auto spans = spansOf(r);
        double tr = r.getNumber("compile_s", 0.0) * 1e3;
        if (a.request.label == "choco-q" || a.request.label == "choco-q-noisy") {
            const auto it = miss_compile_ms.find(a.request.structure);
            tr = std::max(0.0, tr - (it == miss_compile_ms.end()
                                         ? spans["compile"]
                                         : it->second));
        }
        const double sim = r.getNumber("sim_s", 0.0) * 1e3;
        const double classical = r.getNumber("classical_s", 0.0) * 1e3;
        const double q_ms = r.getNumber("queue_ms", 0.0);
        const double e_ms = r.getNumber("solve_ms", 0.0);
        const double in_exec =
            spans["resolve"] + spans["compile"] + sim + classical + tr;
        queue.push_back(q_ms);
        exec.push_back(e_ms);
        per_solver[a.request.label].push_back(e_ms);
        transpile += tr;
        layers.simMs += sim;
        layers.classicalMs += classical;
        layers.solveMs += spans["solve"];
        layers.evaluations += r.getNumber("evaluations", 0.0);
        layers.iterations += r.getNumber("iterations", 0.0);
        service_unattributed += e_ms - in_exec;
        unattributed += a.latencyMs - q_ms - in_exec - spans["parse"]
                        - spans["respond"];
    }
    const double jobs = static_cast<double>(traced.size());
    layers.transpileMs = transpile;
    layers.simMsPerJob = layers.simMs / jobs;
    layers.classicalMsPerJob = layers.classicalMs / jobs;
    layers.transpileMsPerJob = transpile / jobs;
    layers.queueMsP50 = percentile(queue, 0.5);
    layers.queueMsP99 = percentile(queue, 0.99);
    layers.execMsP50 = percentile(exec, 0.5);
    layers.execMsP99 = percentile(exec, 0.99);
    layers.serviceUnattributedMsPerJob = service_unattributed / jobs;
    layers.unattributedMs = unattributed / jobs;
    for (const auto &[label, v] : per_solver)
        layers.solverExecMsP50[label] = percentile(v, 0.5);
    layers.traceOverhead = traced_s / ((first_s + base_s) / 2) - 1.0;

    // Server-side books over the traced pass (after minus before).
    PerLayer before_k, after_k;
    kernelsFromStats(before, before_k);
    kernelsFromStats(after, after_k);
    for (std::size_t k = 0; k < layers.kernels.size(); ++k) {
        layers.kernels[k].calls =
            after_k.kernels[k].calls - before_k.kernels[k].calls;
        layers.kernels[k].amps =
            after_k.kernels[k].amps - before_k.kernels[k].amps;
    }
    finishKernelTotals(layers, traced.size());
    auto delta = [&](const char *section, const char *key) {
        return num(after, section, key) - num(before, section, key);
    };
    const double hits = delta("cache", "hits");
    const double misses = delta("cache", "misses");
    layers.cacheHitRate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const double reg_hits = delta("registry", "reused")
                            + delta("registry", "ref_hits");
    const double reg_all = reg_hits + delta("registry", "inserted")
                           + delta("registry", "ref_misses");
    layers.registryHitRate = reg_all > 0 ? reg_hits / reg_all : 0.0;
    layers.artifactBytes = num(after, "cache", "bytes");
    if (const Json *h = after.find("histograms")) {
        if (const Json *acc = h->find("server.accept_ms"))
            layers.acceptMs = acc->getNumber("avg_ms", 0.0);
        if (const Json *fb = h->find("server.first_byte_ms"))
            layers.firstByteMs = fb->getNumber("avg_ms", 0.0);
    }

    // Front-end layers replayed in-process on the traced pass's lines.
    {
        Timer t;
        std::size_t parsed = 0;
        for (const auto &a : traced) {
            const service::SolveJob job =
                service::jobFromJsonLine(a.request.line);
            parsed += job.id.size();
        }
        layers.parseUs = t.seconds() * 1e6 / jobs;
        std::vector<service::SolveResult> results;
        for (const auto &a : traced)
            results.push_back(resultFromJson(a.result));
        t.reset();
        std::size_t bytes = 0;
        for (const auto &r : results)
            bytes += service::resultToJson(r).dump().size();
        layers.respondUs = t.seconds() * 1e6 / jobs;
        if (parsed == 0 || bytes == 0)
            report.fail("front-end replay produced nothing");
    }

    std::vector<std::pair<const chocoq::model::Problem *, std::uint64_t>>
        structures;
    for (const auto &[key, truth] : traced_setup.registry)
        structures.push_back({&truth->problem, truth->exact.feasibleCount});
    replayStructures(structures, layers);
    emitPerLayer(report, layers);

    std::ostringstream n;
    n << "wire_mixed traced: " << traced.size() << " requests per pass; "
      << "untraced " << first_s << " / " << base_s << " s, traced "
      << traced_s << " s";
    report.note(n.str());
    report.note(describeTiming("queue", queue, "ms"));
    report.note(describeTiming("exec", exec, "ms"));
    for (const auto &[label, v] : per_solver)
        report.note(describeTiming("exec " + label, v, "ms"));
}

} // namespace perfbench
