/**
 * @file
 * Job model of the concurrent solve service.
 *
 * A SolveJob names one problem instance from the benchmark registry
 * (scale + case index — the generator regenerates it on demand, so job
 * streams need no materialized problem objects), one solver design, and
 * the per-job execution knobs: RNG seed, shots, device noise, iteration
 * budget, queueing deadline. A SolveResult carries the answer plus the
 * observability fields the throughput benchmarks aggregate (latency
 * split, cache-hit flag, worker id) and a bitwise distribution hash used
 * by the determinism tests: identical (job, seed) pairs must produce
 * identical hashes at any worker count.
 */

#ifndef CHOCOQ_SERVICE_JOB_HPP
#define CHOCOQ_SERVICE_JOB_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "common/bitops.hpp"
#include "service/json.hpp"
#include "spec/spec.hpp"

namespace chocoq::obs
{
class Trace;
} // namespace chocoq::obs

namespace chocoq::service
{

/** Longest accepted deadline_ms: 2^31 ms, about 24.9 days. */
inline constexpr double kMaxDeadlineMs = 2147483648.0;

/** One solve request. */
struct SolveJob
{
    /** Caller-chosen identifier echoed into the result. */
    std::string id;
    /** Solver design: choco-q (default), penalty, cyclic, or hea. */
    std::string solver = "choco-q";
    /** Benchmark scale name ("F1" .. "K4"). */
    std::string scale = "F1";
    /** Seeded case index within the scale. */
    unsigned caseIndex = 0;
    /**
     * Inline problem definition (wire key "problem"): a user-supplied
     * constrained binary program parsed and canonicalized by src/spec.
     * Mutually exclusive with scale/case and problem_ref. Shared, not
     * copied: the spec is immutable once parsed.
     */
    std::shared_ptr<const spec::ProblemSpec> problem;
    /**
     * Reference to a previously submitted inline problem by canonical
     * content hash (wire key "problem_ref", 16 hex chars): reuses the
     * registered model without resending the matrix. Empty = unused.
     */
    std::string problemRef;
    /** Master seed for every stochastic component of this job. */
    std::uint64_t seed = 7;
    /** Measurement shots for the final distribution; 0 = exact. */
    int shots = 0;
    /** Device model for noisy sampling ("", "fez", "osaka", "sherbrooke"). */
    std::string device;
    /** Ansatz layers; 0 keeps the solver default. */
    int layers = 0;
    /** Optimizer iteration budget; 0 keeps the solver default. */
    int maxIterations = 0;
    /**
     * Multi-start screening (EngineOptions::multiStartKeep): number of
     * starts that survive one evaluation each and receive a full
     * optimizer run. 0 optimizes every start.
     */
    int keepStarts = 0;
    /**
     * Layer fusion (EngineOptions::fusion): fused layer application
     * (or the feasible-subspace backend) in the variational loop. On
     * by default; the off switch keeps the cross-checked per-term
     * kernels reachable from the wire. Part of the compile-cache key
     * (fused artifacts carry the fusion plan).
     */
    bool fusion = true;
    /**
     * End-to-end deadline in milliseconds from submission. The clock
     * keeps counting during execution: a job still queued past its
     * deadline fails as "expired" without running, and a job whose
     * deadline elapses mid-execution is cooperatively cancelled at the
     * next engine checkpoint and fails as "expired" too. 0 = no
     * deadline. The wire rejects values above kMaxDeadlineMs, and
     * SolveService::submit clamps library-supplied ones to it.
     */
    double deadlineMs = 0.0;
    /**
     * Request a span timeline for this job (wire key "trace"). The
     * result line then carries a "trace" object; see
     * docs/observability.md. Tracing never changes the answer: solver
     * outputs are bit-identical with trace on or off (tested property).
     */
    bool trace = false;
    /**
     * Front-end bookkeeping, not a wire field: milliseconds the
     * front-end spent parsing this request line, so a traced job's
     * timeline starts at parse begin ("parse" is span zero). Library
     * callers that build SolveJobs directly leave it 0 and the timeline
     * starts at submit.
     */
    double parseMs = 0.0;
};

/** One solve answer. */
struct SolveResult
{
    std::string id;
    /** "ok", "expired", "cancelled", "error", or — socket front-end
     * only — "rejected" (backpressure; see error for the message and
     * docs/protocol.md for the contract). "cancelled" covers explicit
     * cancel requests and client disconnects; deadline expiry always
     * reports "expired", queued or executing. */
    std::string status = "ok";
    std::string error;
    /** Resolved problem name (scale:config#index, or inline:<hash>). */
    std::string problem;
    /**
     * Canonical content hash of the problem this job ran, echoed for
     * inline and problem_ref jobs (empty for registry cases): clients
     * reuse it as the next request's "problem_ref".
     */
    std::string problemRef;
    std::string solver;

    /** Best variational cost (minimization form). */
    double bestCost = 0.0;
    /** Most probable output state and its properties. */
    Basis topState = 0;
    double topProbability = 0.0;
    bool topFeasible = false;
    /** Objective value (problem sense) of the top state. */
    double topObjective = 0.0;
    /** Probability mass on feasible states. */
    double feasibleMass = 0.0;
    /** FNV-1a over the exact output distribution (bitwise). */
    std::uint64_t distHash = 0;
    /**
     * Inline submissions only: this job re-registered a hash that had
     * been evicted from the problem registry, so previously issued
     * problem_refs to it are valid again (wire key "refreshed",
     * emitted only when true; pairs with the "ref_expired" error).
     */
    bool refreshed = false;

    int iterations = 0;
    int evaluations = 0;
    /** Whether compilation artifacts came from the cache. */
    bool cacheHit = false;
    double compileSeconds = 0.0;
    double simSeconds = 0.0;
    double classicalSeconds = 0.0;
    /** Time between submission and execution start. */
    double queueMs = 0.0;
    /** Execution wall time on the worker. */
    double solveMs = 0.0;
    /** Worker that ran the job. */
    int worker = -1;
    /** Span timeline, present only when the job asked for "trace":true
     * (null otherwise — tracing is zero-cost when unrequested). */
    std::shared_ptr<const obs::Trace> trace;
};

/**
 * Parse one JSONL request line. Recognized keys: id, solver, scale,
 * case, problem, problem_ref, seed, shots, device, layers, iters,
 * keep_starts, fusion, deadline_ms, trace. Missing keys take the
 * SolveJob defaults; unrecognized keys are ignored. Throws FatalError
 * on malformed JSON, an unknown scale/solver name, a problem spec that
 * fails validation or a resource guard in @p limits, or a request
 * mixing problem/problem_ref/scale.
 */
SolveJob jobFromJson(const Json &v, const spec::SpecLimits &limits = {});

/** Convenience: parse a raw JSONL line. */
SolveJob jobFromJsonLine(const std::string &line,
                         const spec::SpecLimits &limits = {});

/** Serialize a result to one JSONL object. */
Json resultToJson(const SolveResult &r);

/** The wire encoding of dist_hash: 16 lowercase hex chars (JSON
 * numbers are doubles and would round a 64-bit hash). One definition,
 * shared by the serializer and every bitwise cross-check. */
std::string distHashHex(std::uint64_t hash);

/**
 * Serialize a job to one JSONL request object (the inverse of
 * jobFromJson: every field is emitted, seeds above 2^53 as decimal
 * strings, so the request round-trips exactly). The socket tests
 * build their requests with it, so they send exactly the fields
 * jobFromJson reads.
 */
Json jobToJsonRequest(const SolveJob &job);

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_JOB_HPP
