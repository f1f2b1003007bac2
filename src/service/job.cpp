#include "service/job.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "device/device.hpp"
#include "obs/trace.hpp"
#include "problems/suite.hpp"

namespace chocoq::service
{

namespace
{

bool
knownSolver(const std::string &name)
{
    return name == "choco-q" || name == "penalty" || name == "cyclic"
           || name == "hea";
}

/**
 * Range-checked integer field. Requests come from untrusted input, and
 * a float-to-integer cast whose truncated value doesn't fit the
 * destination type is undefined behavior — so reject out-of-range or
 * non-integral values with a clean per-request error instead.
 */
long long
checkedInt(const Json &v, const char *key, long long lo, long long hi,
           long long fallback)
{
    const Json *field = v.find(key);
    if (!field)
        return fallback;
    const double raw = field->asNumber(static_cast<double>(fallback));
    if (!(raw >= static_cast<double>(lo) && raw <= static_cast<double>(hi))
        || raw != std::floor(raw))
        CHOCOQ_FATAL("field '" << key << "' must be an integer in ["
                     << lo << ", " << hi << "], got " << raw);
    return static_cast<long long>(raw);
}

} // namespace

SolveJob
jobFromJson(const Json &v, const spec::SpecLimits &limits)
{
    if (!v.isObject())
        CHOCOQ_FATAL("job request must be a JSON object");
    SolveJob job;
    job.id = v.getString("id", "");
    job.solver = v.getString("solver", job.solver);
    if (!knownSolver(job.solver))
        CHOCOQ_FATAL("unknown solver '" << job.solver
                     << "' (expected choco-q, penalty, cyclic, or hea)");

    // Exactly one way to name the problem: a registry case (scale/case),
    // an inline spec ("problem"), or a prior submission ("problem_ref").
    // Mixing them would make one silently win; reject instead.
    const Json *inline_spec = v.find("problem");
    const Json *ref = v.find("problem_ref");
    const bool named_case = v.find("scale") || v.find("case");
    if (inline_spec && ref)
        CHOCOQ_FATAL("fields 'problem' and 'problem_ref' are mutually "
                     "exclusive");
    if ((inline_spec || ref) && named_case)
        CHOCOQ_FATAL("fields 'scale'/'case' cannot be combined with an "
                     "inline 'problem' or a 'problem_ref'");
    if (inline_spec) {
        job.problem = std::make_shared<const spec::ProblemSpec>(
            spec::parseProblemSpec(*inline_spec, limits));
    } else if (ref) {
        if (ref->kind() != Json::Kind::String
            || !spec::validProblemRef(ref->asString()))
            CHOCOQ_FATAL("field 'problem_ref' must be a 16-hex-char "
                         "canonical problem hash (the problem_ref echoed "
                         "by a prior inline submission's result)");
        job.problemRef = ref->asString();
    }

    job.scale = v.getString("scale", job.scale);
    if (!problems::scaleByName(job.scale))
        CHOCOQ_FATAL("unknown scale '" << job.scale << "' (expected F1..K4)");
    job.caseIndex = static_cast<unsigned>(
        checkedInt(v, "case", 0, 1u << 30, 0));
    // Seeds may exceed 2^53; a string value carries the full 64 bits
    // (JSON numbers are doubles and would round). It must be 1-20
    // decimal digits naming a value below 2^64, nothing else.
    if (const Json *seed = v.find("seed")) {
        if (seed->kind() == Json::Kind::String) {
            const std::string &text = seed->asString();
            const char *end = text.data() + text.size();
            const auto [ptr, ec] =
                std::from_chars(text.data(), end, job.seed);
            if (text.size() > 20 || ec != std::errc() || ptr != end)
                CHOCOQ_FATAL("field 'seed' as a string must be 1-20 "
                             "decimal digits with a value below 2^64");
        } else {
            job.seed = static_cast<std::uint64_t>(checkedInt(
                v, "seed", 0, (1ll << 53),
                static_cast<long long>(job.seed)));
        }
    }
    job.shots = static_cast<int>(
        checkedInt(v, "shots", 0, 1 << 30, job.shots));
    job.device = v.getString("device", "");
    if (!job.device.empty()) {
        device::deviceByName(job.device); // throws on an unknown name
        // A device job samples its final distribution from noisy
        // trajectories; with no shots it would draw a single one.
        if (job.shots == 0)
            CHOCOQ_FATAL("field 'device' needs field 'shots' >= 1 (a "
                         "noisy distribution is sampled, never exact)");
    }
    job.layers = static_cast<int>(checkedInt(v, "layers", 0, 1 << 20, 0));
    job.maxIterations =
        static_cast<int>(checkedInt(v, "iters", 0, 1 << 30, 0));
    job.keepStarts =
        static_cast<int>(checkedInt(v, "keep_starts", 0, 1 << 20, 0));
    if (const Json *fusion = v.find("fusion")) {
        if (fusion->kind() != Json::Kind::Bool)
            CHOCOQ_FATAL("field 'fusion' must be a boolean");
        job.fusion = fusion->asBool(true);
    }
    job.deadlineMs = v.getNumber("deadline_ms", 0.0);
    if (!(job.deadlineMs >= 0.0 && job.deadlineMs <= kMaxDeadlineMs))
        CHOCOQ_FATAL("field 'deadline_ms' must be in [0, 2147483648] "
                     "(2^31 ms, about 24.9 days), got "
                     << job.deadlineMs);
    if (const Json *trace = v.find("trace")) {
        if (trace->kind() != Json::Kind::Bool)
            CHOCOQ_FATAL("field 'trace' must be a boolean");
        job.trace = trace->asBool(false);
    }
    return job;
}

SolveJob
jobFromJsonLine(const std::string &line, const spec::SpecLimits &limits)
{
    return jobFromJson(Json::parse(line), limits);
}

std::string
distHashHex(std::uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
    return std::string(buf);
}

Json
jobToJsonRequest(const SolveJob &job)
{
    Json out = Json::object();
    out.set("id", job.id);
    out.set("solver", job.solver);
    // The three problem namings are mutually exclusive on the wire, so
    // emit only the one this job uses.
    if (job.problem) {
        out.set("problem", job.problem->wire);
    } else if (!job.problemRef.empty()) {
        out.set("problem_ref", job.problemRef);
    } else {
        out.set("scale", job.scale);
        out.set("case", static_cast<double>(job.caseIndex));
    }
    if (job.seed <= (1ull << 53)) {
        out.set("seed", static_cast<double>(job.seed));
    } else {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%" PRIu64, job.seed);
        out.set("seed", std::string(buf));
    }
    out.set("shots", job.shots);
    if (!job.device.empty())
        out.set("device", job.device);
    out.set("layers", job.layers);
    out.set("iters", job.maxIterations);
    out.set("keep_starts", job.keepStarts);
    out.set("fusion", job.fusion);
    out.set("deadline_ms", job.deadlineMs);
    out.set("trace", job.trace);
    return out;
}

Json
resultToJson(const SolveResult &r)
{
    Json out = Json::object();
    out.set("id", r.id);
    out.set("status", r.status);
    if (!r.error.empty())
        out.set("error", r.error);
    if (r.status != "ok") {
        out.set("queue_ms", r.queueMs);
        // Cancelled/expired jobs that reached a worker also report how
        // long they ran and where, so clients can see how much work a
        // late cancel or deadline actually wasted.
        if (r.worker >= 0) {
            out.set("solve_ms", r.solveMs);
            out.set("worker", r.worker);
        }
        // A traced job reports its timeline whatever its fate — the
        // spans show where a cancel or deadline actually landed.
        if (r.trace)
            out.set("trace", r.trace->toJson(/*mark_respond=*/true));
        return out;
    }
    out.set("problem", r.problem);
    if (!r.problemRef.empty())
        out.set("problem_ref", r.problemRef);
    if (r.refreshed)
        out.set("refreshed", true);
    out.set("solver", r.solver);
    out.set("best_cost", r.bestCost);
    out.set("top_state", static_cast<double>(r.topState));
    out.set("top_probability", r.topProbability);
    out.set("top_feasible", r.topFeasible);
    out.set("top_objective", r.topObjective);
    out.set("feasible_mass", r.feasibleMass);
    out.set("dist_hash", distHashHex(r.distHash));
    out.set("iterations", r.iterations);
    out.set("evaluations", r.evaluations);
    out.set("cache_hit", r.cacheHit);
    out.set("compile_s", r.compileSeconds);
    out.set("sim_s", r.simSeconds);
    out.set("classical_s", r.classicalSeconds);
    out.set("queue_ms", r.queueMs);
    out.set("solve_ms", r.solveMs);
    out.set("worker", r.worker);
    if (r.trace)
        out.set("trace", r.trace->toJson(/*mark_respond=*/true));
    return out;
}

} // namespace chocoq::service
