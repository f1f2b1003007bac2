#include "spec/spec.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"

namespace chocoq::spec
{

namespace
{

/** Most variables any spec may declare regardless of configured caps:
 * Basis indices are 64-bit and slack/scratch headroom keeps two bits
 * free. */
constexpr int kHardMaxVars = 62;

/**
 * Integer field with a field-path error message: inline specs are
 * untrusted input, and a fractional or out-of-range value must fail the
 * request with the offending path, never reach a float-to-int cast.
 */
long long
requireInt(const service::Json &v, const std::string &path, double lo,
           double hi)
{
    if (v.kind() != service::Json::Kind::Number)
        CHOCOQ_FATAL(path << " must be a number, got " << typeName(v));
    const double raw = v.asNumber(0.0);
    if (!std::isfinite(raw) || raw != std::floor(raw))
        CHOCOQ_FATAL(path << " must be an integer, got " << raw);
    if (!(raw >= lo && raw <= hi))
        CHOCOQ_FATAL(path << " = " << raw << " is outside [" << lo << ", "
                     << hi << "]");
    return static_cast<long long>(raw);
}

double
requireFinite(const service::Json &v, const std::string &path,
              double max_abs)
{
    if (v.kind() != service::Json::Kind::Number)
        CHOCOQ_FATAL(path << " must be a number, got " << typeName(v));
    const double raw = v.asNumber(0.0);
    // NaN/Inf cannot appear in conforming JSON, but the parser accepts
    // "1e999" (strtod overflows to inf) — reject both spellings here.
    if (!std::isfinite(raw))
        CHOCOQ_FATAL(path << " must be finite");
    if (std::fabs(raw) > max_abs)
        CHOCOQ_FATAL(path << " magnitude " << std::fabs(raw)
                     << " exceeds the coefficient cap " << max_abs);
    return raw;
}

/**
 * Sign-normalize one row in place: flip the whole equality when the
 * first nonzero coefficient is negative (sum -a_i x_i = -c and
 * sum a_i x_i = c are the same constraint, so canonical identity must
 * not distinguish them).
 */
void
normalizeRowSign(model::LinearConstraint &row)
{
    for (const int c : row.coeffs) {
        if (c == 0)
            continue;
        if (c < 0) {
            for (int &v : row.coeffs)
                v = -v;
            row.rhs = -row.rhs;
        }
        return;
    }
}

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void
    mixDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
};

/** The canonical row order: sign-normalized, sorted by (coeffs, rhs). */
std::vector<model::LinearConstraint>
canonicalRows(std::vector<model::LinearConstraint> rows)
{
    for (auto &row : rows)
        normalizeRowSign(row);
    std::sort(rows.begin(), rows.end(),
              [](const model::LinearConstraint &a,
                 const model::LinearConstraint &b) {
                  if (a.coeffs != b.coeffs)
                      return a.coeffs < b.coeffs;
                  return a.rhs < b.rhs;
              });
    return rows;
}

/** Order-invariant canonical hash: vars, sense, objective terms (the
 * Polynomial's term map is already sorted), and the sign-normalized
 * rows in sorted order — so submissions differing only in row
 * permutation or row sign share one identity. */
std::uint64_t
canonicalHash(int vars, model::Sense sense,
              const model::Polynomial &objective,
              std::vector<model::LinearConstraint> unsorted_rows)
{
    const auto rows = canonicalRows(std::move(unsorted_rows));
    Fnv fnv;
    fnv.mix(static_cast<std::uint64_t>(vars));
    fnv.mix(sense == model::Sense::Minimize ? 0 : 1);
    fnv.mix(objective.size());
    for (const auto &[mono, coeff] : objective.terms()) {
        fnv.mix(mono.size());
        for (const int v : mono)
            fnv.mix(static_cast<std::uint64_t>(v));
        fnv.mixDouble(coeff);
    }
    fnv.mix(rows.size());
    for (const auto &row : rows) {
        for (const int c : row.coeffs)
            fnv.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
        fnv.mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(row.rhs)));
    }
    return fnv.h;
}

model::Polynomial
parseObjective(const service::Json &v, int vars, const SpecLimits &limits)
{
    model::Polynomial f;
    if (v.kind() != service::Json::Kind::Array)
        CHOCOQ_FATAL("problem.objective must be an array, got "
                     << typeName(v));
    const auto &items = v.items();
    if (items.size() > limits.maxObjectiveTerms)
        CHOCOQ_FATAL("problem.objective has " << items.size()
                     << " entries, more than the cap of "
                     << limits.maxObjectiveTerms);
    if (items.empty())
        return f;

    // Two forms, not mixed: a dense linear coefficient array (entry i is
    // the coefficient of x_i), or sparse multilinear term objects
    // {"vars": [indices], "coeff": c} (empty "vars" is the constant).
    const bool dense = items[0].kind() == service::Json::Kind::Number;
    if (!dense && !items[0].isObject())
        CHOCOQ_FATAL("problem.objective[0] must be a number (dense form) "
                     "or a term object {\"vars\":[...],\"coeff\":c}, got "
                     << typeName(items[0]));
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string path =
            "problem.objective[" + std::to_string(i) + "]";
        if (dense) {
            if (static_cast<int>(items.size()) > vars)
                CHOCOQ_FATAL("problem.objective has " << items.size()
                             << " coefficients for " << vars
                             << " variables");
            if (items[i].kind() != service::Json::Kind::Number)
                CHOCOQ_FATAL(path << " must be a number like the first "
                             "entry (dense numbers and term objects "
                             "cannot be mixed), got " << typeName(items[i]));
            const double c = requireFinite(items[i], path, limits.maxCoeff);
            if (c != 0.0)
                f.addTerm({static_cast<int>(i)}, c);
            continue;
        }
        if (!items[i].isObject())
            CHOCOQ_FATAL(path << " must be " << typeName(items[0])
                         << " like the first entry (dense numbers and "
                            "term objects cannot be mixed), got "
                         << typeName(items[i]));
        const service::Json *term_vars = items[i].find("vars");
        const service::Json *coeff = items[i].find("coeff");
        if (!term_vars || !coeff)
            CHOCOQ_FATAL(path << " needs both \"vars\" and \"coeff\"");
        if (term_vars->kind() != service::Json::Kind::Array)
            CHOCOQ_FATAL(path << ".vars must be an array, got "
                         << typeName(*term_vars));
        model::Polynomial::Monomial mono;
        for (std::size_t k = 0; k < term_vars->items().size(); ++k) {
            const int var = static_cast<int>(
                requireInt(term_vars->items()[k],
                           path + ".vars[" + std::to_string(k) + "]", 0,
                           vars - 1));
            if (std::find(mono.begin(), mono.end(), var) != mono.end())
                CHOCOQ_FATAL(path << ".vars repeats x" << var
                             << " (binary variables are idempotent; list "
                                "each variable once)");
            mono.push_back(var);
        }
        const double c =
            requireFinite(*coeff, path + ".coeff", limits.maxCoeff);
        if (c != 0.0)
            f.addTerm(std::move(mono), c);
    }
    return f;
}

std::vector<model::LinearConstraint>
parseConstraints(const service::Json &v, int vars, const SpecLimits &limits)
{
    if (!v.isObject())
        CHOCOQ_FATAL("problem.constraints must be an object with \"A\" "
                     "and \"b\", got " << typeName(v));
    const service::Json *a = v.find("A");
    const service::Json *b = v.find("b");
    if (!a || a->kind() != service::Json::Kind::Array)
        CHOCOQ_FATAL("problem.constraints.A must be an array of rows");
    if (!b || b->kind() != service::Json::Kind::Array)
        CHOCOQ_FATAL("problem.constraints.b must be an array");
    if (a->items().size() != b->items().size())
        CHOCOQ_FATAL("problem.constraints: A has " << a->items().size()
                     << " rows but b has " << b->items().size()
                     << " entries");
    if (a->items().empty())
        CHOCOQ_FATAL("problem.constraints.A must contain at least one row "
                     "(the solvers target constrained problems)");
    // Row cap up front, before the quadratic dedup loop: a hostile spec
    // must not buy O(rows^2) work with rows it was never allowed to
    // submit.
    if (a->items().size() > static_cast<std::size_t>(limits.maxConstraints))
        CHOCOQ_FATAL("problem.constraints has " << a->items().size()
                     << " rows, more than the cap of "
                     << limits.maxConstraints);

    std::vector<model::LinearConstraint> rows;
    std::vector<model::LinearConstraint> normalized;
    /** Submitted row index of each kept row, for error messages that
     * point at the line the user actually wrote. */
    std::vector<std::size_t> submittedIndex;
    for (std::size_t i = 0; i < a->items().size(); ++i) {
        const std::string path =
            "problem.constraints.A[" + std::to_string(i) + "]";
        const service::Json &raw = a->items()[i];
        if (raw.kind() != service::Json::Kind::Array)
            CHOCOQ_FATAL(path << " must be an array, got "
                         << typeName(raw));
        if (static_cast<int>(raw.items().size()) != vars)
            CHOCOQ_FATAL(path << " has " << raw.items().size()
                         << " entries, expected " << vars
                         << " (problem.vars)");
        model::LinearConstraint row;
        row.coeffs.reserve(raw.items().size());
        long long lo = 0, hi = 0;
        for (std::size_t k = 0; k < raw.items().size(); ++k) {
            const int c = static_cast<int>(
                requireInt(raw.items()[k],
                           path + "[" + std::to_string(k) + "]",
                           -limits.maxCoeff, limits.maxCoeff));
            row.coeffs.push_back(c);
            (c < 0 ? lo : hi) += c;
        }
        row.rhs = static_cast<int>(
            requireInt(b->items()[i],
                       "problem.constraints.b[" + std::to_string(i) + "]",
                       -limits.maxCoeff, limits.maxCoeff));

        const std::string brief = "row " + std::to_string(i) + " (A["
                                  + std::to_string(i) + "] x = b["
                                  + std::to_string(i) + "])";
        if (lo == 0 && hi == 0) {
            if (row.rhs != 0)
                CHOCOQ_FATAL("problem.constraints: " << brief
                             << " has all-zero coefficients but rhs "
                             << row.rhs << " — infeasible");
            CHOCOQ_FATAL("problem.constraints: " << brief
                         << " has all-zero coefficients — degenerate "
                            "(drop the row instead)");
        }
        // Binary variables bound the left-hand side to [sum of negative
        // coefficients, sum of positive coefficients]; an rhs outside
        // that range can never be satisfied.
        if (row.rhs < lo || row.rhs > hi)
            CHOCOQ_FATAL("problem.constraints: " << brief
                         << " can never be satisfied by binary "
                            "variables (lhs range [" << lo << ", " << hi
                         << "], rhs " << row.rhs << ") — infeasible");

        // Dedup by sign-normalized identity (a row and its negation are
        // the same equality): an exact duplicate is dropped, the same
        // coefficients with a different rhs contradict each other —
        // reject, don't solve. The *kept* row stays in its submitted
        // form: lowering must reproduce a transcribed problem exactly
        // (normalization and sorting belong to the content hash only).
        model::LinearConstraint norm = row;
        normalizeRowSign(norm);
        bool duplicate = false;
        for (std::size_t k = 0; k < normalized.size(); ++k) {
            if (normalized[k].coeffs != norm.coeffs)
                continue;
            if (normalized[k].rhs != norm.rhs)
                CHOCOQ_FATAL("problem.constraints: " << brief
                             << " contradicts row " << submittedIndex[k]
                             << " (the same constraint with rhs "
                             << norm.rhs << " vs " << normalized[k].rhs
                             << ") — infeasible");
            duplicate = true;
            break;
        }
        if (!duplicate) {
            rows.push_back(std::move(row));
            normalized.push_back(std::move(norm));
            submittedIndex.push_back(i);
        }
    }
    return rows;
}

} // namespace

ProblemSpec
parseProblemSpec(const service::Json &v, const SpecLimits &limits)
{
    if (!v.isObject())
        CHOCOQ_FATAL("field 'problem' must be an object, got "
                     << typeName(v));

    // Spec-bytes guard first: the cheapest check bounds everything the
    // later ones cost (canonicalization, hashing, registry insertion).
    ProblemSpec spec;
    spec.wire = v;
    const std::size_t bytes = spec.wire.dump().size();
    if (bytes > limits.maxSpecBytes)
        CHOCOQ_FATAL("problem spec is " << bytes
                     << " bytes serialized, more than the cap of "
                     << limits.maxSpecBytes
                     << " (split the model or raise --max-spec-bytes)");

    const service::Json *vars = v.find("vars");
    if (!vars)
        CHOCOQ_FATAL("problem.vars is required");
    const int hard_cap = std::min(limits.maxQubits, kHardMaxVars);
    spec.vars = static_cast<int>(requireInt(*vars, "problem.vars", 1,
                                            hard_cap));

    const service::Json *sense = v.find("sense");
    if (sense) {
        const std::string s = sense->asString("");
        if (s == "min")
            spec.sense = model::Sense::Minimize;
        else if (s == "max")
            spec.sense = model::Sense::Maximize;
        else
            CHOCOQ_FATAL("problem.sense must be \"min\" or \"max\", got "
                         << (sense->kind() == service::Json::Kind::String
                                 ? "\"" + s + "\""
                                 : typeName(*sense)));
    }

    for (const auto &[key, value] : v.members()) {
        (void)value;
        if (key != "vars" && key != "sense" && key != "objective"
            && key != "constraints")
            CHOCOQ_FATAL("problem." << key << " is not a recognized field "
                         "(expected vars, sense, objective, constraints)");
    }

    const service::Json *objective = v.find("objective");
    if (objective)
        spec.objective = parseObjective(*objective, spec.vars, limits);

    const service::Json *constraints = v.find("constraints");
    if (!constraints)
        CHOCOQ_FATAL("problem.constraints is required (the solvers "
                     "target constrained problems)");
    spec.rows = parseConstraints(*constraints, spec.vars, limits);

    spec.hash = canonicalHash(spec.vars, spec.sense, spec.objective,
                              spec.rows);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, spec.hash);
    spec.hashHex = buf;
    return spec;
}

model::Problem
ProblemSpec::lower() const
{
    model::Problem p(vars, sense, "inline:" + hashHex);
    p.setObjective(objective);
    for (const auto &row : rows)
        p.addEquality(row.coeffs, row.rhs);
    return p;
}

service::Json
problemToSpecJson(const model::Problem &p)
{
    service::Json out = service::Json::object();
    out.set("vars", p.numVars());
    out.set("sense", p.sense() == model::Sense::Minimize ? "min" : "max");

    // Dense form when the objective is purely linear (the common case
    // for transcribed instances), term objects otherwise.
    const bool linear = p.objective().degree() <= 1;
    service::Json objective = service::Json::array();
    if (linear && p.objective().terms().count({}) == 0) {
        std::vector<double> coeffs(
            static_cast<std::size_t>(p.numVars()), 0.0);
        for (const auto &[mono, coeff] : p.objective().terms())
            coeffs[static_cast<std::size_t>(mono[0])] = coeff;
        for (const double c : coeffs)
            objective.push(c);
    } else {
        for (const auto &[mono, coeff] : p.objective().terms()) {
            service::Json term = service::Json::object();
            service::Json term_vars = service::Json::array();
            for (const int v : mono)
                term_vars.push(v);
            term.set("vars", std::move(term_vars));
            term.set("coeff", coeff);
            objective.push(std::move(term));
        }
    }
    out.set("objective", std::move(objective));

    service::Json a = service::Json::array();
    service::Json b = service::Json::array();
    for (const auto &row : p.constraints()) {
        service::Json coeffs = service::Json::array();
        for (const int c : row.coeffs)
            coeffs.push(c);
        a.push(std::move(coeffs));
        b.push(row.rhs);
    }
    service::Json constraints = service::Json::object();
    constraints.set("A", std::move(a));
    constraints.set("b", std::move(b));
    out.set("constraints", std::move(constraints));
    return out;
}

bool
canonicallyEqual(const ProblemSpec &s, const model::Problem &p)
{
    return p.numVars() == s.vars && p.sense() == s.sense
           && p.objective().terms() == s.objective.terms()
           && canonicalRows(p.constraints()) == canonicalRows(s.rows);
}

bool
validProblemRef(const std::string &s)
{
    if (s.size() != 16)
        return false;
    for (const char c : s)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

} // namespace chocoq::spec
