/**
 * @file
 * Inline problem-spec tests: wire-level parsing with per-field errors,
 * canonicalization (sign normalization, dedup, row-order-invariant
 * content hash), exact round-tripping of registry cases, resource
 * guards, the ProblemRegistry LRU, and the end-to-end service behavior
 * the protocol promises — an inline spec and the equivalent registry
 * case produce bitwise-identical results, row-permuted resubmissions
 * are compile-cache hits, and problem_ref misses fail cleanly — in
 * both batch and socket modes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "problems/suite.hpp"
#include "service/compile_cache.hpp"
#include "service/job.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "spec/registry.hpp"
#include "spec/spec.hpp"

using namespace chocoq;

namespace
{

spec::ProblemSpec
parseSpec(const std::string &text, const spec::SpecLimits &limits = {})
{
    return spec::parseProblemSpec(service::Json::parse(text), limits);
}

/** Expect parseProblemSpec to throw with @p needle in the message. */
void
expectSpecError(const std::string &text, const std::string &needle,
                const spec::SpecLimits &limits = {})
{
    try {
        parseSpec(text, limits);
        FAIL() << "spec must be rejected: " << text;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' should contain '" << needle
            << "'";
    }
}

/** A 4-var instance with distinguishable rows, used across the
 * canonicalization tests. */
const char *kBaseSpec =
    R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
    R"("constraints":{"A":[[1,1,0,0],[0,0,1,1]],"b":[1,1]}})";

} // namespace

// -------------------------------------------------------------- parsing

TEST(SpecParse, MinimalSpecAndDefaults)
{
    const auto s = parseSpec(kBaseSpec);
    EXPECT_EQ(s.vars, 4);
    EXPECT_EQ(s.sense, model::Sense::Minimize);
    ASSERT_EQ(s.rows.size(), 2u);
    EXPECT_EQ(s.rows[0].coeffs, (std::vector<int>{1, 1, 0, 0}));
    EXPECT_EQ(s.rows[0].rhs, 1);
    EXPECT_EQ(s.hashHex.size(), 16u);
    EXPECT_TRUE(spec::validProblemRef(s.hashHex));

    const auto p = s.lower();
    EXPECT_EQ(p.numVars(), 4);
    EXPECT_EQ(p.name(), "inline:" + s.hashHex);
    EXPECT_DOUBLE_EQ(p.objectiveOf(0b0101), 7.0); // x0 + x2: 3 + 4

    // "sense" defaults to min; "max" flips it.
    const auto max = parseSpec(
        R"({"vars":2,"sense":"max","objective":[1,2],)"
        R"("constraints":{"A":[[1,1]],"b":[1]}})");
    EXPECT_EQ(max.sense, model::Sense::Maximize);
    EXPECT_NE(max.hash, parseSpec(
        R"({"vars":2,"objective":[1,2],)"
        R"("constraints":{"A":[[1,1]],"b":[1]}})").hash)
        << "sense is part of the canonical identity";
}

TEST(SpecParse, DenseAndTermObjectivesAgree)
{
    // The dense coefficient array and the equivalent term objects are
    // the same polynomial, hence the same canonical hash.
    const auto dense = parseSpec(kBaseSpec);
    const auto terms = parseSpec(
        R"({"vars":4,"sense":"min","objective":[)"
        R"({"vars":[0],"coeff":3},{"vars":[1],"coeff":1},)"
        R"({"vars":[2],"coeff":4},{"vars":[3],"coeff":1}],)"
        R"("constraints":{"A":[[1,1,0,0],[0,0,1,1]],"b":[1,1]}})");
    EXPECT_EQ(dense.hash, terms.hash);

    // Term objects carry what dense cannot: constants and products.
    const auto quad = parseSpec(
        R"({"vars":2,"objective":[{"vars":[],"coeff":-1.5},)"
        R"({"vars":[0,1],"coeff":2}],)"
        R"("constraints":{"A":[[1,1]],"b":[1]}})");
    EXPECT_DOUBLE_EQ(quad.lower().objectiveOf(0b11), -1.5 + 2.0);
}

TEST(SpecParse, PerFieldErrorsNameTheOffendingField)
{
    // vars
    expectSpecError(R"({"constraints":{"A":[[1]],"b":[1]}})",
                    "problem.vars is required");
    expectSpecError(R"({"vars":0,"constraints":{"A":[[1]],"b":[1]}})",
                    "problem.vars");
    expectSpecError(R"({"vars":2.5,"constraints":{"A":[[1,1]],"b":[1]}})",
                    "must be an integer");
    expectSpecError(R"({"vars":"four","constraints":{"A":[[1]],"b":[1]}})",
                    "must be a number, got a string");

    // objective
    expectSpecError(R"({"vars":2,"objective":7,)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "problem.objective must be an array");
    expectSpecError(R"({"vars":2,"objective":[1e999],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "problem.objective[0] must be finite");
    expectSpecError(R"({"vars":2,"objective":[1,2,3],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "3 coefficients for 2 variables");
    expectSpecError(R"({"vars":2,"objective":[{"vars":[2],"coeff":1}],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "problem.objective[0].vars[0]");
    expectSpecError(R"({"vars":2,"objective":[{"vars":[0,0],"coeff":1}],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "repeats x0");
    expectSpecError(R"({"vars":2,"objective":[{"coeff":1}],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "needs both \"vars\" and \"coeff\"");
    expectSpecError(R"({"vars":2,"objective":[1,{"vars":[0],"coeff":1}],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "cannot be mixed");
    expectSpecError(R"({"vars":2,"objective":["x"],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "a number (dense form) or a term object");

    // constraints
    expectSpecError(R"({"vars":2})", "problem.constraints is required");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,1]]}})",
                    "problem.constraints.b");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,1]],"b":[1,2]}})",
                    "1 rows but b has 2");
    expectSpecError(R"({"vars":2,"constraints":{"A":[],"b":[]}})",
                    "at least one row");
    expectSpecError(R"({"vars":3,"constraints":{"A":[[1,1]],"b":[1]}})",
                    "has 2 entries, expected 3");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,0.5]],"b":[1]}})",
                    "problem.constraints.A[0][1] must be an integer");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,1]],"b":[1.5]}})",
                    "problem.constraints.b[0] must be an integer");

    // degenerate and infeasible systems
    expectSpecError(R"({"vars":2,"constraints":{"A":[[0,0]],"b":[1]}})",
                    "infeasible");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[0,0]],"b":[0]}})",
                    "degenerate");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,1]],"b":[3]}})",
                    "can never be satisfied");
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,-1]],"b":[2]}})",
                    "can never be satisfied");
    expectSpecError(
        R"({"vars":2,"constraints":{"A":[[1,1],[1,1]],"b":[1,2]}})",
        "contradicts row 0");
    // ...including a contradiction hidden behind a sign flip.
    expectSpecError(
        R"({"vars":2,"constraints":{"A":[[1,1],[-1,-1]],"b":[1,-2]}})",
        "contradicts row 0");

    // unknown fields are typos, not extensions
    expectSpecError(R"({"vars":2,"constrains":{"A":[[1,1]],"b":[1]}})",
                    "not a recognized field");
}

TEST(SpecParse, ResourceGuardsReject)
{
    spec::SpecLimits limits;
    limits.maxQubits = 3;
    expectSpecError(R"({"vars":4,"constraints":{"A":[[1,1,1,1]],"b":[1]}})",
                    "outside [1, 3]", limits);

    limits = {};
    limits.maxConstraints = 1;
    expectSpecError(
        R"({"vars":2,"constraints":{"A":[[1,1],[1,0]],"b":[1,1]}})",
        "more than the cap of 1", limits);

    limits = {};
    limits.maxCoeff = 10;
    expectSpecError(R"({"vars":2,"constraints":{"A":[[11,1]],"b":[1]}})",
                    "outside [-10, 10]", limits);
    expectSpecError(R"({"vars":2,"constraints":{"A":[[1,1]],"b":[-11]}})",
                    "outside [-10, 10]", limits);
    expectSpecError(R"({"vars":2,"objective":[100,0],)"
                    R"("constraints":{"A":[[1,1]],"b":[1]}})",
                    "exceeds the coefficient cap", limits);

    limits = {};
    limits.maxSpecBytes = 40;
    expectSpecError(kBaseSpec, "bytes serialized, more than the cap",
                    limits);

    // The hard ceiling holds even when the configured cap is raised.
    limits = {};
    limits.maxQubits = 100;
    expectSpecError(R"({"vars":63,"constraints":{"A":[[1]],"b":[1]}})",
                    "outside [1, 62]", limits);
}

// ----------------------------------------------------- canonicalization

TEST(SpecCanonical, HashInvariantUnderRowPermutationAndSign)
{
    const auto base = parseSpec(kBaseSpec);
    const auto permuted = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
        R"("constraints":{"A":[[0,0,1,1],[1,1,0,0]],"b":[1,1]}})");
    const auto flipped = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
        R"("constraints":{"A":[[-1,-1,0,0],[0,0,1,1]],"b":[-1,1]}})");
    EXPECT_EQ(base.hash, permuted.hash)
        << "row order must not change the canonical identity";
    EXPECT_EQ(base.hash, flipped.hash)
        << "a row and its negation are the same equality";

    // Different structure means a different identity.
    const auto other = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
        R"("constraints":{"A":[[1,1,0,0],[0,1,1,1]],"b":[1,1]}})");
    EXPECT_NE(base.hash, other.hash);
    const auto coeffs = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,2],)"
        R"("constraints":{"A":[[1,1,0,0],[0,0,1,1]],"b":[1,1]}})");
    EXPECT_NE(base.hash, coeffs.hash);
}

TEST(SpecCanonical, DuplicateRowsDedupToOneEvenPermutedOrFlipped)
{
    const auto dup = parseSpec(
        R"({"vars":4,"objective":[3,1,4,1],"constraints":)"
        R"({"A":[[0,0,1,1],[1,1,0,0],[0,0,1,1],[0,0,-1,-1]],)"
        R"("b":[1,1,1,-1]}})");
    EXPECT_EQ(dup.rows.size(), 2u)
        << "exact and sign-flipped duplicates must be dropped";
    EXPECT_EQ(dup.hash, parseSpec(kBaseSpec).hash)
        << "a spec with redundant duplicate rows is the same problem";
}

TEST(SpecCanonical, RegistryCasesRoundTripExactly)
{
    // problemToSpecJson -> parse -> lower must reproduce the original
    // instance bit for bit (rows in order, exact objective bits): this
    // is what makes an inline transcription of a registry case share
    // the registry job's compile-cache entry and results.
    for (const auto scale :
         {problems::Scale::F1, problems::Scale::G1, problems::Scale::K1}) {
        const auto p = problems::makeCase(scale, 0);
        const auto s = spec::parseProblemSpec(spec::problemToSpecJson(p));
        const auto q = s.lower();
        ASSERT_EQ(q.numVars(), p.numVars()) << problems::scaleName(scale);
        ASSERT_EQ(q.constraints().size(), p.constraints().size());
        for (std::size_t i = 0; i < p.constraints().size(); ++i)
            EXPECT_EQ(q.constraints()[i], p.constraints()[i])
                << problems::scaleName(scale) << " row " << i;
        EXPECT_EQ(q.objective().terms(), p.objective().terms());
        const core::ChocoQOptions opts;
        EXPECT_EQ(service::compileKey(q, opts), service::compileKey(p, opts))
            << problems::scaleName(scale)
            << ": transcribed spec must share the compile-cache entry";
    }
}

// ------------------------------------------------------------- registry

TEST(ProblemRegistry, PutResolvesEquivalentSubmissionsToFirstInstance)
{
    spec::ProblemRegistry registry;
    const auto a = parseSpec(kBaseSpec);
    const auto first = registry.put(a.hashHex, [&] { return a.lower(); });

    // A permuted re-submission resolves to the first-registered
    // instance — pointer-identical, so downstream structural keys
    // (compile cache) collapse too.
    const auto permuted = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
        R"("constraints":{"A":[[0,0,1,1],[1,1,0,0]],"b":[1,1]}})");
    ASSERT_EQ(permuted.hashHex, a.hashHex);
    const auto second =
        registry.put(permuted.hashHex, [&] { return permuted.lower(); });
    EXPECT_EQ(first.get(), second.get());

    EXPECT_EQ(registry.get(a.hashHex).get(), first.get());
    EXPECT_EQ(registry.get("0123456789abcdef"), nullptr);

    const auto stats = registry.stats();
    EXPECT_EQ(stats.inserted, 1u);
    EXPECT_EQ(stats.reused, 1u);
    EXPECT_EQ(stats.refHits, 1u);
    EXPECT_EQ(stats.refMisses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(ProblemRegistry, LruEvictsUnderByteBudgetAndRefsThenMiss)
{
    const auto a = parseSpec(kBaseSpec);
    const auto b = parseSpec(
        R"({"vars":3,"objective":[1,2,3],)"
        R"("constraints":{"A":[[1,1,1]],"b":[1]}})");
    const auto c = parseSpec(
        R"({"vars":3,"objective":[3,2,1],)"
        R"("constraints":{"A":[[1,1,0]],"b":[1]}})");
    const std::size_t bytes_a = spec::problemMemoryBytes(a.lower());
    const std::size_t bytes_b = spec::problemMemoryBytes(b.lower());
    const std::size_t bytes_c = spec::problemMemoryBytes(c.lower());

    spec::ProblemRegistry registry(
        spec::ProblemRegistryOptions{bytes_a + bytes_b + bytes_c - 1});
    registry.put(a.hashHex, [&] { return a.lower(); });
    registry.put(b.hashHex, [&] { return b.lower(); });
    EXPECT_NE(registry.get(a.hashHex), nullptr); // touch: b is coldest
    registry.put(c.hashHex, [&] { return c.lower(); });

    EXPECT_EQ(registry.stats().evictions, 1u);
    EXPECT_NE(registry.get(a.hashHex), nullptr);
    EXPECT_EQ(registry.get(b.hashHex), nullptr)
        << "coldest entry must be evicted; its problem_ref now misses";
    EXPECT_NE(registry.get(c.hashHex), nullptr);
}

TEST(ProblemRegistry, HashCollisionGuardVerifiesCanonicalIdentity)
{
    // canonicallyEqual is the registry's collision guard: the 64-bit
    // hash indexes, this proves. Equivalent re-encodings pass, any
    // genuinely different model fails.
    const auto base = parseSpec(kBaseSpec);
    const auto permuted = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
        R"("constraints":{"A":[[0,0,-1,-1],[1,1,0,0]],"b":[-1,1]}})");
    EXPECT_TRUE(spec::canonicallyEqual(base, base.lower()));
    EXPECT_TRUE(spec::canonicallyEqual(permuted, base.lower()));
    EXPECT_TRUE(spec::canonicallyEqual(base, permuted.lower()));

    const auto other = parseSpec(
        R"({"vars":4,"sense":"min","objective":[3,1,4,2],)"
        R"("constraints":{"A":[[1,1,0,0],[0,0,1,1]],"b":[1,1]}})");
    EXPECT_FALSE(spec::canonicallyEqual(other, base.lower()));
    EXPECT_FALSE(spec::canonicallyEqual(
        base, problems::makeCase(problems::Scale::F1, 0)));

    // put() reports reuse so the service knows when to run the guard.
    spec::ProblemRegistry registry;
    bool reused = true;
    registry.put(base.hashHex, [&] { return base.lower(); }, &reused);
    EXPECT_FALSE(reused);
    registry.put(permuted.hashHex, [&] { return permuted.lower(); },
                 &reused);
    EXPECT_TRUE(reused);
}

// ------------------------------------------------------------ job model

TEST(JobModel, InlineProblemAndRefAreMutuallyExclusiveWithScale)
{
    const std::string spec_json =
        std::string(R"({"id":"j","problem":)") + kBaseSpec + "}";
    const auto job = service::jobFromJsonLine(spec_json);
    ASSERT_NE(job.problem, nullptr);
    EXPECT_EQ(job.problem->vars, 4);

    EXPECT_THROW(service::jobFromJsonLine(
                     std::string(R"({"scale":"F1","problem":)") + kBaseSpec
                     + "}"),
                 FatalError);
    EXPECT_THROW(service::jobFromJsonLine(
                     std::string(R"({"problem_ref":"0123456789abcdef",)")
                     + R"("problem":)" + kBaseSpec + "}"),
                 FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(
            R"({"case":1,"problem_ref":"0123456789abcdef"})"),
        FatalError);
    // Malformed refs: wrong length, uppercase, non-hex.
    EXPECT_THROW(service::jobFromJsonLine(R"({"problem_ref":"abc"})"),
                 FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"problem_ref":"0123456789ABCDEF"})"),
        FatalError);
    EXPECT_THROW(
        service::jobFromJsonLine(R"({"problem_ref":"0123456789abcdeg"})"),
        FatalError);

    // The request serializer round-trips all three namings.
    const auto back = service::jobFromJsonLine(
        service::jobToJsonRequest(job).dump());
    ASSERT_NE(back.problem, nullptr);
    EXPECT_EQ(back.problem->hashHex, job.problem->hashHex);
    service::SolveJob ref;
    ref.problemRef = job.problem->hashHex;
    EXPECT_EQ(service::jobFromJsonLine(
                  service::jobToJsonRequest(ref).dump())
                  .problemRef,
              job.problem->hashHex);
}

// ---------------------------------------------------- service behavior

namespace
{

service::SolveJob
inlineJob(const std::string &id, const std::string &spec_text,
          const std::string &solver = "choco-q")
{
    service::SolveJob job;
    job.id = id;
    job.solver = solver;
    job.problem = std::make_shared<const spec::ProblemSpec>(
        parseSpec(spec_text));
    job.seed = 11;
    job.maxIterations = 10;
    return job;
}

} // namespace

TEST(SolveServiceSpec, InlineMatchesRegistryCaseBitwiseForEverySolver)
{
    // The acceptance criterion: an inline spec transcribing a registry
    // case and the registry job itself must be bit-identical — for all
    // four solver designs — and the choco-q pair must share one
    // compilation.
    const auto spec_json =
        spec::problemToSpecJson(problems::makeCase(problems::Scale::F1, 0))
            .dump();
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;
    for (const char *solver : {"choco-q", "penalty", "cyclic", "hea"}) {
        service::SolveJob reg;
        reg.id = std::string("reg-") + solver;
        reg.solver = solver;
        reg.scale = "F1";
        reg.seed = 11;
        reg.maxIterations = 10;
        const auto reg_result = svc.execute(reg, ctx);
        ASSERT_EQ(reg_result.status, "ok") << reg_result.error;

        const auto inline_result = svc.execute(
            inlineJob(std::string("inline-") + solver, spec_json, solver),
            ctx);
        ASSERT_EQ(inline_result.status, "ok")
            << solver << ": " << inline_result.error;
        EXPECT_EQ(inline_result.distHash, reg_result.distHash)
            << solver << ": inline spec must be bit-identical";
        EXPECT_EQ(0, std::memcmp(&inline_result.bestCost,
                                 &reg_result.bestCost, sizeof(double)))
            << solver;
        EXPECT_EQ(inline_result.evaluations, reg_result.evaluations)
            << solver;
        EXPECT_EQ(inline_result.problemRef,
                  service::jobFromJsonLine(
                      std::string(R"({"problem":)") + spec_json + "}")
                      .problem->hashHex)
            << "ok results must echo the canonical hash";
    }
    // choco-q ran the registry case first (miss), then the identical
    // inline structure (hit).
    EXPECT_GE(svc.cacheStats().hits, 1u);
}

TEST(SolveServiceSpec, PermutedResubmissionIsACompileCacheHit)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;

    const auto first = svc.execute(inlineJob("a", kBaseSpec), ctx);
    ASSERT_EQ(first.status, "ok") << first.error;
    EXPECT_FALSE(first.cacheHit);

    const auto permuted = svc.execute(
        inlineJob("b",
                  R"({"vars":4,"sense":"min","objective":[3,1,4,1],)"
                  R"("constraints":{"A":[[0,0,-1,-1],[1,1,0,0]],)"
                  R"("b":[-1,1]}})"),
        ctx);
    ASSERT_EQ(permuted.status, "ok") << permuted.error;
    EXPECT_TRUE(permuted.cacheHit)
        << "row-permuted, sign-flipped resubmission must share the "
           "compiled artifacts via the canonical hash";
    EXPECT_EQ(permuted.problemRef, first.problemRef);
    EXPECT_EQ(permuted.distHash, first.distHash);
    EXPECT_EQ(svc.registryStats().reused, 1u);
}

TEST(SolveServiceSpec, ProblemRefRunsSharedInstanceAndMissFailsCleanly)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::WorkerContext ctx;

    // Miss before any submission.
    service::SolveJob ref;
    ref.id = "miss";
    ref.problemRef = "0123456789abcdef";
    const auto miss = svc.execute(ref, ctx);
    EXPECT_EQ(miss.status, "error");
    EXPECT_NE(miss.error.find("unknown problem_ref"), std::string::npos);

    const auto first = svc.execute(inlineJob("a", kBaseSpec), ctx);
    ASSERT_EQ(first.status, "ok");
    ref.id = "hit";
    ref.problemRef = first.problemRef;
    ref.seed = 11;
    ref.maxIterations = 10;
    const auto hit = svc.execute(ref, ctx);
    ASSERT_EQ(hit.status, "ok") << hit.error;
    EXPECT_EQ(hit.distHash, first.distHash);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.problemRef, first.problemRef);
}

TEST(SolveServiceSpec, EvictedProblemRefMissesAndResubmissionRecovers)
{
    // A registry budget that holds exactly one problem: registering a
    // second evicts the first, whose problem_ref must then fail with
    // the resubmission hint, and a full resubmission must recover.
    const auto a = parseSpec(kBaseSpec);
    service::ServiceOptions options;
    options.registryMaxBytes = spec::problemMemoryBytes(a.lower());
    service::SolveService svc(options);
    service::WorkerContext ctx;

    const auto first = svc.execute(inlineJob("a", kBaseSpec), ctx);
    ASSERT_EQ(first.status, "ok");
    const auto other = svc.execute(
        inlineJob("b", R"({"vars":3,"objective":[1,2,3],)"
                       R"("constraints":{"A":[[1,1,1]],"b":[1]}})"),
        ctx);
    ASSERT_EQ(other.status, "ok");
    EXPECT_GE(svc.registryStats().evictions, 1u);

    service::SolveJob ref;
    ref.id = "stale";
    ref.problemRef = first.problemRef;
    const auto stale = svc.execute(ref, ctx);
    EXPECT_EQ(stale.status, "error");
    // A ref the server once held fails with the machine-checkable
    // ref_expired prefix; a ref it never saw stays "unknown".
    EXPECT_EQ(stale.error.rfind("ref_expired:", 0), 0u) << stale.error;
    EXPECT_NE(stale.error.find("evicted"), std::string::npos);
    service::SolveJob never;
    never.id = "never";
    never.problemRef = "0123456789abcdef";
    const auto unknown = svc.execute(never, ctx);
    EXPECT_EQ(unknown.status, "error");
    EXPECT_NE(unknown.error.find("unknown problem_ref"),
              std::string::npos);
    EXPECT_EQ(unknown.error.find("ref_expired"), std::string::npos);

    const auto again = svc.execute(inlineJob("a2", kBaseSpec), ctx);
    ASSERT_EQ(again.status, "ok");
    EXPECT_EQ(again.distHash, first.distHash);
    EXPECT_TRUE(again.refreshed)
        << "re-registering an evicted problem must report the refresh";
    const auto stats = svc.registryStats();
    EXPECT_GE(stats.refExpired, 1u);
    EXPECT_GE(stats.refreshes, 1u);
    EXPECT_GE(stats.generation, 1u);
}

TEST(ProblemRegistry, TombstonesDistinguishEvictedFromUnknown)
{
    const auto a = parseSpec(kBaseSpec);
    const auto b = parseSpec(
        R"({"vars":3,"objective":[1,2,3],)"
        R"("constraints":{"A":[[1,1,1]],"b":[1]}})");
    spec::ProblemRegistry registry(
        spec::ProblemRegistryOptions{spec::problemMemoryBytes(a.lower())});
    registry.put(a.hashHex, [&] { return a.lower(); });
    EXPECT_EQ(registry.generation(), 0u);
    registry.put(b.hashHex, [&] { return b.lower(); }); // evicts a

    spec::ProblemRegistry::RefOutcome outcome;
    EXPECT_EQ(registry.get(a.hashHex, &outcome), nullptr);
    EXPECT_EQ(outcome, spec::ProblemRegistry::RefOutcome::Expired);
    EXPECT_EQ(registry.get("0123456789abcdef", &outcome), nullptr);
    EXPECT_EQ(outcome, spec::ProblemRegistry::RefOutcome::Unknown);
    EXPECT_GE(registry.generation(), 1u)
        << "every eviction bumps the generation counter";

    // Re-registering the evicted problem clears its tombstone and
    // reports the refresh exactly once.
    bool reused = true, refreshed = false;
    registry.put(a.hashHex, [&] { return a.lower(); }, &reused,
                 &refreshed);
    EXPECT_FALSE(reused);
    EXPECT_TRUE(refreshed);
    EXPECT_NE(registry.get(a.hashHex, &outcome), nullptr);
    EXPECT_EQ(outcome, spec::ProblemRegistry::RefOutcome::Hit);
    // The one-entry budget pushed b out in turn: expired, not unknown.
    EXPECT_EQ(registry.get(b.hashHex, &outcome), nullptr);
    EXPECT_EQ(outcome, spec::ProblemRegistry::RefOutcome::Expired);
    const auto stats = registry.stats();
    EXPECT_GE(stats.refExpired, 2u);
    EXPECT_EQ(stats.refreshes, 1u);
}

// --------------------------------------------------------- batch stream

TEST(BatchStreamSpec, InlineJobsRunAndAdversarialSpecsFailPerLine)
{
    std::string input;
    input += std::string(R"({"id":"good","problem":)") + kBaseSpec
             + R"(,"seed":11,"iters":10})" + "\n";
    // Ragged matrix, non-finite coefficient, over-cap qubits: each
    // fails its own line with a field-path error, never the stream.
    input += R"({"id":"ragged","problem":{"vars":3,)"
             R"("constraints":{"A":[[1,1]],"b":[1]}}})" "\n";
    input += R"({"id":"inf","problem":{"vars":2,"objective":[1e999,0],)"
             R"("constraints":{"A":[[1,1]],"b":[1]}}})" "\n";
    input += R"({"id":"big","problem":{"vars":40,)"
             R"("constraints":{"A":[[1]],"b":[1]}}})" "\n";
    input += R"({"id":"ref-miss","problem_ref":"ffffffffffffffff"})" "\n";

    std::istringstream in(input);
    std::ostringstream out;
    service::SolveService svc{service::ServiceOptions{}};
    service::runJsonlStream(in, out, svc, {});

    auto &m = svc.metrics();
    // good + ref-miss reach the scheduler; ref-miss fails there, the
    // other three fail their own lines.
    EXPECT_EQ(m.counter("jobs.submitted").value(), 2u);
    EXPECT_EQ(m.counter("jobs.error").value(), 1u);
    EXPECT_EQ(m.counter("requests.line_errors").value(), 3u);

    std::map<std::string, service::Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        by_id.emplace(service::Json::parse(line).getString("id", ""),
                      service::Json::parse(line));
    ASSERT_EQ(by_id.size(), 5u);
    EXPECT_EQ(by_id.at("good").getString("status", ""), "ok");
    EXPECT_EQ(by_id.at("good").getString("problem", "").substr(0, 7),
              "inline:");
    EXPECT_NE(by_id.at("line-2").getString("error", "")
                  .find("problem.constraints.A[0] has 2 entries"),
              std::string::npos);
    EXPECT_NE(by_id.at("line-3").getString("error", "")
                  .find("must be finite"),
              std::string::npos);
    EXPECT_NE(by_id.at("line-4").getString("error", "").find("outside"),
              std::string::npos);
    EXPECT_NE(by_id.at("ref-miss").getString("error", "")
                  .find("unknown problem_ref"),
              std::string::npos);
}

TEST(BatchStreamSpec, SpecByteCapRejectsPerLineUnderTheLineLimit)
{
    // The spec cap is tighter than the line cap: the line parses, the
    // spec is rejected with the cap message.
    service::StreamLimits limits;
    limits.spec.maxSpecBytes = 64;
    std::istringstream in(std::string(R"({"id":"fat","problem":)")
                          + kBaseSpec + "}\n");
    std::ostringstream out;
    service::SolveService svc{service::ServiceOptions{}};
    service::runJsonlStream(in, out, svc, limits);
    EXPECT_EQ(svc.metrics().counter("requests.line_errors").value(), 1u);
    EXPECT_NE(out.str().find("more than the cap of 64"), std::string::npos);
}

// --------------------------------------------------------- socket mode

TEST(SocketServerSpec, InlineThenRefIsBitIdenticalAndSharesCompile)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::Server server(svc, service::ServerOptions{});
    server.start();

    service::JsonlClient client(server.port());
    client.sendLine(std::string(R"({"id":"a","problem":)") + kBaseSpec
                    + R"(,"seed":11,"iters":10})");
    std::string line;
    ASSERT_TRUE(client.readLine(line, 60000));
    const auto first = service::Json::parse(line);
    ASSERT_EQ(first.getString("status", ""), "ok")
        << first.getString("error", "");
    const std::string ref = first.getString("problem_ref", "");
    ASSERT_TRUE(spec::validProblemRef(ref)) << ref;

    // Follow-up by reference: no matrix resent, same bits, cache hit.
    client.sendLine(R"({"id":"b","problem_ref":")" + ref
                    + R"(","seed":11,"iters":10})");
    ASSERT_TRUE(client.readLine(line, 60000));
    const auto second = service::Json::parse(line);
    ASSERT_EQ(second.getString("status", ""), "ok")
        << second.getString("error", "");
    EXPECT_EQ(second.getString("dist_hash", ""),
              first.getString("dist_hash", ""));
    EXPECT_TRUE(second.getBool("cache_hit", false));
    server.drain();
}

TEST(SocketServerSpec, SpecLimitsRejectPerLineOnTheWire)
{
    service::SolveService svc{service::ServiceOptions{}};
    service::ServerOptions opts;
    opts.limits.spec.maxQubits = 3;
    service::Server server(svc, opts);
    server.start();

    service::JsonlClient client(server.port());
    client.sendLine(std::string(R"({"id":"big","problem":)") + kBaseSpec
                    + "}");
    std::string line;
    ASSERT_TRUE(client.readLine(line, 60000));
    const auto v = service::Json::parse(line);
    EXPECT_EQ(v.getString("status", ""), "error");
    EXPECT_NE(v.getString("error", "").find("outside [1, 3]"),
              std::string::npos);

    // The connection survives; a within-cap job still runs.
    client.sendLine(
        R"({"id":"ok","problem":{"vars":2,"objective":[1,2],)"
        R"("constraints":{"A":[[1,1]],"b":[1]}},"iters":5})");
    ASSERT_TRUE(client.readLine(line, 60000));
    EXPECT_EQ(service::Json::parse(line).getString("status", ""), "ok");
    server.drain();
}
