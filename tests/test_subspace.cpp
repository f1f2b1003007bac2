/**
 * @file
 * Feasible-subspace backend suite (core/feasible_subspace.hpp).
 *
 * The contracts pinned here (see docs/simulator.md, "Feasible-subspace
 * backend"):
 *  - the reachable set contains init, is closed under every commute
 *    term, and holds only states that satisfy the reduced constraints;
 *    after a dense oracle evolution every amplitude outside it is
 *    exactly zero — the paper's in-constraints guarantee as a check;
 *  - at one kernel thread the backend is BIT-IDENTICAL to the dense
 *    unfused oracle ("fusion":false) and to the dense fused plan, for
 *    whole solves and for fixed-theta layers plus expectation; at three
 *    threads the dense reductions split and agreement is within 1e-12;
 *  - a loosely constrained instance fails the selection rule and keeps
 *    the dense fused path, still bit-identical to the oracle;
 *  - the noisy path stays on the full register, so a device-noise job
 *    gives the same distribution with fusion on and off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/chocoq_solver.hpp"
#include "core/commute.hpp"
#include "core/eliminate.hpp"
#include "core/feasible_subspace.hpp"
#include "core/layer_fusion.hpp"
#include "problems/suite.hpp"
#include "service/job.hpp"
#include "service/service.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"
#include "spec/spec.hpp"

using namespace chocoq;
using linalg::Cplx;
using problems::Scale;
using sim::StateVector;

namespace
{

struct NamedScale
{
    const char *name;
    Scale scale;
};

/** Every registry scale but F4 (its dense oracle sweeps 2^28). */
const std::vector<NamedScale> &
scalesButF4()
{
    static const std::vector<NamedScale> kScales = {
        {"F1", Scale::F1}, {"F2", Scale::F2}, {"F3", Scale::F3},
        {"G1", Scale::G1}, {"G2", Scale::G2}, {"G3", Scale::G3},
        {"G4", Scale::G4}, {"K1", Scale::K1}, {"K2", Scale::K2},
        {"K3", Scale::K3}, {"K4", Scale::K4},
    };
    return kScales;
}

std::shared_ptr<const core::ChocoQArtifacts>
compileFused(const model::Problem &p)
{
    core::ChocoQOptions opts;
    opts.engine.fusion = true;
    return core::ChocoQSolver(opts).compile(p);
}

/** Pins the kernel thread count for one scope, restored on every exit
 * (a failed ASSERT included). */
struct SimThreads
{
    explicit SimThreads(int n) { sim::setSimThreads(n); }
    ~SimThreads() { sim::setSimThreads(0); }
    SimThreads(const SimThreads &) = delete;
    SimThreads &operator=(const SimThreads &) = delete;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

const std::vector<double> kGammas = {0.41, -1.3};
const std::vector<double> kBetas = {0.77, 2.05};

/** Fixed-theta results of one sub-instance on all three paths. */
struct ThreeWay
{
    StateVector oracle{1};
    StateVector fused{1};
    StateVector compact{1};
    double oracleE = 0.0;
    double fusedE = 0.0;
    double compactE = 0.0;
};

ThreeWay
evolveThreeWays(const core::CompiledSub &cs)
{
    ThreeWay out;
    const auto &fs = *cs.subspace;
    const auto &plan = *cs.fusedPlan;
    std::vector<Cplx> scratch;

    // Dense unfused oracle: the "fusion":false closure.
    out.oracle.prepare(cs.numQubits);
    out.oracle.reset(cs.init);
    // Dense fused plan.
    out.fused.prepare(cs.numQubits);
    out.fused.reset(cs.init);
    // Compact state of the reachable set.
    out.compact.resizeCompact(fs.states.size());
    out.compact.reset(fs.initIndex);
    for (std::size_t l = 0; l < kGammas.size(); ++l) {
        out.oracle.applyPhaseTable(*cs.costTable, kGammas[l]);
        core::applyCommuteLayer(out.oracle, *cs.terms, kBetas[l]);
        core::applyFusedLayer(out.fused, plan, *cs.costTable, kGammas[l],
                              kBetas[l], scratch);
        core::applySubspaceLayer(out.compact, fs, kGammas[l], kBetas[l],
                                 scratch);
    }
    out.oracleE = out.oracle.expectationTable(*cs.costTable);
    out.fusedE = plan.compressedPhase
                     ? out.fused.expectationTableCompressed(
                           plan.distinctValues, plan.valueIndex)
                     : out.fused.expectationTable(*cs.costTable);
    out.compactE = out.compact.expectationSubspace(fs.distinctValues,
                                                   fs.valueIndex);
    return out;
}

void
expectBitwiseSolve(const core::SolverOutcome &got,
                   const core::SolverOutcome &want, const char *name)
{
    EXPECT_TRUE(sameBits(got.bestCost, want.bestCost)) << name;
    EXPECT_EQ(got.evaluations, want.evaluations) << name;
    ASSERT_EQ(got.distribution.size(), want.distribution.size()) << name;
    auto g = got.distribution.begin();
    auto w = want.distribution.begin();
    for (; g != got.distribution.end(); ++g, ++w) {
        ASSERT_EQ(g->first, w->first) << name;
        EXPECT_TRUE(sameBits(g->second, w->second))
            << name << " state " << g->first;
    }
}

} // namespace

TEST(FeasibleSubspace, SetIsClosedFeasibleAndHoldsInitOnEveryScale)
{
    for (const auto &[name, scale] : scalesButF4()) {
        const auto p = problems::makeCase(scale, 0);
        const auto art = compileFused(p);
        const auto subs = core::buildSubInstances(p, art->plan);
        for (const auto &cs : art->subs) {
            ASSERT_TRUE(cs.subspace) << name << ": rule kept dense";
            const auto &fs = *cs.subspace;
            const auto &states = fs.states;
            ASSERT_TRUE(std::is_sorted(states.begin(), states.end()));
            ASSERT_EQ(std::adjacent_find(states.begin(), states.end()),
                      states.end())
                << name << ": duplicate state";
            ASSERT_LT(fs.initIndex, states.size());
            EXPECT_EQ(states[fs.initIndex], cs.init) << name;
            EXPECT_LE(states.size() * core::kDenseAmpsPerSubspaceState,
                      cs.costTable->size())
                << name;

            // Closed under every term: a state carrying a term's v or
            // v-bar pattern has its partner in the set.
            for (const Basis x : states)
                for (const auto &t : *cs.terms) {
                    const Basis on = x & t.supportMask;
                    if (on != t.vBits && on != (t.vBits ^ t.supportMask))
                        continue;
                    EXPECT_TRUE(std::binary_search(states.begin(),
                                                   states.end(),
                                                   x ^ t.supportMask))
                        << name << ": " << x << " leaves the set";
                }

            // Every member satisfies the reduced constraints.
            const auto sub = std::find_if(
                subs.begin(), subs.end(), [&](const auto &s) {
                    return s.assignment == cs.assignment;
                });
            ASSERT_NE(sub, subs.end());
            for (const Basis x : states)
                EXPECT_TRUE(sub->reduced.isFeasible(x))
                    << name << ": state " << x << " is infeasible";

            // Pairs: v-side first, partner across the support, one
            // offset range per term; objective over the set exact.
            ASSERT_EQ(fs.termOffsets.size(), cs.terms->size() + 1);
            for (std::size_t t = 0; t < cs.terms->size(); ++t) {
                const auto &term = (*cs.terms)[t];
                for (std::uint32_t q = fs.termOffsets[t];
                     q < fs.termOffsets[t + 1]; ++q) {
                    const Basis v = states[fs.pairs[2 * q]];
                    const Basis w = states[fs.pairs[2 * q + 1]];
                    EXPECT_EQ(v & term.supportMask, term.vBits);
                    EXPECT_EQ(v ^ term.supportMask, w);
                }
            }
            for (std::size_t i = 0; i < states.size(); ++i)
                EXPECT_TRUE(sameBits(
                    fs.distinctValues[fs.valueIndex[i]],
                    (*cs.costTable)[states[i]]));
        }
    }
}

TEST(FeasibleSubspace, FixedThetaLayersAreBitwiseAtOneThread)
{
    // Also the paper's guarantee as an executable check: after the
    // dense oracle's evolution every amplitude outside the reachable
    // set is exactly zero.
    const SimThreads one(1);
    for (const auto &[name, scale] : scalesButF4()) {
        const auto p = problems::makeCase(scale, 0);
        const auto art = compileFused(p);
        const auto &cs = art->subs.front();
        ASSERT_TRUE(cs.subspace) << name;
        const auto &states = cs.subspace->states;
        const ThreeWay r = evolveThreeWays(cs);

        const auto &oracle = r.oracle.amplitudes();
        const auto &fused = r.fused.amplitudes();
        const auto &compact = r.compact.amplitudes();
        ASSERT_EQ(compact.size(), states.size());
        std::size_t next = 0;
        for (std::size_t x = 0; x < oracle.size(); ++x) {
            if (next < states.size() && states[next] == x) {
                EXPECT_EQ(std::memcmp(&compact[next], &oracle[x],
                                      sizeof(Cplx)),
                          0)
                    << name << " state " << x;
                EXPECT_EQ(std::memcmp(&compact[next], &fused[x],
                                      sizeof(Cplx)),
                          0)
                    << name << " state " << x;
                ++next;
                continue;
            }
            ASSERT_TRUE(oracle[x].real() == 0.0 && oracle[x].imag() == 0.0)
                << name << ": amplitude leaked to state " << x;
        }
        EXPECT_TRUE(sameBits(r.compactE, r.oracleE)) << name;
        EXPECT_TRUE(sameBits(r.compactE, r.fusedE)) << name;
    }
}

TEST(FeasibleSubspace, FixedThetaLayersAgreeWithinToleranceAtThreeThreads)
{
    const SimThreads three(3);
    for (const auto &[name, scale] : scalesButF4()) {
        const auto p = problems::makeCase(scale, 0);
        const auto art = compileFused(p);
        const auto &cs = art->subs.front();
        ASSERT_TRUE(cs.subspace) << name;
        const auto &states = cs.subspace->states;
        const ThreeWay r = evolveThreeWays(cs);
        for (std::size_t i = 0; i < states.size(); ++i) {
            const Cplx want = r.oracle.amplitudes()[states[i]];
            const Cplx got = r.compact.amplitudes()[i];
            EXPECT_NEAR(got.real(), want.real(), 1e-12) << name;
            EXPECT_NEAR(got.imag(), want.imag(), 1e-12) << name;
        }
        EXPECT_NEAR(r.compactE, r.oracleE, 1e-12) << name;
        EXPECT_NEAR(r.compactE, r.fusedE, 1e-12) << name;
    }
}

TEST(FeasibleSubspace, ShortSolvesAreBitwiseEqualToTheUnfusedOracle)
{
    const SimThreads one(1);
    const std::vector<NamedScale> scales = {
        {"F1", Scale::F1}, {"K1", Scale::K1}, {"K2", Scale::K2},
        {"G1", Scale::G1}};
    for (const auto &[name, scale] : scales) {
        const auto p = problems::makeCase(scale, 0);
        core::ChocoQOptions base;
        base.engine.opt.maxIterations = 12;
        base.engine.seed = 23;
        core::ChocoQOptions on = base;
        on.engine.fusion = true;
        core::ChocoQOptions off = base;
        off.engine.fusion = false;

        const core::ChocoQSolver fused(on);
        const auto art = fused.compile(p);
        for (const auto &cs : art->subs)
            ASSERT_TRUE(cs.subspace) << name;
        const auto got = fused.solveCompiled(p, *art);
        const auto want = core::ChocoQSolver(off).solve(p);
        expectBitwiseSolve(got, want, name);

        // Shot sampling maps compact indices through the same CDF.
        on.engine.shots = 200;
        off.engine.shots = 200;
        expectBitwiseSolve(core::ChocoQSolver(on).solve(p),
                           core::ChocoQSolver(off).solve(p), name);
    }
}

TEST(FeasibleSubspace, LooselyConstrainedSpecTakesTheDenseFallback)
{
    // One constraint over all twelve variables: C(11, 6) = 462 reachable
    // states per sub-instance against 2^11 amplitudes fails the rule.
    const auto spec = spec::parseProblemSpec(service::Json::parse(
        R"({"vars":12,"sense":"min",)"
        R"("objective":[3,1,4,1,5,9,2,6,5,3,5,8],)"
        R"("constraints":{"A":[[1,1,1,1,1,1,1,1,1,1,1,1]],"b":[6]}})"));
    const auto p = spec.lower();

    core::ChocoQOptions on;
    on.engine.opt.maxIterations = 8;
    core::ChocoQOptions off = on;
    off.engine.fusion = false;
    const core::ChocoQSolver fused(on);
    const auto art = fused.compile(p);
    ASSERT_FALSE(art->subs.empty());
    for (const auto &cs : art->subs) {
        EXPECT_FALSE(cs.subspace);
        EXPECT_TRUE(cs.fusedPlan);
        EXPECT_FALSE(core::buildFeasibleSubspace(
            cs.init, *cs.terms, *cs.costTable,
            cs.costTable->size() / core::kDenseAmpsPerSubspaceState));
    }
    const SimThreads one(1);
    expectBitwiseSolve(fused.solveCompiled(p, *art),
                       core::ChocoQSolver(off).solve(p), "loose");
}

TEST(FeasibleSubspace, NoisyDeviceJobIsIdenticalWithFusionOnAndOff)
{
    // Gate-noise sampling runs the lowered circuit over the full
    // register and lifts reduced basis states: the compact map must not
    // reach it.
    std::vector<service::SolveJob> jobs = {
        service::jobFromJsonLine(
            R"({"id":"f1","scale":"F1","seed":5,"iters":6,)"
            R"("shots":128,"device":"fez"})"),
        service::jobFromJsonLine(
            R"({"id":"k1","scale":"K1","case":1,"seed":6,"iters":6,)"
            R"("shots":128,"device":"fez"})"),
    };
    service::ServiceOptions options;
    options.workers = 1;
    const auto fused = service::SolveService(options).solveAll(jobs);
    for (auto &job : jobs)
        job.fusion = false;
    const auto plain = service::SolveService(options).solveAll(jobs);
    ASSERT_EQ(fused.size(), plain.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
        ASSERT_EQ(fused[i].status, "ok") << fused[i].error;
        ASSERT_EQ(plain[i].status, "ok") << plain[i].error;
        EXPECT_EQ(fused[i].distHash, plain[i].distHash) << fused[i].id;
        EXPECT_EQ(fused[i].topState, plain[i].topState) << fused[i].id;
        EXPECT_TRUE(sameBits(fused[i].bestCost, plain[i].bestCost))
            << fused[i].id;
    }
}
