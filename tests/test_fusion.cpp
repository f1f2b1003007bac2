/**
 * @file
 * Layer-fusion equivalence suite.
 *
 * The functional-path fusion (compressed objective phase, grouped
 * commute sweeps, the solver's fused evolve closures) must be
 * BIT-IDENTICAL to the unfused kernels — the service's determinism
 * guarantees ride on it (see docs/simulator.md, "Gate fusion").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/chocoq_solver.hpp"
#include "core/commute.hpp"
#include "core/layer_fusion.hpp"
#include "problems/suite.hpp"
#include "service/compile_cache.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"

using namespace chocoq;
using linalg::Cplx;
using linalg::CVec;
using sim::StateVector;

namespace
{

CVec
randomState(Rng &rng, int n)
{
    CVec psi(std::size_t{1} << n);
    double norm2 = 0;
    for (auto &a : psi) {
        a = Cplx{rng.normal(), rng.normal()};
        norm2 += std::norm(a);
    }
    for (auto &a : psi)
        a /= std::sqrt(norm2);
    return psi;
}

void
expectBitwiseState(const CVec &got, const CVec &want)
{
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(Cplx)),
              0);
}

} // namespace

// ---- functional-path fusion: bit-identical contracts ----

TEST(FusedLayer, CompressedPhaseIsBitIdentical)
{
    Rng rng(11);
    for (int n : {4, 8, 10}) {
        const std::size_t dim = std::size_t{1} << n;
        // Few distinct values (the objective-table shape).
        std::vector<double> table(dim);
        for (auto &v : table)
            v = static_cast<double>(rng.intIn(-5, 6));
        const auto plan = core::buildFusedLayerPlan(table, {});
        ASSERT_TRUE(plan.compressedPhase);
        EXPECT_LE(plan.distinctValues.size(), 12u);

        for (const double gamma : {0.0, 0.37, -2.25, 14.0}) {
            const CVec psi = randomState(rng, n);
            StateVector plain(n), fused(n);
            plain.amplitudes() = psi;
            fused.amplitudes() = psi;
            plain.applyPhaseTable(table, gamma);
            std::vector<Cplx> scratch;
            core::applyFusedObjectivePhase(fused, plan, table, gamma,
                                           scratch);
            expectBitwiseState(fused.amplitudes(), plain.amplitudes());
        }
    }
}

TEST(FusedLayer, CompressionCoversAllDistinctTables)
{
    // Every entry distinct: still compressible up to the uint16 range.
    Rng rng(12);
    const int n = 8;
    std::vector<double> table(std::size_t{1} << n);
    for (auto &v : table)
        v = rng.normal();
    const auto plan = core::buildFusedLayerPlan(table, {});
    ASSERT_TRUE(plan.compressedPhase);
    EXPECT_EQ(plan.distinctValues.size(), table.size());

    StateVector plain(n), fused(n);
    const CVec psi = randomState(rng, n);
    plain.amplitudes() = psi;
    fused.amplitudes() = psi;
    plain.applyPhaseTable(table, 0.9);
    std::vector<Cplx> scratch;
    core::applyFusedObjectivePhase(fused, plan, table, 0.9, scratch);
    expectBitwiseState(fused.amplitudes(), plain.amplitudes());
}

TEST(FusedLayer, CommuteGroupsAreBitIdentical)
{
    // Three terms sharing the support {1, 3, 5} with pairwise-disjoint
    // pair sets, then a term on a different support.
    const auto term = [](std::vector<int> u) {
        return core::makeCommuteTerm(u);
    };
    const std::vector<core::CommuteTerm> terms = {
        term({0, 1, 0, 1, 0, 1}),   // v = {1,3,5}
        term({0, 1, 0, -1, 0, 1}),  // v = {1,5}
        term({0, 1, 0, 1, 0, -1}),  // v = {1,3}
        term({1, 0, 1, 0, 0, 0}),   // different support
    };
    const auto plan = core::buildFusedLayerPlan({}, terms);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_EQ(plan.groups[0].vBits.size(), 3u);
    EXPECT_EQ(plan.termCount, 4u);

    Rng rng(13);
    const int n = 6;
    for (const double beta : {0.3, 1.9, -0.8}) {
        const CVec psi = randomState(rng, n);
        StateVector plain(n), fused(n);
        plain.amplitudes() = psi;
        fused.amplitudes() = psi;
        core::applyCommuteLayer(plain, terms, beta);
        core::applyFusedCommuteLayer(fused, plan, beta);
        expectBitwiseState(fused.amplitudes(), plain.amplitudes());
    }
}

TEST(FusedLayer, GroupBuilderRejectsOverlappingPairSets)
{
    // u and -u address the same |v>/|v-bar> pair: grouping them would
    // interleave writes to shared amplitudes, so they must split.
    const std::vector<core::CommuteTerm> terms = {
        core::makeCommuteTerm({1, -1}),
        core::makeCommuteTerm({-1, 1}),
    };
    const auto plan = core::buildFusedLayerPlan({}, terms);
    ASSERT_EQ(plan.groups.size(), 2u);

    Rng rng(14);
    const CVec psi = randomState(rng, 2);
    StateVector plain(2), fused(2);
    plain.amplitudes() = psi;
    fused.amplitudes() = psi;
    core::applyCommuteLayer(plain, terms, 0.7);
    core::applyFusedCommuteLayer(fused, plan, 0.7);
    expectBitwiseState(fused.amplitudes(), plain.amplitudes());
}

TEST(FusedLayer, RandomizedLayersAcrossSupportsAreBitIdentical)
{
    Rng rng(15);
    for (int n = 1; n <= 8; ++n) {
        for (int rep = 0; rep < 6; ++rep) {
            // Random move set; duplicates of a support mask exercise
            // grouping, distinct masks exercise the passthrough.
            std::vector<core::CommuteTerm> terms;
            const int count = rng.intIn(1, 6);
            for (int t = 0; t < count; ++t) {
                std::vector<int> u(n, 0);
                int nonzero = 0;
                for (int q = 0; q < n; ++q)
                    if (rng.chance(0.5)) {
                        u[q] = rng.chance(0.5) ? 1 : -1;
                        ++nonzero;
                    }
                if (nonzero == 0)
                    u[rng.intIn(0, n - 1)] = 1;
                terms.push_back(core::makeCommuteTerm(u));
                // Half the time, append a same-support variant.
                if (rng.chance(0.5)) {
                    for (int q = 0; q < n; ++q)
                        if (u[q] != 0 && rng.chance(0.5))
                            u[q] = -u[q];
                    terms.push_back(core::makeCommuteTerm(u));
                }
            }
            std::vector<double> table(std::size_t{1} << n);
            for (auto &v : table)
                v = static_cast<double>(rng.intIn(-4, 5));
            const auto plan = core::buildFusedLayerPlan(table, terms);

            const CVec psi = randomState(rng, n);
            StateVector plain(n), fused(n);
            plain.amplitudes() = psi;
            fused.amplitudes() = psi;
            const double gamma = rng.uniform() * 4 - 2;
            const double beta = rng.uniform() * 4 - 2;
            plain.applyPhaseTable(table, gamma);
            core::applyCommuteLayer(plain, terms, beta);
            std::vector<Cplx> scratch;
            core::applyFusedObjectivePhase(fused, plan, table, gamma,
                                           scratch);
            core::applyFusedCommuteLayer(fused, plan, beta);
            expectBitwiseState(fused.amplitudes(), plain.amplitudes());
        }
    }
}

TEST(FusedLayer, GroupKernelMatchesOnOpenMpPartitioning)
{
    // Grouped sweep vs sequential rotations at several thread counts:
    // the deterministic chunking must keep the bits identical.
    const std::vector<core::CommuteTerm> terms = {
        core::makeCommuteTerm({0, 1, 0, 1, 0, 0, 0, 0, 1, 0}),
        core::makeCommuteTerm({0, 1, 0, -1, 0, 0, 0, 0, 1, 0}),
        core::makeCommuteTerm({0, -1, 0, 1, 0, 0, 0, 0, 1, 0}),
    };
    const auto plan = core::buildFusedLayerPlan({}, terms);
    ASSERT_EQ(plan.groups.size(), 1u);

    Rng rng(16);
    const int n = 10;
    const CVec psi = randomState(rng, n);
    CVec want;
    for (const int threads : {1, 2, 5}) {
        sim::setSimThreads(threads);
        StateVector plain(n), fused(n);
        plain.amplitudes() = psi;
        fused.amplitudes() = psi;
        core::applyCommuteLayer(plain, terms, 1.1);
        core::applyFusedCommuteLayer(fused, plan, 1.1);
        sim::setSimThreads(0);
        expectBitwiseState(fused.amplitudes(), plain.amplitudes());
        if (want.empty())
            want = plain.amplitudes();
    }
}

// ---- solver-level equivalence ----

TEST(ChocoQFusion, FusedSolveIsBitIdenticalOnFunctionalPath)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions base;
    base.engine.opt.maxIterations = 12;
    base.engine.seed = 99;

    core::ChocoQOptions fused = base;
    fused.engine.fusion = true;
    core::ChocoQOptions plain = base;
    plain.engine.fusion = false;

    const auto fused_out = core::ChocoQSolver(fused).solve(p);
    const auto plain_out = core::ChocoQSolver(plain).solve(p);

    ASSERT_EQ(std::memcmp(&fused_out.bestCost, &plain_out.bestCost,
                          sizeof(double)),
              0);
    ASSERT_EQ(fused_out.distribution.size(), plain_out.distribution.size());
    auto fit = fused_out.distribution.begin();
    auto pit = plain_out.distribution.begin();
    for (; fit != fused_out.distribution.end(); ++fit, ++pit) {
        ASSERT_EQ(fit->first, pit->first);
        ASSERT_EQ(std::memcmp(&fit->second, &pit->second, sizeof(double)),
                  0);
    }
}

TEST(ChocoQFusion, CompileKeySeesFusionFlag)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions on;
    on.engine.fusion = true;
    core::ChocoQOptions off = on;
    off.engine.fusion = false;
    EXPECT_NE(service::compileKey(p, on), service::compileKey(p, off));
}

TEST(ChocoQFusion, ArtifactsCarryThePlanOnlyWhenFusionIsOn)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions on;
    on.engine.fusion = true;
    core::ChocoQOptions off = on;
    off.engine.fusion = false;

    const auto with_plan = core::ChocoQSolver(on).compile(p);
    const auto without = core::ChocoQSolver(off).compile(p);
    ASSERT_FALSE(with_plan->subs.empty());
    for (const auto &sub : with_plan->subs) {
        ASSERT_TRUE(sub.fusedPlan);
        EXPECT_EQ(sub.fusedPlan->termCount, sub.terms->size());
        if (sub.fusedPlan->compressedPhase)
            EXPECT_EQ(sub.fusedPlan->valueIndex.size(),
                      sub.costTable->size());
    }
    for (const auto &sub : without->subs)
        EXPECT_FALSE(sub.fusedPlan);
    EXPECT_GT(with_plan->memoryBytes(), without->memoryBytes());
}
