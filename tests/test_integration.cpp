/**
 * @file
 * End-to-end integration tests: Choco-Q and the baselines on real suite
 * instances, checked against the paper's headline claims — 100%
 * in-constraints rate for Choco-Q, high success on small scales, gate-level
 * and functional paths agreeing, and noise degrading (not breaking) runs.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/chocoq_solver.hpp"
#include "core/circuits.hpp"
#include "device/device.hpp"
#include "metrics/stats.hpp"
#include "model/exact.hpp"
#include "problems/kpp.hpp"
#include "problems/suite.hpp"
#include "sim/executor.hpp"
#include "solvers/cyclic.hpp"
#include "solvers/hea.hpp"
#include "solvers/penalty.hpp"

using namespace chocoq;

namespace
{

core::ChocoQOptions
quickChoco(int layers = 1, int eliminate = 1)
{
    core::ChocoQOptions opts;
    opts.layers = layers;
    opts.eliminate = eliminate;
    opts.engine.opt.maxIterations = 60;
    return opts;
}

} // namespace

TEST(ChocoQEndToEnd, F1AlwaysInConstraints)
{
    for (unsigned idx = 0; idx < 3; ++idx) {
        const auto p = problems::makeCase(problems::Scale::F1, idx);
        const auto exact = model::solveExact(p);
        ASSERT_TRUE(exact.feasible);
        const core::ChocoQSolver solver(quickChoco());
        const auto run = solver.solve(p);
        const auto stats = metrics::computeStats(p, run.distribution, exact);
        EXPECT_NEAR(stats.inConstraintsRate, 1.0, 1e-9) << p.name();
        EXPECT_GT(stats.successRate, 0.3) << p.name();
    }
}

TEST(ChocoQEndToEnd, K1HighSuccess)
{
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    const auto exact = model::solveExact(p);
    const core::ChocoQSolver solver(quickChoco());
    const auto run = solver.solve(p);
    const auto stats = metrics::computeStats(p, run.distribution, exact);
    EXPECT_NEAR(stats.inConstraintsRate, 1.0, 1e-9);
    EXPECT_GT(stats.successRate, 0.2);
    EXPECT_LT(stats.arg, 1.0);
}

TEST(ChocoQEndToEnd, GateLevelLoopMatchesFastPath)
{
    // The functional fast path and the Lemma-2 gate circuit must
    // produce the same distribution for the same parameters.
    const auto p = problems::makeCase(problems::Scale::K1, 1);
    core::ChocoQOptions fast = quickChoco(1, 0);
    // Pin the parameters: one iteration with a 1e-9 step keeps the
    // solve's optimum within ~1e-9 of theta0.
    fast.engine.opt.maxIterations = 1;
    fast.engine.opt.initialStep = 1e-9;
    fast.engine.theta0 = {0.37, 0.81};
    const core::ChocoQSolver solver(fast);
    const auto art = solver.compile(p);
    const auto run_fast = solver.solveCompiled(p, *art);

    // The same ansatz at theta0, executed one gate at a time.
    ASSERT_EQ(art->subs.size(), 1u);
    const core::CompiledSub &sub = art->subs.front();
    sim::StateVector state(sub.numQubits);
    sim::execute(state, core::chocoAnsatz(sub.numQubits, sub.init,
                                          *sub.objective, *sub.terms,
                                          fast.engine.theta0));
    std::map<Basis, double> run_gate;
    for (const auto &[x, prob] : state.distribution())
        run_gate[core::liftToFull(x, art->plan, sub.assignment)] += prob;

    for (const auto &[x, prob] : run_fast.distribution) {
        const auto it = run_gate.find(x);
        const double other = it == run_gate.end() ? 0.0 : it->second;
        EXPECT_NEAR(prob, other, 1e-6);
    }
}

TEST(ChocoQEndToEnd, EliminationReducesDepth)
{
    const auto p = problems::makeCase(problems::Scale::F2, 0);
    core::ChocoQOptions none = quickChoco(1, 0);
    none.engine.opt.maxIterations = 3;
    core::ChocoQOptions one = quickChoco(1, 1);
    one.engine.opt.maxIterations = 3;
    const auto run0 = core::ChocoQSolver(none).solve(p);
    const auto run1 = core::ChocoQSolver(one).solve(p);
    EXPECT_LT(run1.basisDepth, run0.basisDepth);
    EXPECT_EQ(run1.circuitsPerIteration, 2);
}

TEST(ChocoQEndToEnd, CompileReportsBasisAndPlan)
{
    const auto p = problems::makeCase(problems::Scale::G1, 0);
    EXPECT_TRUE(core::computeMoveBasis(p).complete);
    const core::ChocoQSolver solver(quickChoco());
    const auto art = solver.compile(p);
    EXPECT_EQ(art->plan.eliminated.size(), 1u);
    ASSERT_FALSE(art->subs.empty());
    EXPECT_FALSE(art->subs.front().terms->empty());
    EXPECT_GT(art->seconds, 0.0);
}

TEST(Baselines, PenaltyRunsAndReportsMetrics)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    const auto exact = model::solveExact(p);
    solvers::PenaltyOptions opts;
    opts.layers = 3;
    opts.engine.opt.maxIterations = 30;
    const solvers::PenaltyQaoaSolver solver(opts);
    const auto run = solver.solve(p);
    const auto stats = metrics::computeStats(p, run.distribution, exact);
    // Soft constraints: leakage expected, 100% in-constraints is not.
    EXPECT_LT(stats.inConstraintsRate, 1.0);
    EXPECT_GT(stats.inConstraintsRate, 0.0);
    EXPECT_GT(run.basisDepth, 0);
}

TEST(Baselines, CyclicPreservesDisjointSummationConstraints)
{
    // KPP one-hot rows without balance: disjoint chains conserve each
    // row's excitation number, so outputs stay feasible.
    problems::KppConfig cfg;
    cfg.vertices = 4;
    cfg.blocks = 2;
    cfg.edgeCount = 3;
    cfg.balanced = false;
    Rng rng(5);
    const auto p = problems::makeKpp(cfg, rng);
    solvers::CyclicOptions opts;
    opts.layers = 3;
    opts.engine.opt.maxIterations = 25;
    const solvers::CyclicQaoaSolver solver(opts);
    const auto run = solver.solve(p);
    double feasible = 0.0;
    for (const auto &[x, prob] : run.distribution)
        if (p.isFeasible(x))
            feasible += prob;
    EXPECT_NEAR(feasible, 1.0, 1e-9);
}

TEST(Baselines, CyclicLeaksOnMixedSignConstraints)
{
    // FLP has x - y + s = 0 rows the cyclic Hamiltonian cannot encode.
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    solvers::CyclicOptions opts;
    opts.layers = 3;
    opts.engine.opt.maxIterations = 25;
    const solvers::CyclicQaoaSolver solver(opts);
    const auto run = solver.solve(p);
    double feasible = 0.0;
    for (const auto &[x, prob] : run.distribution)
        if (p.isFeasible(x))
            feasible += prob;
    EXPECT_LT(feasible, 1.0 - 1e-6);
}

TEST(Baselines, HeaRunsOnSmallCase)
{
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    const auto exact = model::solveExact(p);
    solvers::HeaOptions opts;
    opts.layers = 1;
    opts.engine.opt.maxIterations = 25;
    const solvers::HeaSolver solver(opts);
    const auto run = solver.solve(p);
    const auto stats = metrics::computeStats(p, run.distribution, exact);
    EXPECT_GE(stats.inConstraintsRate, 0.0);
    EXPECT_GT(run.basisDepth, 0);
    EXPECT_GT(run.iterations, 0);
}

TEST(Noise, DeviceNoiseDegradesButKeepsMass)
{
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    const auto exact = model::solveExact(p);

    core::ChocoQOptions clean = quickChoco();
    clean.engine.opt.maxIterations = 25;
    const auto run_clean = core::ChocoQSolver(clean).solve(p);
    const auto s_clean = metrics::computeStats(p, run_clean.distribution,
                                               exact);

    core::ChocoQOptions noisy = clean;
    noisy.engine.noise = device::noiseOf(device::osaka());
    noisy.engine.shots = 512;
    noisy.engine.trajectories = 64;
    const auto run_noisy = core::ChocoQSolver(noisy).solve(p);
    const auto s_noisy = metrics::computeStats(p, run_noisy.distribution,
                                               exact);

    double total = 0.0;
    for (const auto &[x, prob] : run_noisy.distribution)
        total += prob;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_LT(s_noisy.inConstraintsRate, s_clean.inConstraintsRate + 1e-9);
}

TEST(Latency, FezFasterThanOsakaAtSameWork)
{
    const auto dev_fez = device::fez();
    const auto dev_osaka = device::osaka();
    const auto lat_fez =
        device::estimateLatency(dev_fez, 300, 30, 1, 1000, 0.4, 0.05);
    const auto lat_osaka =
        device::estimateLatency(dev_osaka, 300, 30, 1, 1000, 0.4, 0.05);
    EXPECT_LT(lat_fez.quantumSeconds, lat_osaka.quantumSeconds);
    EXPECT_GT(lat_fez.total(), lat_fez.compileSeconds);
}

TEST(Metrics, StatsOnHandBuiltDistribution)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    const auto exact = model::solveExact(p);
    std::map<Basis, double> dist;
    dist[exact.optima.front()] = 0.5; // optimal, feasible
    // Find one feasible non-optimal and one infeasible state.
    Basis other = 0;
    for (Basis x = 0; x < (Basis{1} << p.numVars()); ++x) {
        if (p.isFeasible(x)
            && p.minimizedObjectiveOf(x) > exact.optimum + 1e-9) {
            other = x;
            break;
        }
    }
    dist[other] = 0.3;
    Basis bad = 0;
    while (p.isFeasible(bad))
        ++bad;
    dist[bad] = 0.2;
    const auto stats = metrics::computeStats(p, dist, exact);
    EXPECT_NEAR(stats.successRate, 0.5, 1e-12);
    EXPECT_NEAR(stats.inConstraintsRate, 0.8, 1e-12);
    EXPECT_GT(stats.arg, 0.0);
}
