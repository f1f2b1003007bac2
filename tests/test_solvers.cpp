/**
 * @file
 * Solver-level unit tests: the shared QAOA engine, the penalty baseline's
 * freezing/warm-start machinery, cyclic mixer construction, each
 * baseline's fast path against its own circuit and its cancellation
 * polls, the Trotter comparator, and the device/latency models.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "circuit/transpile.hpp"
#include "common/error.hpp"
#include "core/chocoq_solver.hpp"
#include "core/circuits.hpp"
#include "core/commute.hpp"
#include "core/qaoa.hpp"
#include "device/device.hpp"
#include "model/exact.hpp"
#include "obs/roofline.hpp"
#include "problems/suite.hpp"
#include "sim/executor.hpp"
#include "solvers/cyclic.hpp"
#include "solvers/hea.hpp"
#include "solvers/penalty.hpp"
#include "sim/unitary.hpp"
#include "solvers/trotter.hpp"

using namespace chocoq;

namespace
{

/** A sub-run's cost table, one value per basis state. */
std::shared_ptr<const std::vector<double>>
costOf(std::vector<double> values)
{
    return std::make_shared<const std::vector<double>>(std::move(values));
}

/** Pin a solve to @p theta0: one iteration with a 1e-9 step keeps the
 * solve's optimum within ~1e-9 of it. */
void
pinParameters(core::EngineOptions &engine, std::vector<double> theta0)
{
    engine.opt.maxIterations = 1;
    engine.opt.initialStep = 1e-9;
    engine.theta0 = std::move(theta0);
}

/** Expect a solve's @p dist to equal @p c's distribution, run one gate
 * at a time from |0>, within 1e-6 on every state either one holds. */
void
expectDistributionOfCircuit(const std::map<Basis, double> &dist,
                            const circuit::Circuit &c,
                            const std::string &label)
{
    sim::StateVector state(c.numQubits());
    sim::execute(state, c);
    const auto gate = state.distribution();
    const auto probOf = [](const std::map<Basis, double> &d, Basis x) {
        const auto it = d.find(x);
        return it == d.end() ? 0.0 : it->second;
    };
    for (const auto &[x, prob] : dist)
        EXPECT_NEAR(prob, probOf(gate, x), 1e-6) << label << " " << x;
    for (const auto &[x, prob] : gate)
        EXPECT_NEAR(prob, probOf(dist, x), 1e-6) << label << " " << x;
}

struct FirstKernelRan
{
};

/** Solve @p p with a checkpoint that counts its polls until the job's
 * first kernel has run and throws at the next one; returns the count. */
template <class Solver, class Options>
int
pollsBeforeFirstKernel(Options opts, const model::Problem &p)
{
    obs::KernelCounterSink sink;
    opts.engine.kernelCounters = &sink;
    int polls = 0;
    opts.engine.checkpoint = [&] {
        if (!sink.empty())
            throw FirstKernelRan{};
        ++polls;
    };
    EXPECT_THROW(Solver(opts).solve(p), FirstKernelRan);
    return polls;
}

} // namespace

TEST(QaoaEngine, SingleSubrunExactDistribution)
{
    // One-qubit "ansatz": RX rotation; cost favors |1>.
    core::SubRun run;
    run.numQubits = 1;
    run.costTable = costOf({1.0, -1.0});
    run.build = [](const std::vector<double> &theta) {
        circuit::Circuit c(1);
        c.rx(0, theta[0]);
        return c;
    };
    run.lift = [](Basis x) { return x; };

    core::EngineOptions opts;
    opts.theta0 = {0.5};
    opts.opt.maxIterations = 80;
    const auto res = core::runQaoa({run}, opts);
    // Optimal RX angle is pi: all mass on |1>.
    EXPECT_GT(res.distribution.at(1), 0.95);
    EXPECT_LE(res.bestCost, -0.9);
}

TEST(QaoaEngine, EvolveFastPathMatchesBuild)
{
    core::SubRun a;
    a.numQubits = 2;
    a.costTable = costOf({0.0, 1.0, 2.0, 3.0});
    a.build = [](const std::vector<double> &theta) {
        circuit::Circuit c(2);
        c.h(0);
        c.mcp({0, 1}, theta[0]);
        c.rx(1, theta[0]);
        return c;
    };
    a.lift = [](Basis x) { return x; };
    core::SubRun b = a;
    b.evolve = [](sim::StateVector &state,
                  const std::vector<double> &theta) {
        state.reset(0);
        constexpr double kInvSqrt2 = 0.70710678118654752440;
        state.apply1q(0, kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2);
        state.applyPhaseMask(0b11, theta[0]);
        const sim::Cplx c{std::cos(theta[0] / 2), 0.0};
        const sim::Cplx ms{0.0, -std::sin(theta[0] / 2)};
        state.apply1q(1, c, ms, ms, c);
    };

    core::EngineOptions opts;
    opts.theta0 = {0.9};
    opts.opt.maxIterations = 10;
    const auto res_a = core::runQaoa({a}, opts);
    const auto res_b = core::runQaoa({b}, opts);
    EXPECT_NEAR(res_a.bestCost, res_b.bestCost, 1e-9);
}

TEST(QaoaEngine, MultipleSubrunsMergeWithEqualWeights)
{
    // Two constant circuits pinned to |0> and |1>: each sub-run weighs
    // 1/2 of the merged distribution.
    auto make = [](Basis init) {
        core::SubRun run;
        run.numQubits = 1;
        run.costTable = costOf({0.0, 0.0});
        run.build = [init](const std::vector<double> &) {
            circuit::Circuit c(1);
            core::appendBasisPreparation(c, init);
            return c;
        };
        run.lift = [](Basis x) { return x; };
        return run;
    };
    core::EngineOptions opts;
    opts.theta0 = {0.0};
    opts.opt.maxIterations = 2;
    const auto res = core::runQaoa({make(0), make(1)}, opts);
    EXPECT_EQ(res.distribution.at(0), 0.5);
    EXPECT_EQ(res.distribution.at(1), 0.5);
    EXPECT_EQ(res.circuitsPerIteration, 2);
}

TEST(QaoaEngine, SubrunWithoutACostTableIsRejected)
{
    core::SubRun run;
    run.numQubits = 1;
    run.build = [](const std::vector<double> &) {
        return circuit::Circuit(1);
    };
    run.lift = [](Basis x) { return x; };
    core::EngineOptions opts;
    opts.theta0 = {0.0};
    EXPECT_THROW((void)core::runQaoa({run}, opts), InternalError);
}

TEST(QaoaEngine, ShotSamplingApproximatesExact)
{
    core::SubRun run;
    run.numQubits = 1;
    run.costTable = costOf({0.0, 0.0});
    run.build = [](const std::vector<double> &) {
        circuit::Circuit c(1);
        c.h(0);
        return c;
    };
    run.lift = [](Basis x) { return x; };
    core::EngineOptions opts;
    opts.theta0 = {0.0};
    opts.opt.maxIterations = 1;
    opts.shots = 20000;
    const auto res = core::runQaoa({run}, opts);
    EXPECT_NEAR(res.distribution.at(0), 0.5, 0.03);
}

TEST(QaoaEngine, ReportsTranspiledArtifacts)
{
    const auto terms = core::makeCommuteTerms({{1, -1, 1, 0}});
    core::SubRun run;
    run.numQubits = 4;
    run.costTable = costOf(std::vector<double>(16, 0.0));
    run.build = [terms](const std::vector<double> &theta) {
        circuit::Circuit c(4);
        core::appendDriverLayer(c, terms, theta[0]);
        return c;
    };
    run.lift = [](Basis x) { return x; };
    core::EngineOptions opts;
    opts.theta0 = {0.7};
    opts.opt.maxIterations = 1;
    const auto res = core::runQaoa({run}, opts);
    EXPECT_GT(res.basisDepth, res.logicalDepth);
    EXPECT_GT(res.basisGateCount, 0u);
    EXPECT_GE(res.qubitsUsed, 4);
}

TEST(Penalty, FreezeZeroRunsOneCircuit)
{
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    solvers::PenaltyOptions opts;
    opts.layers = 2;
    opts.freeze = 0;
    opts.warmStart = false;
    opts.engine.opt.maxIterations = 10;
    const auto run = solvers::PenaltyQaoaSolver(opts).solve(p);
    EXPECT_EQ(run.circuitsPerIteration, 1);
}

TEST(Penalty, FreezeTwoRunsFourCircuits)
{
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    solvers::PenaltyOptions opts;
    opts.layers = 2;
    opts.freeze = 2;
    opts.warmStart = false;
    opts.engine.opt.maxIterations = 10;
    const auto run = solvers::PenaltyQaoaSolver(opts).solve(p);
    EXPECT_EQ(run.circuitsPerIteration, 4);
    // Distribution still covers the full variable space and normalizes.
    double total = 0.0;
    for (const auto &[x, prob] : run.distribution) {
        EXPECT_LT(x, Basis{1} << p.numVars());
        total += prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Penalty, WarmStartDoesNotHurtCost)
{
    const auto p = problems::makeCase(problems::Scale::K1, 1);
    solvers::PenaltyOptions cold;
    cold.layers = 2;
    cold.warmStart = false;
    cold.engine.opt.maxIterations = 25;
    solvers::PenaltyOptions warm = cold;
    warm.warmStart = true;
    const auto run_cold = solvers::PenaltyQaoaSolver(cold).solve(p);
    const auto run_warm = solvers::PenaltyQaoaSolver(warm).solve(p);
    EXPECT_LE(run_warm.bestCost, run_cold.bestCost + 2.0);
}

TEST(Penalty, WarmStartPollsTheCheckpoint)
{
    // The warm-start grid runs before the engine's first kernel, so a
    // cancel or deadline reaches it only through polls of its own: one
    // per grid point, 16 in all.
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    solvers::PenaltyOptions opts;
    opts.layers = 2;
    EXPECT_GE(pollsBeforeFirstKernel<solvers::PenaltyQaoaSolver>(opts, p),
              16);
}

TEST(Penalty, FastPathMatchesItsCircuit)
{
    // The fast path runs each layer as the penalty's phase table and
    // RX(2 beta) kernels; the circuit runs one MCP gate per monomial
    // and RX gates. For the same parameters both must give the same
    // distribution.
    for (const auto scale : {problems::Scale::K1, problems::Scale::F1}) {
        const auto p = problems::makeCase(scale, 0);
        const int n = p.numVars();
        solvers::PenaltyOptions opts;
        opts.layers = 2;
        opts.freeze = 0;
        pinParameters(opts.engine, {0.37, 0.81, 0.22, 0.64});
        const auto run = solvers::PenaltyQaoaSolver(opts).solve(p);

        const auto f = p.penaltyPolynomial(opts.lambda);
        const auto &theta = opts.engine.theta0;
        circuit::Circuit c(n);
        for (int q = 0; q < n; ++q)
            c.h(q);
        for (std::size_t l = 0; l < 2; ++l) {
            core::appendObjectivePhase(c, f, theta[2 * l]);
            for (int q = 0; q < n; ++q)
                c.rx(q, 2.0 * theta[2 * l + 1]);
        }
        expectDistributionOfCircuit(run.distribution, c, p.name());
    }
}

TEST(Cyclic, FastPathMatchesItsCircuit)
{
    // The fast path runs each XY mixer layer as commute terms at 2 beta;
    // the circuit keeps its XY gates. For the same parameters both must
    // give the same distribution.
    for (const auto scale : {problems::Scale::K1, problems::Scale::F1}) {
        const auto p = problems::makeCase(scale, 0);
        solvers::CyclicOptions opts;
        opts.layers = 2;
        pinParameters(opts.engine, {0.37, 0.81, 0.22, 0.64});
        const auto run = solvers::CyclicQaoaSolver(opts).solve(p);

        // The same circuit at theta0, executed one gate at a time.
        const auto x0 = model::findFeasible(p);
        ASSERT_TRUE(x0.has_value());
        const auto f = p.minimizedObjective();
        circuit::Circuit c(p.numVars());
        core::appendBasisPreparation(c, *x0);
        for (std::size_t l = 0; l < 2; ++l) {
            core::appendObjectivePhase(c, f, opts.engine.theta0[2 * l]);
            for (const auto &[a, b] : solvers::CyclicQaoaSolver::mixerPairs(p))
                c.xy(a, b, opts.engine.theta0[2 * l + 1]);
        }
        expectDistributionOfCircuit(run.distribution, c, p.name());
    }
}

TEST(Cyclic, MixerPairsFollowConstraintChains)
{
    model::Problem p(5);
    p.setObjective(model::Polynomial::variable(0));
    p.addEquality({1, 1, 1, 0, 0}, 1); // chain (0,1), (1,2)
    p.addEquality({0, 0, 0, 1, 1}, 1); // chain (3,4)
    p.addEquality({1, 0, -1, 0, 0}, 0); // mixed sign: skipped
    const auto pairs = solvers::CyclicQaoaSolver::mixerPairs(p);
    ASSERT_EQ(pairs.size(), 3u);
    EXPECT_EQ(pairs[0], (std::pair<int, int>{0, 1}));
    EXPECT_EQ(pairs[1], (std::pair<int, int>{1, 2}));
    EXPECT_EQ(pairs[2], (std::pair<int, int>{3, 4}));
}

TEST(Cyclic, InfeasibleProblemThrows)
{
    model::Problem p(2);
    p.setObjective(model::Polynomial::variable(0));
    p.addEquality({1, 1}, 5);
    solvers::CyclicQaoaSolver solver;
    EXPECT_THROW(solver.solve(p), FatalError);
}

TEST(Hea, FastPathMatchesItsCircuit)
{
    // The fast path runs the RY, RZ and CX kernels directly; the
    // circuit runs the same rotations and CX chains as gates.
    for (const auto scale : {problems::Scale::K1, problems::Scale::F1}) {
        const auto p = problems::makeCase(scale, 0);
        const int n = p.numVars();
        solvers::HeaOptions opts;
        opts.layers = 2;
        std::vector<double> theta0(2 * n * (opts.layers + 1));
        for (std::size_t i = 0; i < theta0.size(); ++i)
            theta0[i] = 0.3 + 0.1 * static_cast<double>(i % 7);
        pinParameters(opts.engine, std::move(theta0));
        const auto run = solvers::HeaSolver(opts).solve(p);

        const auto &theta = opts.engine.theta0;
        circuit::Circuit c(n);
        const auto rotations = [&](int block) {
            for (int q = 0; q < n; ++q) {
                c.ry(q, theta[2 * (block * n + q)]);
                c.rz(q, theta[2 * (block * n + q) + 1]);
            }
        };
        rotations(0);
        for (int b = 1; b <= opts.layers; ++b) {
            for (int q = 0; q + 1 < n; ++q)
                c.cx(q, q + 1);
            rotations(b);
        }
        expectDistributionOfCircuit(run.distribution, c, p.name());
    }
}

TEST(Baselines, TabulationPollsTheCheckpoint)
{
    // Each baseline tabulates its 2^n cost table before the engine's
    // first kernel, so a cancel or deadline reaches the tabulation only
    // through polls of its own: one per 2^16 states, 4 on K3's 2^18
    // (penalty freezes one variable: two tables of 2^17). The engine's
    // first objective evaluation adds 1 and penalty's warm-start grid
    // 16.
    const auto p = problems::makeCase(problems::Scale::K3, 0);
    EXPECT_GT(pollsBeforeFirstKernel<solvers::HeaSolver>(
                  solvers::HeaOptions{}, p),
              1);
    EXPECT_GT(pollsBeforeFirstKernel<solvers::CyclicQaoaSolver>(
                  solvers::CyclicOptions{}, p),
              1);
    EXPECT_GT(pollsBeforeFirstKernel<solvers::PenaltyQaoaSolver>(
                  solvers::PenaltyOptions{}, p),
              17);
}

TEST(Trotter, SmallDriverSucceedsAndScales)
{
    const auto terms =
        core::makeCommuteTerms({{1, -1, 0, 0}, {0, 1, -1, 0},
                                {0, 0, 1, -1}});
    solvers::TrotterOptions opts;
    opts.repetitions = 10;
    const auto r4 = solvers::trotterDecompose(terms, 4, 0.7, opts);
    EXPECT_FALSE(r4.timedOut);
    EXPECT_GT(r4.depth, 0u);
    EXPECT_GT(r4.peakBytes, (std::size_t{1} << 8) * 16);

    // Choco path: orders of magnitude cheaper.
    const auto choco = solvers::chocoDecompose(terms, 4, 0.7);
    EXPECT_LT(choco.depth, r4.depth / 10);
    EXPECT_LT(choco.peakBytes, r4.peakBytes);
}

TEST(Trotter, QubitCapTriggersTimeout)
{
    const auto terms = core::makeCommuteTerms({{1, -1}});
    solvers::TrotterOptions opts;
    opts.maxQubits = 6;
    const auto report = solvers::trotterDecompose(terms, 7, 0.5, opts);
    EXPECT_TRUE(report.timedOut);
}

TEST(Trotter, ErrorShrinksWithMoreRepetitions)
{
    const auto terms =
        core::makeCommuteTerms({{1, -1, 0}, {0, 1, -1}});
    solvers::TrotterOptions coarse;
    coarse.repetitions = 2;
    coarse.measureError = true;
    solvers::TrotterOptions fine = coarse;
    fine.repetitions = 20;
    const auto r_coarse = solvers::trotterDecompose(terms, 3, 0.9, coarse);
    const auto r_fine = solvers::trotterDecompose(terms, 3, 0.9, fine);
    EXPECT_LT(r_fine.stepError, r_coarse.stepError);
}

TEST(Device, PresetsMatchPaperDescription)
{
    const auto dev_fez = device::fez();
    EXPECT_NEAR(dev_fez.err2qNative, 0.003, 1e-9); // CZ 99.7%
    const auto dev_osaka = device::osaka();
    EXPECT_NEAR(dev_osaka.err2qNative, 0.007, 1e-9); // ECR 99.3%
    EXPECT_NEAR(dev_osaka.czFactor, 3.0, 1e-9); // 3 ECR per CZ
    EXPECT_EQ(device::allDevices().size(), 3u);
}

TEST(Device, LookupByNameIsCaseInsensitive)
{
    EXPECT_EQ(device::deviceByName("FEZ").name, "Fez");
    EXPECT_EQ(device::deviceByName("sherbrooke").name, "Sherbrooke");
    EXPECT_THROW(device::deviceByName("quito"), FatalError);
}

TEST(Device, NoiseScalesWithCzFactor)
{
    const auto noise_fez = device::noiseOf(device::fez());
    const auto noise_osaka = device::noiseOf(device::osaka());
    EXPECT_LT(noise_fez.p2q, noise_osaka.p2q);
    EXPECT_NEAR(noise_osaka.p2q, 0.021, 1e-9);
}

TEST(Device, LatencyBreakdownAddsUp)
{
    const auto lat = device::estimateLatency(device::fez(), 200, 30, 2,
                                             1000, 0.4, 0.1);
    EXPECT_NEAR(lat.total(),
                lat.compileSeconds + lat.quantumSeconds
                    + lat.classicalSeconds,
                1e-12);
    EXPECT_GT(lat.quantumSeconds, 0.0);
    // More iterations cost more quantum time.
    const auto lat2 = device::estimateLatency(device::fez(), 200, 60, 2,
                                              1000, 0.4, 0.1);
    EXPECT_GT(lat2.quantumSeconds, lat.quantumSeconds);
}

TEST(QaoaEngine, ExtraStartsFindBetterMinimum)
{
    // Objective with a deceptive local minimum near theta0 and the true
    // minimum near an extra start.
    core::SubRun run;
    run.numQubits = 1;
    run.costTable = costOf({1.0, -1.0});
    run.build = [](const std::vector<double> &theta) {
        circuit::Circuit c(1);
        c.rx(0, theta[0]);
        return c;
    };
    run.lift = [](Basis x) { return x; };
    core::EngineOptions narrow;
    narrow.theta0 = {0.05};
    narrow.opt.maxIterations = 15;
    narrow.opt.initialStep = 0.05;
    const auto res_narrow = core::runQaoa({run}, narrow);

    core::EngineOptions multi = narrow;
    multi.extraStarts = {{3.0}};
    const auto res_multi = core::runQaoa({run}, multi);
    EXPECT_LE(res_multi.bestCost, res_narrow.bestCost + 1e-9);
    EXPECT_GT(res_multi.evaluations, res_narrow.evaluations);
}

TEST(QaoaEngine, IndependentSubrunsOptimizeSeparately)
{
    // Two one-qubit subruns whose optimal angles differ; independent
    // optimization should satisfy both.
    auto make = [](double target) {
        core::SubRun run;
        run.numQubits = 1;
        // The full-space cost favors |1>, measured through each lift.
        run.costTable =
            target > 0 ? costOf({1.0, -1.0}) : costOf({-1.0, 1.0});
        run.build = [](const std::vector<double> &theta) {
            circuit::Circuit c(1);
            c.rx(0, theta[0]);
            return c;
        };
        run.lift = [target](Basis x) {
            // Subrun A rewards |1>, subrun B rewards |0> via lift trick:
            // map to distinct full-space states.
            return static_cast<Basis>(target > 0 ? x : (x ^ 1)) ;
        };
        return run;
    };
    core::EngineOptions opts;
    opts.theta0 = {0.4};
    opts.opt.maxIterations = 60;
    const auto res = core::runQaoa({make(1.0), make(-1.0)}, opts);
    // Both subruns can push all their mass onto full-space |1>.
    EXPECT_GT(res.distribution.at(1), 0.9);
}

namespace
{

/** A Choco-Q-shaped subrun: phase table then commute layer per ansatz
 * layer, on the functional fast path. */
core::SubRun
commuteLayerSubRun()
{
    const int n = 3;
    const auto table = std::make_shared<const std::vector<double>>(
        std::vector<double>{0.3, -1.2, 0.7, 2.1, -0.4, 1.9, -2.2, 0.05});
    const auto terms = std::make_shared<const std::vector<core::CommuteTerm>>(
        std::vector<core::CommuteTerm>{core::makeCommuteTerm({1, -1, 0}),
                                       core::makeCommuteTerm({0, 1, 1})});
    const Basis x0 = 0b001;
    core::SubRun run;
    run.numQubits = n;
    run.costTable = table;
    run.build = [n, x0](const std::vector<double> &) {
        circuit::Circuit c(n); // only the transpiled artifacts use it
        core::appendBasisPreparation(c, x0);
        return c;
    };
    run.evolve = [x0, table, terms](sim::StateVector &state,
                                    const std::vector<double> &theta) {
        state.reset(x0);
        for (std::size_t l = 0; l < theta.size() / 2; ++l) {
            state.applyPhaseTable(*table, theta[2 * l]);
            core::applyCommuteLayer(state, *terms, theta[2 * l + 1]);
        }
    };
    run.lift = [](Basis x) { return x; };
    return run;
}

/** Four two-layer starts, two kept after screening. */
core::EngineOptions
screenedMultiStart()
{
    core::EngineOptions opts;
    opts.theta0 = {0.4, 0.7, 1.1, 0.3};
    opts.extraStarts = {{0.8, 2.2, 0.2, 1.4},
                        {2.4, 1.2, 2.8, 0.6},
                        {1.2, 3.0, 0.9, 2.1}};
    opts.multiStartKeep = 2;
    opts.opt.maxIterations = 15;
    opts.seed = 99;
    return opts;
}

void
expectBitwiseSameResult(const core::SolverOutcome &a,
                        const core::SolverOutcome &b)
{
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t k = 0; k < a.trace.size(); ++k) {
        EXPECT_EQ(a.trace[k].iteration, b.trace[k].iteration);
        EXPECT_EQ(0, std::memcmp(&a.trace[k].best, &b.trace[k].best,
                                 sizeof(double)));
    }
    EXPECT_EQ(0, std::memcmp(&a.bestCost, &b.bestCost, sizeof(double)));
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.distribution.size(), b.distribution.size());
    for (auto it_a = a.distribution.begin(), it_b = b.distribution.begin();
         it_a != a.distribution.end(); ++it_a, ++it_b) {
        EXPECT_EQ(it_a->first, it_b->first);
        EXPECT_EQ(0, std::memcmp(&it_a->second, &it_b->second,
                                 sizeof(double)));
    }
}

TEST(QaoaEngineMultiStart, CheckpointThatNeverFiresIsBitwiseNoOp)
{
    const core::SubRun run = commuteLayerSubRun();
    const core::EngineOptions plain = screenedMultiStart();
    const auto reference = core::runQaoa({run}, plain);

    core::EngineOptions hooked = plain;
    int calls = 0;
    hooked.checkpoint = [&calls] { ++calls; };
    expectBitwiseSameResult(reference, core::runQaoa({run}, hooked));
    EXPECT_GT(calls, 0);
}

TEST(QaoaEngineMultiStart, ThrowingCheckpointPropagates)
{
    const core::SubRun run = commuteLayerSubRun();

    // Count the checkpoints of a whole run, then throw halfway through.
    core::EngineOptions probe = screenedMultiStart();
    int total = 0;
    probe.checkpoint = [&total] { ++total; };
    (void)core::runQaoa({run}, probe);
    ASSERT_GT(total, 2);

    core::EngineOptions cancel = probe;
    int calls = 0;
    const int limit = total / 2;
    cancel.checkpoint = [&calls, limit] {
        if (++calls >= limit)
            throw std::runtime_error("cancelled");
    };
    EXPECT_THROW((void)core::runQaoa({run}, cancel),
                 std::runtime_error);
    EXPECT_EQ(calls, limit);
}

} // namespace

TEST(Ablation, GenericSynthesisPaddingDeepensWithoutChangingResult)
{
    const auto p = problems::makeCase(problems::Scale::K1, 0);
    core::ChocoQOptions plain;
    plain.eliminate = 0;
    plain.engine.theta0 = {0.5, 1.1};
    plain.engine.opt.maxIterations = 1;
    plain.engine.opt.initialStep = 1e-9;
    core::ChocoQOptions padded = plain;
    padded.genericSynthesisPadding = true;

    const auto run_plain = core::ChocoQSolver(plain).solve(p);
    const auto run_padded = core::ChocoQSolver(padded).solve(p);
    EXPECT_GT(run_padded.basisDepth, run_plain.basisDepth);
    EXPECT_GT(run_padded.basisGateCount, run_plain.basisGateCount);
    // Identity padding: the noiseless distribution is unchanged.
    for (const auto &[x, prob] : run_plain.distribution) {
        const auto it = run_padded.distribution.find(x);
        ASSERT_NE(it, run_padded.distribution.end());
        EXPECT_NEAR(prob, it->second, 1e-9);
    }
}

TEST(Ablation, GenericSynthesisCostGrowsFasterThanLemma2)
{
    // The generic/Lemma-2 basic-gate ratio grows with the support size
    // (exponential vs linear decomposition cost).
    double prev_ratio = 0.0;
    for (int k : {3, 5, 7}) {
        std::vector<int> u(k, 1);
        for (int i = 0; i < k; i += 2)
            u[i] = -1;
        const auto term = core::makeCommuteTerm(u);
        const std::size_t generic =
            core::genericTermSynthesisGates(term, 0.7);
        circuit::Circuit c(k);
        core::appendCommuteTermCircuit(c, term, 0.7);
        const std::size_t lemma2 = circuit::transpile(c).gateCount();
        const double ratio = static_cast<double>(generic)
                             / static_cast<double>(lemma2);
        EXPECT_GT(ratio, prev_ratio);
        prev_ratio = ratio;
    }
    EXPECT_GT(prev_ratio, 2.0);
}

TEST(Padding, IdentityPairsPreserveUnitary)
{
    circuit::Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    circuit::Circuit padded = c;
    core::appendIdentityPadding(padded, 5);
    EXPECT_EQ(padded.gateCount(), c.gateCount() + 10);
    const auto u = sim::circuitUnitary(c);
    const auto v = sim::circuitUnitary(padded);
    EXPECT_LT(u.maxAbsDiff(v), 1e-12);
}
