/**
 * @file
 * Google-benchmark micro-suite for the hot kernels: state-vector gate
 * application, the commute pair-rotation fast path, diagonal phase
 * tables, move-basis computation, transpilation, and the Lemma-2 circuit
 * construction, plus one device-noise trajectory through the tracked
 * support and through its dense oracle, and one warm-cache service job
 * next to the metric writes it makes.
 *
 * The kernel benchmarks report a ns_per_amp counter (wall time per
 * state-vector amplitude, normalized to the full 2^n dimension so that
 * fast/naive ratios read directly as speedups). Pass
 * --benchmark_out=<file> --benchmark_out_format=json for a JSON report.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "circuit/transpile.hpp"
#include "core/chocoq_solver.hpp"
#include "core/circuits.hpp"
#include "core/feasible_subspace.hpp"
#include "core/layer_fusion.hpp"
#include "core/movebasis.hpp"
#include "device/device.hpp"
#include "model/exact.hpp"
#include "obs/metrics.hpp"
#include "problems/suite.hpp"
#include "service/service.hpp"
#include "sim/naive.hpp"
#include "sim/parallel.hpp"

using namespace chocoq;
using linalg::Cplx;
using linalg::CVec;

namespace
{

constexpr double kInvSqrt2 = 0.70710678118654752440;

/** Qubit count for the masked-kernel comparisons (1M amplitudes). */
constexpr int kKernelQubits = 20;

/** Items-processed plus ns-per-amplitude counter, both per iteration. */
void
setAmpCounters(benchmark::State &state, std::int64_t amps_per_iter)
{
    state.SetItemsProcessed(state.iterations() * amps_per_iter);
    state.counters["ns_per_amp"] = benchmark::Counter(
        static_cast<double>(state.iterations())
            * static_cast<double>(amps_per_iter) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/**
 * Support mask/v-bits pattern of size k spread over the upper half of
 * the register (the representative case: free low bits keep the subspace
 * runs contiguous).
 */
core::CommuteTerm
spreadTerm(int n, int k)
{
    std::vector<int> u(n, 0);
    for (int i = 0; i < k; ++i)
        u[n / 2 + i * (n / 2 - 1) / std::max(k - 1, 1)] =
            (i % 2 == 0) ? 1 : -1;
    return core::makeCommuteTerm(u);
}

/** Worst-case pattern: support packed into the lowest k bits (stride-2^k
 * access, run length 1). */
core::CommuteTerm
lowTerm(int n, int k)
{
    std::vector<int> u(n, 0);
    for (int i = 0; i < k; ++i)
        u[i] = (i % 2 == 0) ? 1 : -1;
    return core::makeCommuteTerm(u);
}

// ---- generic gate kernels ----

void
BM_Apply1q(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    for (auto _ : state) {
        sv.apply1q(n / 2, kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << n);
}
BENCHMARK(BM_Apply1q)->Arg(10)->Arg(14)->Arg(18);

void
BM_Diagonal1q(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    const Cplx em{std::cos(0.4), -std::sin(0.4)};
    for (auto _ : state) {
        sv.applyDiagonal1q(n / 2, em, std::conj(em));
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << n);
}
BENCHMARK(BM_Diagonal1q)->Arg(14)->Arg(18)->Arg(kKernelQubits);

// ---- masked kernels: subspace enumeration vs naive full scan ----

void
BM_PairRotation(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    sim::StateVector sv(kKernelQubits);
    const auto term = spreadTerm(kKernelQubits, k);
    const double c = std::cos(0.3);
    const double s = std::sin(0.3);
    for (auto _ : state) {
        sv.applyPairRotation(term.supportMask, term.vBits, c, s);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << kKernelQubits);
}
BENCHMARK(BM_PairRotation)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void
BM_PairRotationNaive(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    sim::StateVector sv(kKernelQubits);
    const auto term = spreadTerm(kKernelQubits, k);
    for (auto _ : state) {
        sim::naive::pairRotation(sv.amplitudes(), term.supportMask,
                                 term.vBits, 0.3);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << kKernelQubits);
}
BENCHMARK(BM_PairRotationNaive)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void
BM_PairRotationLowSupport(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    sim::StateVector sv(kKernelQubits);
    const auto term = lowTerm(kKernelQubits, k);
    const double c = std::cos(0.3);
    const double s = std::sin(0.3);
    for (auto _ : state) {
        sv.applyPairRotation(term.supportMask, term.vBits, c, s);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << kKernelQubits);
}
BENCHMARK(BM_PairRotationLowSupport)->Arg(2)->Arg(4);

void
BM_PhaseMask(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    sim::StateVector sv(kKernelQubits);
    const auto term = spreadTerm(kKernelQubits, m);
    for (auto _ : state) {
        sv.applyPhaseMask(term.supportMask, 0.4);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << kKernelQubits);
}
BENCHMARK(BM_PhaseMask)->Arg(1)->Arg(2)->Arg(4);

void
BM_PhaseMaskNaive(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    sim::StateVector sv(kKernelQubits);
    const auto term = spreadTerm(kKernelQubits, m);
    for (auto _ : state) {
        sim::naive::phaseMask(sv.amplitudes(), term.supportMask, 0.4);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << kKernelQubits);
}
BENCHMARK(BM_PhaseMaskNaive)->Arg(1)->Arg(2)->Arg(4);

void
BM_Controlled1q(benchmark::State &state)
{
    const int n = kKernelQubits;
    sim::StateVector sv(n);
    const Basis controls = (Basis{1} << 0) | (Basis{1} << (n - 1));
    for (auto _ : state) {
        sv.applyControlled1q(controls, n / 2, 0, 1, 1, 0);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << n);
}
BENCHMARK(BM_Controlled1q);

void
BM_PhaseTable(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    std::vector<double> table(std::size_t{1} << n, 0.5);
    for (auto _ : state) {
        sv.applyPhaseTable(table, 0.4);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << n);
}
BENCHMARK(BM_PhaseTable)->Arg(10)->Arg(14)->Arg(18);

void
BM_ExpectationTable(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    std::vector<double> table(std::size_t{1} << n, 0.5);
    for (auto _ : state) {
        double v = sv.expectationTable(table);
        benchmark::DoNotOptimize(v);
    }
    setAmpCounters(state, std::int64_t{1} << n);
}
BENCHMARK(BM_ExpectationTable)->Arg(14)->Arg(18)->Arg(kKernelQubits);

/** Pair rotation with CHOCOQ_THREADS overridden (OpenMP scaling probe). */
void
BM_PairRotationThreads(benchmark::State &state)
{
    sim::setSimThreads(static_cast<int>(state.range(0)));
    sim::StateVector sv(kKernelQubits);
    const auto term = spreadTerm(kKernelQubits, 3);
    const double c = std::cos(0.3);
    const double s = std::sin(0.3);
    for (auto _ : state) {
        sv.applyPairRotation(term.supportMask, term.vBits, c, s);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    sim::setSimThreads(0);
    setAmpCounters(state, std::int64_t{1} << kKernelQubits);
}
BENCHMARK(BM_PairRotationThreads)->Arg(1)->Arg(2)->Arg(4);

// ---- gate fusion: fused vs unfused layer application ----

void
BM_FusedPhaseTable(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    // Objective-shaped table: 64 distinct eigenvalues.
    std::vector<double> table(std::size_t{1} << n);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<double>((i * 2654435761u) % 64) - 32.0;
    const auto plan = core::buildFusedLayerPlan(table, {});
    std::vector<Cplx> scratch;
    for (auto _ : state) {
        core::applyFusedObjectivePhase(sv, plan, table, 0.4, scratch);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, std::int64_t{1} << n);
}
BENCHMARK(BM_FusedPhaseTable)->Arg(10)->Arg(14)->Arg(18);

/**
 * The deep-layer configuration: a representative reduced instance
 * (support sizes 2-4, six distinct masks each carrying two
 * disjoint-pair variants, 64-distinct-value objective table) evolved
 * through 6 alternating layers — the memory-traffic shape of a deep
 * QAOA ansatz. Fused and unfused paths are bit-identical (tested);
 * the ratio of their ns_per_amp counters is the gate-fusion speedup
 * tracked by the acceptance criteria.
 */
std::vector<core::CommuteTerm>
deepLayerTerms(int n)
{
    std::vector<core::CommuteTerm> terms;
    for (int i = 0; i < 6; ++i) {
        const int k = 2 + i % 3;
        std::vector<int> u(n, 0);
        for (int b = 0; b < k; ++b)
            u[(i * 5 + b * 3) % n] = (b % 2 == 0) ? 1 : -1;
        terms.push_back(core::makeCommuteTerm(u));
        // Same support, one sign flipped: a disjoint pair set that the
        // fusion plan groups with the original into one sweep.
        u[(i * 5) % n] = -u[(i * 5) % n];
        terms.push_back(core::makeCommuteTerm(u));
    }
    return terms;
}

std::vector<double>
deepLayerTable(int n)
{
    std::vector<double> table(std::size_t{1} << n);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<double>((i * 2654435761u) % 64) - 32.0;
    return table;
}

constexpr int kDeepLayers = 6;

void
BM_QaoaDeepLayersUnfused(benchmark::State &state)
{
    const int n = kKernelQubits;
    sim::StateVector sv(n);
    const auto table = deepLayerTable(n);
    const auto terms = deepLayerTerms(n);
    sv.reset(1);
    for (auto _ : state) {
        for (int l = 0; l < kDeepLayers; ++l) {
            sv.applyPhaseTable(table, 0.4 + 0.01 * l);
            core::applyCommuteLayer(sv, terms, 0.7 + 0.01 * l);
        }
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, (std::int64_t{1} << n) * std::int64_t{kDeepLayers});
}
BENCHMARK(BM_QaoaDeepLayersUnfused);

void
BM_QaoaDeepLayersFused(benchmark::State &state)
{
    const int n = kKernelQubits;
    sim::StateVector sv(n);
    const auto table = deepLayerTable(n);
    const auto terms = deepLayerTerms(n);
    const auto plan = core::buildFusedLayerPlan(table, terms);
    std::vector<Cplx> scratch;
    sv.reset(1);
    for (auto _ : state) {
        for (int l = 0; l < kDeepLayers; ++l) {
            core::applyFusedObjectivePhase(sv, plan, table, 0.4 + 0.01 * l,
                                           scratch);
            core::applyFusedCommuteLayer(sv, plan, 0.7 + 0.01 * l);
        }
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    setAmpCounters(state, (std::int64_t{1} << n) * std::int64_t{kDeepLayers});
}
BENCHMARK(BM_QaoaDeepLayersFused);

/**
 * One Choco-Q layer plus its expectation on a registry structure's
 * first sub-instance (case 0), through the feasible-subspace kernels,
 * the dense fused plan, and the dense unfused oracle ("fusion":false).
 * The subspace probe normalizes ns_per_amp per *set state*, the dense
 * ones per amplitude of 2^k, so the subspace/fused ns_per_amp ratio is
 * the cost of one set state in dense amplitudes: the selection constant
 * core::kDenseAmpsPerSubspaceState (docs/simulator.md). CI gates the
 * subspace/oracle real_time ratio on every scale.
 */
const core::CompiledSub &
layerProbeSub(benchmark::State &state)
{
    static std::map<std::int64_t,
                    std::shared_ptr<const core::ChocoQArtifacts>>
        compiled;
    auto &art = compiled[state.range(0)];
    const auto scale =
        problems::allScales()[static_cast<std::size_t>(state.range(0))];
    if (!art)
        art = core::ChocoQSolver().compile(problems::makeCase(scale, 0));
    state.SetLabel(problems::scaleName(scale));
    return art->subs.front();
}

void
BM_ChocoLayerSubspace(benchmark::State &state)
{
    const core::CompiledSub &cs = layerProbeSub(state);
    // Planned without the rule's bound, so the probe runs on any
    // structure.
    const auto fs = core::buildFeasibleSubspace(
        cs.init, *cs.terms, *cs.costTable, cs.costTable->size());
    sim::StateVector sv(1);
    sv.resizeCompact(fs->states.size());
    sv.reset(fs->initIndex);
    std::vector<Cplx> scratch;
    double e = 0.0;
    for (auto _ : state) {
        core::applySubspaceLayer(sv, *fs, 0.4, 0.7, scratch);
        e += sv.expectationSubspace(fs->distinctValues, fs->valueIndex);
    }
    benchmark::DoNotOptimize(e);
    setAmpCounters(state, static_cast<std::int64_t>(fs->states.size()));
}
BENCHMARK(BM_ChocoLayerSubspace)->Arg(9)->Arg(6)->Arg(10)->Arg(2);

void
BM_ChocoLayerDense(benchmark::State &state)
{
    const core::CompiledSub &cs = layerProbeSub(state);
    const core::FusedLayerPlan &plan = *cs.fusedPlan;
    sim::StateVector sv(cs.numQubits);
    sv.reset(cs.init);
    std::vector<Cplx> scratch;
    double e = 0.0;
    for (auto _ : state) {
        core::applyFusedLayer(sv, plan, *cs.costTable, 0.4, 0.7, scratch);
        e += sv.expectationTableCompressed(plan.distinctValues,
                                           plan.valueIndex);
    }
    benchmark::DoNotOptimize(e);
    setAmpCounters(state, std::int64_t{1} << cs.numQubits);
}
BENCHMARK(BM_ChocoLayerDense)->Arg(9)->Arg(6)->Arg(10)->Arg(2);

void
BM_ChocoLayerOracle(benchmark::State &state)
{
    const core::CompiledSub &cs = layerProbeSub(state);
    sim::StateVector sv(cs.numQubits);
    sv.reset(cs.init);
    double e = 0.0;
    for (auto _ : state) {
        sv.applyPhaseTable(*cs.costTable, 0.4);
        core::applyCommuteLayer(sv, *cs.terms, 0.7);
        e += sv.expectationTable(*cs.costTable);
    }
    benchmark::DoNotOptimize(e);
    setAmpCounters(state, std::int64_t{1} << cs.numQubits);
}
BENCHMARK(BM_ChocoLayerOracle)->Arg(9)->Arg(6)->Arg(10)->Arg(2);

/** A registry structure's first sub-instance (case 0) as the noisy
 * probes run it: its Choco-Q ansatz at fixed angles, lowered for IBM
 * Fez. */
circuit::Circuit
fezLoweredAnsatz(benchmark::State &state)
{
    const core::CompiledSub &cs = layerProbeSub(state);
    return circuit::transpile(core::chocoAnsatz(cs.numQubits, cs.init,
                                                *cs.objective, *cs.terms,
                                                {0.4, 0.7}));
}

/**
 * One device-noise trajectory of fezLoweredAnsatz, run from |0> under
 * Fez noise through executeNoisy's tracked support and through the
 * dense oracle naive::executeNoisy. The generator carries across
 * iterations, so the probes average over error patterns. CI gates the
 * oracle/tracked real_time ratio on G1 and K2.
 */
using Trajectory = void (*)(sim::StateVector &, const circuit::Circuit &,
                            const sim::NoiseModel &, Rng &);

void
noisyTrajectoryProbe(benchmark::State &state, Trajectory run)
{
    const circuit::Circuit c = fezLoweredAnsatz(state);
    const sim::NoiseModel noise = device::noiseOf(device::fez());
    sim::StateVector sv(c.numQubits());
    Rng rng(17);
    for (auto _ : state) {
        sv.prepare(c.numQubits());
        run(sv, c, noise, rng);
        benchmark::DoNotOptimize(sv.amplitudes().data());
        benchmark::ClobberMemory();
    }
    state.counters["gates"] = static_cast<double>(c.gates().size());
    setAmpCounters(state, std::int64_t{1} << c.numQubits());
}

void
BM_NoisyTrajectory(benchmark::State &state)
{
    noisyTrajectoryProbe(state, &sim::executeNoisy);
}
BENCHMARK(BM_NoisyTrajectory)->Arg(4)->Arg(9);

void
BM_NoisyTrajectoryOracle(benchmark::State &state)
{
    noisyTrajectoryProbe(state, &sim::naive::executeNoisy);
}
BENCHMARK(BM_NoisyTrajectoryOracle)->Arg(4)->Arg(9);

/**
 * One sub-instance's final sample under Fez noise, as a `device` job
 * with `shots` 256 draws it (128 trajectories of 2 shots), on
 * fezLoweredAnsatz: through NoisySampler's shared prefix and through
 * the per-trajectory oracle naive::sampleNoisy. The generator carries
 * across iterations. CI gates the oracle/sampler real_time ratio at 2x
 * on F1 and prints K1's.
 */
template <class Sample>
void
noisySampleProbe(benchmark::State &state, Sample &&sample)
{
    const circuit::Circuit c = fezLoweredAnsatz(state);
    const sim::NoiseModel noise = device::noiseOf(device::fez());
    Rng rng(17);
    for (auto _ : state) {
        const std::map<Basis, int> counts = sample(c, noise, 128, 2, rng);
        benchmark::DoNotOptimize(counts);
    }
    state.counters["gates"] = static_cast<double>(c.gates().size());
}

void
BM_NoisySample(benchmark::State &state)
{
    sim::NoisySampler sampler;
    noisySampleProbe(state, [&sampler](auto &&...args) {
        return sampler.sample(args...);
    });
}
BENCHMARK(BM_NoisySample)->Arg(0)->Arg(8);

void
BM_NoisySampleOracle(benchmark::State &state)
{
    noisySampleProbe(state, &sim::naive::sampleNoisy);
}
BENCHMARK(BM_NoisySampleOracle)->Arg(0)->Arg(8);

// ---- compiler / solver paths ----

void
BM_MoveBasis(benchmark::State &state)
{
    const auto scale =
        problems::allScales()[static_cast<std::size_t>(state.range(0))];
    const auto p = problems::makeCase(scale, 0);
    for (auto _ : state) {
        auto basis = core::computeMoveBasis(p);
        benchmark::DoNotOptimize(basis.moves.data());
    }
    state.SetLabel(problems::scaleName(scale));
}
BENCHMARK(BM_MoveBasis)->Arg(0)->Arg(5)->Arg(11);

void
BM_Lemma2Circuit(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    std::vector<int> u(k, 1);
    for (int i = 0; i < k; i += 2)
        u[i] = -1;
    const auto term = core::makeCommuteTerm(u);
    for (auto _ : state) {
        auto c = core::commuteTermCircuit(term, k, 0.7);
        benchmark::DoNotOptimize(c.gates().data());
    }
}
BENCHMARK(BM_Lemma2Circuit)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

void
BM_Transpile(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    std::vector<int> u(k, 1);
    for (int i = 0; i < k; i += 2)
        u[i] = -1;
    const auto term = core::makeCommuteTerm(u);
    const auto c = core::commuteTermCircuit(term, k, 0.7);
    for (auto _ : state) {
        auto lowered = circuit::transpile(c);
        benchmark::DoNotOptimize(lowered.gates().data());
    }
}
BENCHMARK(BM_Transpile)->Arg(4)->Arg(8)->Arg(16);

void
BM_ExactSolve(benchmark::State &state)
{
    const auto scale =
        problems::allScales()[static_cast<std::size_t>(state.range(0))];
    const auto p = problems::makeCase(scale, 0);
    for (auto _ : state) {
        auto exact = model::solveExact(p);
        benchmark::DoNotOptimize(exact.optima.data());
    }
    state.SetLabel(problems::scaleName(scale));
}
BENCHMARK(BM_ExactSolve)->Arg(0)->Arg(4)->Arg(8);

/** ChocoQSolver::compile on case 0 of a scale: what a compile-cache
 * miss costs. */
void
BM_ChocoCompile(benchmark::State &state)
{
    const auto scale =
        problems::allScales()[static_cast<std::size_t>(state.range(0))];
    const auto p = problems::makeCase(scale, 0);
    const core::ChocoQSolver solver;
    for (auto _ : state) {
        auto art = solver.compile(p);
        benchmark::DoNotOptimize(art.get());
    }
    state.SetLabel(problems::scaleName(scale));
}
BENCHMARK(BM_ChocoCompile)->Arg(0)->Arg(5)->Arg(9);

// ---- service job and its metric books ----

/**
 * One warm-cache job through SolveService::execute in repeat_stream's
 * shape: F1 case 0, 20 optimizer iterations, two multi-start survivors,
 * a new seed each iteration. The structure compiles once before timing.
 */
void
BM_ServiceJob(benchmark::State &state)
{
    service::SolveService svc;
    service::WorkerContext ctx;
    service::SolveJob job;
    job.scale = "F1";
    job.maxIterations = 20;
    job.keepStarts = 2;
    svc.execute(job, ctx);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        job.seed = ++seed;
        const service::SolveResult r = svc.execute(job, ctx);
        if (r.status != "ok") {
            state.SkipWithError(r.error.c_str());
            break;
        }
        benchmark::DoNotOptimize(r.distHash);
    }
}
BENCHMARK(BM_ServiceJob);

/**
 * Every registry write one completed job makes, on the metric names
 * SolveService binds, from its four recording sites in service.cpp:
 * submit (jobs.submitted, jobs.inflight +1), execute (jobs.started,
 * stage.compile_ms, stage.solve_ms), recordKernels (kernels.bytes,
 * kernels.flops, and .calls/.amps for every KernelId, an upper bound
 * on any job's kernel mix) and recordCompletion (stage.queue_ms,
 * stage.total_ms, jobs.ok, jobs.completed, jobs.inflight -1). CI gates
 * this probe's real_time below 2% of BM_ServiceJob's.
 */
void
BM_ServiceJobBooks(benchmark::State &state)
{
    obs::MetricsRegistry m;
    obs::Counter &submitted = m.counter("jobs.submitted");
    obs::Counter &started = m.counter("jobs.started");
    obs::Counter &completed = m.counter("jobs.completed");
    obs::Counter &ok = m.counter("jobs.ok");
    obs::Gauge &inflight = m.gauge("jobs.inflight");
    obs::Histogram &queueMs = m.histogram("stage.queue_ms");
    obs::Histogram &compileMs = m.histogram("stage.compile_ms");
    obs::Histogram &solveMs = m.histogram("stage.solve_ms");
    obs::Histogram &totalMs = m.histogram("stage.total_ms");
    obs::Counter &bytes = m.counter("kernels.bytes");
    obs::Counter &flops = m.counter("kernels.flops");
    std::vector<std::pair<obs::Counter *, obs::Counter *>> kernels;
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const std::string base =
            std::string("kernels.")
            + obs::kernelName(static_cast<obs::KernelId>(k));
        kernels.emplace_back(&m.counter(base + ".calls"),
                             &m.counter(base + ".amps"));
    }
    // One F1 job's magnitudes, opaque to the optimizer.
    struct
    {
        double queueMs = 0.02, compileMs = 0.004, solveMs = 0.11;
        std::uint64_t calls = 40, amps = 320, bytes = 180000, flops = 40000;
    } job;
    benchmark::DoNotOptimize(&job);
    for (auto _ : state) {
        submitted.add();
        inflight.add(1.0);

        started.add();
        compileMs.record(job.compileMs);
        solveMs.record(job.solveMs);

        for (const auto &[calls, amps] : kernels) {
            calls->add(job.calls);
            amps->add(job.amps);
        }
        bytes.add(job.bytes);
        flops.add(job.flops);

        queueMs.record(job.queueMs);
        totalMs.record(job.queueMs + job.solveMs);
        ok.add();
        completed.add();
        inflight.add(-1.0);
    }
    benchmark::DoNotOptimize(completed.value());
}
BENCHMARK(BM_ServiceJobBooks);

} // namespace

BENCHMARK_MAIN();
