/**
 * @file
 * Shared variational execution engine for all QAOA-family solvers.
 *
 * Every solver in this repository (Choco-Q and the three baselines)
 * reduces to the same loop: build a parameterized circuit (possibly one
 * per sub-instance when variables were eliminated or frozen), simulate,
 * compute a cost expectation, and hand the parameters to a derivative-free
 * optimizer. The engine also produces the deployment-side artifacts the
 * benchmarks need: transpiled depth, gate counts, compile time, and a
 * final output distribution with optional shot sampling and device-noise
 * trajectories.
 */

#ifndef CHOCOQ_CORE_QAOA_HPP
#define CHOCOQ_CORE_QAOA_HPP

#include <functional>
#include <memory>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/bitops.hpp"
#include "optimize/optimizer.hpp"
#include "sim/executor.hpp"
#include "sim/statevector.hpp"

namespace chocoq::obs
{
class Trace;
} // namespace chocoq::obs

namespace chocoq::core
{

/** One parameterized circuit instance contributing to the result. */
struct SubRun
{
    /** Data-qubit count of this instance. */
    int numQubits = 0;
    /** theta -> circuit builder (circuit includes state preparation). */
    std::function<circuit::Circuit(const std::vector<double> &)> build;
    /**
     * Optional functional fast path: evolve the state directly for a given
     * theta (must be unitarily equivalent to build(); the equivalence is a
     * tested property). Used by the variational loop and the exact final
     * distribution; gate-noise sampling always goes through build().
     * Contract: the callee receives a state of the right dimension
     * (2^numQubits, or compactStates->size() for a compact run) with
     * unspecified contents and must establish its own initial state
     * (every implementation starts with a reset to its initial state).
     */
    std::function<void(sim::StateVector &, const std::vector<double> &)>
        evolve;
    /** Map a measured instance-space state to the full variable space. */
    std::function<Basis(Basis)> lift;
    /**
     * The cost this instance is measured against, one value per basis
     * state of the instance (the objective of lift(x) for state x).
     * Required unless the run is compact.
     */
    std::shared_ptr<const std::vector<double>> costTable;
    /**
     * Optional value-compressed form of costTable (see FusedLayerPlan):
     * costTable[i] == (*costDistinct)[(*costIndex)[i]] bit-for-bit. When
     * both are set the engine computes expectations through the
     * compressed table — the same products and summation order as the
     * expanded sweep, so results are bit-identical (tested property) —
     * reading 2 bytes per amplitude instead of 8.
     */
    std::shared_ptr<const std::vector<double>> costDistinct;
    std::shared_ptr<const std::vector<std::uint16_t>> costIndex;
    /**
     * Optional compact basis (the feasible-subspace backend, see
     * core/feasible_subspace.hpp): the ascending basis states evolve()
     * works over. When set, the engine sizes the state to
     * compactStates->size() amplitudes, amplitude i standing for basis
     * state (*compactStates)[i]; costDistinct/costIndex (required) are
     * indexed the same way, and final distributions and shots map
     * compact indices to basis states before lift(). The gate-level
     * build() and the noisy path stay on the full register.
     */
    std::shared_ptr<const std::vector<Basis>> compactStates;
};

/** Engine configuration. */
struct EngineOptions
{
    optimize::OptOptions opt;
    /** Initial parameters. */
    std::vector<double> theta0;
    /**
     * Additional starting points (multi-start): the optimizer runs once
     * per start and the best final cost wins. QAOA landscapes are
     * periodic and multi-modal; wide-angle restarts are cheap insurance.
     */
    std::vector<std::vector<double>> extraStarts;
    /**
     * Multi-start screening: when > 0, every start is evaluated once
     * and only the multiStartKeep starts with the lowest cost (ties
     * keep submission order) receive a full optimizer run. 0 (default)
     * optimizes every start.
     */
    int multiStartKeep = 0;
    /**
     * Optional external scratch state (one per worker thread) backing
     * every objective evaluation and the final distribution; a service
     * worker reuses it across jobs so steady-state solves allocate no
     * state vectors. When null, the engine uses a call-local state.
     */
    sim::StateVector *scratch = nullptr;
    /**
     * Optional external noisy sampler (one per worker thread, like
     * scratch) for the final distribution under noise: its states and
     * draw storage are reused across jobs. When null, the engine uses
     * a call-local sampler.
     */
    sim::NoisySampler *sampler = nullptr;
    /**
     * Layer fusion. Choco-Q applies each layer through its compile-time
     * FusedLayerPlan (value-compressed objective phase + grouped commute
     * sweeps — bit-identical to the unfused kernels, see
     * core/layer_fusion.hpp) or, when its rule selects it, through the
     * feasible-subspace backend (core/feasible_subspace.hpp). Off
     * switches every evaluation back to the per-term kernels — kept as
     * the cross-checked oracle. Compile-relevant: the service hashes
     * this into the compile-cache key because artifacts carry the fused
     * plan. Read by ChocoQSolver; the engine itself never branches on it.
     */
    bool fusion = true;
    /** Shots for the final sampling; 0 keeps the exact distribution. */
    int shots = 0;
    /** Gate noise for the final sampling (optimization is noiseless). */
    sim::NoiseModel noise;
    /** Number of noisy trajectories used when noise is enabled. */
    int trajectories = 128;
    /** Seeds the final shot sampling and the noisy trajectories (the
     * optimizer is deterministic and draws no random numbers). */
    std::uint64_t seed = 7;
    /**
     * Optional kernel-mix sink (see obs/roofline.hpp). When set, the
     * engine attaches it to its scratch state for the duration of the
     * run — every simulator kernel the job executes records its
     * invocation and touched-amplitude count — and detaches on exit
     * (a worker's scratch state outlives the job). Null (the default)
     * costs one untaken branch per kernel call and changes no amplitude
     * bits.
     */
    obs::KernelCounterSink *kernelCounters = nullptr;
    /**
     * Cooperative cancellation checkpoint. The engine installs it as
     * OptOptions::checkpoint on every optimizer run it launches (polled
     * at iteration boundaries), and additionally polls it before every
     * objective evaluation (multi-start screening included), per-subrun
     * transpilation, and the final-distribution loop (including each
     * noisy trajectory) — so a cancel or deadline lands within one
     * iteration/phase boundary. It may throw to abort runQaoa; when it
     * returns normally it never perturbs any numeric or random stream,
     * preserving the bitwise determinism contract (tested property).
     */
    std::function<void()> checkpoint;
    /**
     * Optional job trace (see obs/trace.hpp). The engine marks one
     * iteration per optimizer-phase poll (objective evaluations and
     * the optimizer's iteration boundaries), closes that fold into the
     * "optimize" span when the optimizer is done, and opens a
     * "transpile" span around the final circuits and a "sample" span
     * around the final distribution. Null costs nothing; recording
     * never perturbs a result bit.
     */
    obs::Trace *trace = nullptr;
};

/** Outcome of one solver run on one problem instance. */
struct SolverOutcome
{
    /** Normalized output distribution over the full variable space. */
    std::map<Basis, double> distribution;
    /** Optimizer iterations consumed. */
    int iterations = 0;
    /** Objective (circuit) evaluations consumed. */
    int evaluations = 0;
    /** Best cost reached by the variational loop. */
    double bestCost = 0.0;
    /** Best-so-far cost per iteration (Fig. 9a convergence curves). */
    std::vector<optimize::TracePoint> trace;
    /** Circuit depth before lowering. */
    int logicalDepth = 0;
    /** Circuit depth after transpilation to the basic basis. */
    int basisDepth = 0;
    /** Gate counts after transpilation. */
    std::size_t basisGateCount = 0;
    std::size_t basisTwoQubitCount = 0;
    /** Register width including ancillas. */
    int qubitsUsed = 0;
    /** Number of circuit instances executed per iteration. */
    int circuitsPerIteration = 1;
    /** Compilation wall time (decomposition + lowering). */
    double compileSeconds = 0.0;
    /** Simulator wall time (stand-in for quantum execution). */
    double simSeconds = 0.0;
    /** Classical optimizer wall time. */
    double classicalSeconds = 0.0;
};

/**
 * Run the variational loop: optimize every sub-run on its own, merge
 * their final distributions with equal weights, and report the
 * deployment artifacts of the circuits at the optimum.
 * compileSeconds is the engine's own build-and-transpile time; a
 * solver adds its compile time to it.
 *
 * @param subruns Circuit instances (at least one), each carrying its
 *        cost (costTable, or costDistinct/costIndex for a compact run).
 * @param opts Engine configuration.
 */
SolverOutcome runQaoa(const std::vector<SubRun> &subruns,
                      const EngineOptions &opts);

} // namespace chocoq::core

#endif // CHOCOQ_CORE_QAOA_HPP
