/**
 * @file
 * Derivative-free optimizer interface.
 *
 * The paper updates QAOA parameters with constrained optimization by
 * linear approximation (COBYLA, [39]) for every design. This module
 * provides a from-scratch COBYLA-style linear-approximation trust-region
 * method plus two widely used alternatives (Nelder-Mead, SPSA) for the
 * ablation and robustness experiments.
 */

#ifndef CHOCOQ_OPTIMIZE_OPTIMIZER_HPP
#define CHOCOQ_OPTIMIZE_OPTIMIZER_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace chocoq::optimize
{

/** Objective callback: parameters -> scalar cost (to minimize). */
using ObjectiveFn = std::function<double(const std::vector<double> &)>;

/** Per-iteration trace entry. */
struct TracePoint
{
    int iteration = 0;
    double best = 0.0;
};

/** Optimization outcome. */
struct OptResult
{
    std::vector<double> best;
    double bestValue = 0.0;
    /** Number of objective evaluations consumed. */
    int evaluations = 0;
    /** Number of optimizer iterations performed. */
    int iterations = 0;
    /** Best-so-far value after each iteration (convergence curves). */
    std::vector<TracePoint> trace;
};

/** Common options. */
struct OptOptions
{
    int maxIterations = 150;
    /** Initial step / trust-region radius. */
    double initialStep = 0.5;
    /** Convergence radius: stop when the step shrinks below this. */
    double tolerance = 1e-4;
    /** Seed for stochastic methods (SPSA). */
    std::uint64_t seed = 1;
    /**
     * Optional cooperative-cancellation hook, invoked at the top of
     * every optimizer iteration (before that iteration's evaluations).
     * It may throw to abort the run; the exception propagates out of
     * OptimizerRun::supply() and minimize() with the incumbent state
     * discarded. When it returns normally it must be side-effect-free
     * with respect to the optimization: calling it never changes
     * iterates or random streams, so results are bit-identical with or
     * without a hook installed (tested property).
     */
    std::function<void()> checkpoint;
};

/**
 * Resumable optimizer execution (step machine). A run exposes the next
 * parameter point it needs evaluated; the driver computes f(pending())
 * and feeds the value back through supply(), which advances the
 * internal state machine to the next point or to completion.
 * Optimizer::minimize is that driver, with one synchronous evaluation
 * per pending point.
 *
 * The machine performs exactly the computation of the corresponding
 * sequential algorithm in exactly the same order (iterate updates,
 * random draws, trace pushes, checkpoint invocations at iteration
 * tops). OptOptions::checkpoint fires inside supply() at iteration
 * boundaries and may throw; the run is then unusable except for
 * result().
 */
class OptimizerRun
{
  public:
    virtual ~OptimizerRun() = default;

    /** True once the run has produced its final result. */
    virtual bool finished() const = 0;

    /** Parameter point awaiting evaluation (valid while !finished();
     * invalidated by the next supply call). */
    virtual const std::vector<double> &pending() const = 0;

    /** Feed back f(pending()); advances to the next point or finishes. */
    virtual void supply(double value) = 0;

    /** Accumulated result; final once finished(). */
    virtual const OptResult &result() const = 0;
};

/** Abstract derivative-free minimizer. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Algorithm name for reports. */
    virtual std::string name() const = 0;

    /** Begin a resumable run from @p x0 (performs no evaluations; the
     * first pending() is the initial point the algorithm probes). */
    virtual std::unique_ptr<OptimizerRun>
    start(const std::vector<double> &x0, const OptOptions &opts) const = 0;

    /** Minimize @p f starting from @p x0: drives start() to completion
     * with one synchronous evaluation per pending point. */
    OptResult minimize(const ObjectiveFn &f, const std::vector<double> &x0,
                       const OptOptions &opts) const;
};

/**
 * Factory by name: "cobyla", "nelder-mead", or "spsa".
 *
 * @param seed Explicit construction seed for stochastic methods, so a
 * caller running many jobs concurrently gets bit-identical results for
 * identical (job, seed) pairs regardless of scheduling order. With 0
 * (the default for direct construction) stochastic streams draw from
 * OptOptions::seed alone; the engine always passes its
 * EngineOptions::seed, so engine-driven SPSA streams are determined by
 * (engine seed, options seed) jointly. Deterministic methods ignore it
 * either way.
 */
std::unique_ptr<Optimizer> makeOptimizer(const std::string &name,
                                         std::uint64_t seed = 0);

} // namespace chocoq::optimize

#endif // CHOCOQ_OPTIMIZE_OPTIMIZER_HPP
