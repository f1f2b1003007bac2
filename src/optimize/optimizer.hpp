/**
 * @file
 * Derivative-free parameter optimizer.
 *
 * The paper updates QAOA parameters with constrained optimization by
 * linear approximation (COBYLA, [39]) for every design, and so does
 * every solver here. This module provides a from-scratch COBYLA-style
 * linear-approximation trust-region method: Powell's COBYLA
 * interpolates the objective linearly on a simplex of m+1 points and
 * moves within a shrinking trust region, which is the core mechanism
 * the paper relies on for unconstrained parameter spaces (QAOA angles).
 * The method is deterministic: equal inputs evaluate the same points in
 * the same order.
 */

#ifndef CHOCOQ_OPTIMIZE_OPTIMIZER_HPP
#define CHOCOQ_OPTIMIZE_OPTIMIZER_HPP

#include <functional>
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

/** Optimizer options. */
struct OptOptions
{
    int maxIterations = 150;
    /** Initial step / trust-region radius. */
    double initialStep = 0.5;
    /** Convergence radius: stop when the step shrinks below this. */
    double tolerance = 1e-4;
    /**
     * Optional cooperative-cancellation hook, invoked at the top of
     * every optimizer iteration (before that iteration's evaluations).
     * It may throw to abort the run; the exception propagates out of
     * cobyla() with the incumbent state discarded. When it returns
     * normally it must be side-effect-free with respect to the
     * optimization: calling it never changes iterates, so results are
     * bit-identical with or without a hook installed (tested property).
     */
    std::function<void()> checkpoint;
};

/** Minimize @p f starting from @p x0 with the linear-approximation
 * trust-region method (Powell-style COBYLA). */
OptResult cobyla(const ObjectiveFn &f, const std::vector<double> &x0,
                 const OptOptions &opts);

} // namespace chocoq::optimize

#endif // CHOCOQ_OPTIMIZE_OPTIMIZER_HPP
