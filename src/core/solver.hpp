/**
 * @file
 * Common solver interface shared by Choco-Q and the baseline designs
 * (their outcome, SolverOutcome, is what core::runQaoa returns).
 */

#ifndef CHOCOQ_CORE_SOLVER_HPP
#define CHOCOQ_CORE_SOLVER_HPP

#include <string>

#include "core/qaoa.hpp"
#include "model/problem.hpp"

namespace chocoq::core
{

/** Abstract constrained-binary-optimization solver. */
class Solver
{
  public:
    virtual ~Solver() = default;

    /** Short identifier, e.g. "choco-q", "penalty", "cyclic", "hea". */
    virtual std::string name() const = 0;

    /** Solve one instance. */
    virtual SolverOutcome solve(const model::Problem &p) const = 0;
};

} // namespace chocoq::core

#endif // CHOCOQ_CORE_SOLVER_HPP
