/**
 * @file
 * The Choco-Q solver: commute-Hamiltonian QAOA with serialization,
 * equivalent decomposition, and variable elimination (Sections III, IV).
 */

#ifndef CHOCOQ_CORE_CHOCOQ_SOLVER_HPP
#define CHOCOQ_CORE_CHOCOQ_SOLVER_HPP

#include <memory>

#include "core/commute.hpp"
#include "core/eliminate.hpp"
#include "core/feasible_subspace.hpp"
#include "core/layer_fusion.hpp"
#include "core/movebasis.hpp"
#include "core/solver.hpp"
#include "model/polynomial.hpp"

namespace chocoq::core
{

/** Choco-Q configuration. */
struct ChocoQOptions
{
    /** Number of alternating layers L in Eq. 7 (the paper deploys 1). */
    int layers = 1;
    /** Variables to eliminate (Table II runs with 1). */
    int eliminate = 1;
    /**
     * Move-set enrichment factor: the driver uses up to
     * moveSetFactor x (n - rank) moves from expandMoveSet (the paper's
     * Delta is "all valid solutions of C u = 0"; the basis alone mixes
     * too slowly in one serialized pass). 1 = basis only.
     */
    std::size_t moveSetFactor = 3;
    /**
     * Fig. 14 ablation hook ("Opt1 without Opt2"): pad every built
     * circuit with identity CX pairs until its gate count matches what a
     * GENERIC two-level synthesis of each local commute unitary would
     * cost. The unitary is unchanged; depth and noise exposure reflect
     * the unoptimized decomposition.
     */
    bool genericSynthesisPadding = false;
    EngineOptions engine;
};

/** One compiled sub-instance (fixed assignment of eliminated vars). */
struct CompiledSub
{
    /** Data-qubit count (kept variables). */
    int numQubits = 0;
    /** Feasible initial basis state of the reduced instance. */
    Basis init = 0;
    /** Assignment bits of the eliminated variables (plan order). */
    Basis assignment = 0;
    /** Reduced minimization-form objective. */
    std::shared_ptr<const model::Polynomial> objective;
    /** Commute terms of the reduced move set. */
    std::shared_ptr<const std::vector<CommuteTerm>> terms;
    /** Objective eigenvalue per reduced basis state. */
    std::shared_ptr<const std::vector<double>> costTable;
    /**
     * Layer fusion plan (compressed objective phase + grouped commute
     * sweeps); null when the solver compiled with engine.fusion off.
     * Structure-derived like every other artifact piece, so it is built
     * once in compile() and shared read-only across jobs.
     */
    std::shared_ptr<const FusedLayerPlan> fusedPlan;
    /**
     * Feasible-subspace plan (reachable set, per-term compact pairs,
     * compressed objective over the set); built with fusion on when
     * selectFeasibleSubspace's rule picks it, in which case the
     * functional path evolves only the reachable states. Null keeps the
     * dense fused plan in charge.
     */
    std::shared_ptr<const FeasibleSubspace> subspace;
    /** Fig. 14 ablation: identity-CX pairs padded per ansatz layer. */
    std::size_t padPairs = 0;
};

/**
 * Everything ChocoQSolver::solve derives from the problem *structure*
 * (constraint matrix + objective polynomial) and the compile-relevant
 * options: the elimination plan plus, per feasible assignment of the
 * eliminated variables, the reduced objective, its eigenvalue table, and
 * the commute terms of the reduced move set. Immutable once compile()
 * returns, so a compilation cache can hand one instance to many
 * concurrent jobs (the variational run only reads it).
 */
struct ChocoQArtifacts
{
    EliminationPlan plan;
    std::vector<CompiledSub> subs;
    /** Compilation wall time. */
    double seconds = 0.0;

    /**
     * Approximate heap footprint of the artifacts (tables, terms, fusion
     * plans, reduced objectives). Used by the compilation cache's LRU
     * byte budget; an estimate, not an allocator-exact count.
     */
    std::size_t memoryBytes() const;
};

/** Commute-Hamiltonian QAOA solver. */
class ChocoQSolver : public Solver
{
  public:
    explicit ChocoQSolver(ChocoQOptions opts = {});

    std::string name() const override { return "choco-q"; }

    SolverOutcome solve(const model::Problem &p) const override;

    /**
     * Compile @p p into shareable artifacts (see ChocoQArtifacts).
     * Throws FatalError when no assignment of the eliminated variables
     * is feasible.
     */
    std::shared_ptr<const ChocoQArtifacts>
    compile(const model::Problem &p) const;

    /**
     * Variational run on precompiled artifacts. @p art must come from
     * compile() on a problem with identical constraints and objective
     * and from a solver with identical compile-relevant options
     * (eliminate, moveSetFactor, genericSynthesisPadding) — the
     * service's compilation cache guarantees this by keying on exactly
     * those inputs. solve(p) == solveCompiled(p, *compile(p)) bit for
     * bit. The run reads only @p art: every sub-run is measured against
     * its compiled cost table.
     */
    SolverOutcome solveCompiled(const model::Problem &p,
                                const ChocoQArtifacts &art) const;

    const ChocoQOptions &options() const { return opts_; }

  private:
    ChocoQOptions opts_;
};

} // namespace chocoq::core

#endif // CHOCOQ_CORE_CHOCOQ_SOLVER_HPP
