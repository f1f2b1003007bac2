/**
 * @file
 * Feasible-subspace backend for the functional Choco-Q layer.
 *
 * A commute term exp(-i beta Hc(u)) mixes x with x XOR supportMask only
 * when x carries u's v (or v-bar) pattern on the support — x and x + u
 * with C u = 0 — and fixes every other basis state. Starting from the
 * feasible init, noiseless Choco-Q therefore never leaves the set R of
 * states the move set reaches from init (the paper's in-constraints
 * guarantee), and on the registry R holds tens of states out of 2^k.
 * The plan built here enumerates R once at compile time and re-expresses
 * one ansatz layer over it:
 *
 *  - states: R sorted by basis index (compact index -> basis state);
 *  - per commute term, in term order, its pairs as compact indices;
 *  - the objective over R, value-compressed like FusedLayerPlan.
 *
 * The layer (sim::StateVector::applySubspaceLayer) gives every state of
 * R the multiplies of the dense layer in the same order, amplitudes
 * outside R stay exactly zero on the dense path, and the expectation
 * sums R in ascending basis order — so at one kernel thread the backend
 * is bit-identical to the dense paths (tests/test_subspace.cpp). See
 * docs/simulator.md ("Feasible-subspace backend").
 */

#ifndef CHOCOQ_CORE_FEASIBLE_SUBSPACE_HPP
#define CHOCOQ_CORE_FEASIBLE_SUBSPACE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/commute.hpp"
#include "sim/statevector.hpp"

namespace chocoq::core
{

/**
 * Selection constant: one set state of the subspace layer costs about
 * as much as this many amplitudes of the dense fused layer (bench_micro
 * BM_ChocoLayerSubspace vs BM_ChocoLayerDense, docs/simulator.md). A
 * sub-instance takes the backend iff |R| * kDenseAmpsPerSubspaceState
 * <= 2^k.
 */
constexpr std::size_t kDenseAmpsPerSubspaceState = 8;

/** Per-sub-instance subspace plan (immutable, shareable across jobs). */
struct FeasibleSubspace
{
    /** Reachable states in ascending basis order. */
    std::vector<Basis> states;
    /** Compact index of the sub-instance's init state. */
    std::uint32_t initIndex = 0;
    /** Compact index pairs {v-side, partner}, flattened, term by term;
     * within a term in ascending v-side order. */
    std::vector<std::uint32_t> pairs;
    /** Term t owns pairs [termOffsets[t], termOffsets[t+1]) (terms + 1
     * entries, counted in pairs). */
    std::vector<std::uint32_t> termOffsets;
    /** Distinct objective values over the set (first-seen order). */
    std::vector<double> distinctValues;
    /** Per-set-state index into distinctValues. */
    std::vector<std::uint16_t> valueIndex;

    /** Approximate heap footprint (compile-cache byte accounting). */
    std::size_t memoryBytes() const;
};

/**
 * Enumerate the states reachable from @p init under @p terms by BFS and
 * build the plan. @p cost_table is the objective eigenvalue table over
 * the reduced basis states. Returns nullopt once more than @p max_states
 * states are reachable, or when the set's objective values do not
 * value-compress.
 */
std::optional<FeasibleSubspace>
buildFeasibleSubspace(Basis init, const std::vector<CommuteTerm> &terms,
                      const std::vector<double> &cost_table,
                      std::size_t max_states);

/**
 * The compile-time selection rule: the plan when the reachable set
 * holds at most 2^k / kDenseAmpsPerSubspaceState states (k from
 * @p cost_table's size), otherwise null — the dense fused plan stays in
 * charge. The BFS stops at that bound, so an instance whose set is too
 * large costs at most that many states of enumeration.
 */
std::shared_ptr<const FeasibleSubspace>
selectFeasibleSubspace(Basis init, const std::vector<CommuteTerm> &terms,
                       const std::vector<double> &cost_table);

/**
 * One ansatz layer exp(-i gamma H_o) then the commute driver on a
 * compact state of fs.states.size() amplitudes. @p phase_scratch is the
 * caller-owned per-distinct-value phase buffer (no steady-state
 * allocation).
 */
void applySubspaceLayer(sim::StateVector &state, const FeasibleSubspace &fs,
                        double gamma, double beta,
                        std::vector<sim::Cplx> &phase_scratch);

} // namespace chocoq::core

#endif // CHOCOQ_CORE_FEASIBLE_SUBSPACE_HPP
