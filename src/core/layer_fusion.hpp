/**
 * @file
 * Compile-time fusion plan for the functional QAOA layer.
 *
 * One Choco-Q ansatz layer is exp(-i gamma H_o) followed by the
 * serialized commute driver prod_u exp(-i beta Hc(u)). Both halves admit
 * a structural fusion that is computed once per compiled sub-instance
 * (it depends only on the objective table and the move set, exactly the
 * inputs the compilation cache keys on) and reused by every objective
 * evaluation:
 *
 *  - Diagonal half: the objective eigenvalue table is value-compressed
 *    into its distinct values plus a per-basis-state uint16 index, so
 *    the per-layer phase sweep performs |distinct| sincos evaluations
 *    instead of 2^k (the sweep is sincos-bound: ~11 ns/amp vs ~1 ns/amp
 *    for the gather — see bench_micro BM_PhaseTable vs
 *    BM_FusedPhaseTable). Bit-identical to the uncompressed sweep.
 *
 *  - Commute half: consecutive terms sharing a support mask and having
 *    pairwise-disjoint pair sets are grouped; each group applies in a
 *    single enumeration of the shared free-bit runs
 *    (sim::StateVector::applyPairRotationGroup). Bit-identical to the
 *    term-at-a-time layer because disjoint-memory operations reorder
 *    exactly.
 *
 * Both halves fall back to the unfused kernels when the structure does
 * not qualify (more than 65536 distinct eigenvalues; no shared masks),
 * so a plan always exists and always produces the same bits as the
 * unfused path. See docs/simulator.md ("Gate fusion").
 */

#ifndef CHOCOQ_CORE_LAYER_FUSION_HPP
#define CHOCOQ_CORE_LAYER_FUSION_HPP

#include <cstdint>
#include <vector>

#include "core/commute.hpp"
#include "sim/statevector.hpp"

namespace chocoq::core
{

/** Consecutive commute terms sharing one support mask (order preserved,
 * pair sets pairwise disjoint). */
struct CommuteGroup
{
    Basis supportMask = 0;
    /** v patterns of the grouped terms, in original term order. */
    std::vector<Basis> vBits;
};

/** Per-sub-instance fusion plan (immutable, shareable across jobs). */
struct FusedLayerPlan
{
    /** True when the objective table was value-compressed. */
    bool compressedPhase = false;
    /** Distinct objective eigenvalues (exact doubles, first-seen order). */
    std::vector<double> distinctValues;
    /** Per-basis-state index into distinctValues (2^k entries). */
    std::vector<std::uint16_t> valueIndex;

    /** Commute-layer groups covering every term in original order. */
    std::vector<CommuteGroup> groups;
    /** Total terms across groups (= move-set size). */
    std::size_t termCount = 0;

    /** Approximate heap footprint (compile-cache byte accounting). */
    std::size_t memoryBytes() const;
};

/**
 * Value-compress @p values into its distinct values (exact doubles,
 * first-seen order) plus a per-entry uint16 index, as the plan's
 * diagonal half does. Returns false, leaving both outputs unspecified,
 * when @p values is empty or holds more than 65536 distinct values.
 */
bool compressValues(const std::vector<double> &values,
                    std::vector<double> &distinct,
                    std::vector<std::uint16_t> &index);

/**
 * Build the plan for one compiled sub-instance. @p cost_table is the
 * objective eigenvalue table over the reduced basis states; @p terms is
 * the reduced move set in serialization order.
 */
FusedLayerPlan buildFusedLayerPlan(const std::vector<double> &cost_table,
                                   const std::vector<CommuteTerm> &terms);

/**
 * Fused exp(-i gamma H_o): the compressed-table sweep when the plan
 * qualifies, otherwise the plain applyPhaseTable on @p cost_table.
 * @p phase_scratch is the caller-owned per-distinct-value phase buffer
 * (reused across evaluations; no steady-state allocation).
 */
void applyFusedObjectivePhase(sim::StateVector &state,
                              const FusedLayerPlan &plan,
                              const std::vector<double> &cost_table,
                              double gamma,
                              std::vector<sim::Cplx> &phase_scratch);

/**
 * Fused commute layer prod_u exp(-i beta Hc(u)): one sincos for the
 * shared angle, then one grouped sweep per CommuteGroup. Bit-identical
 * to applyCommuteLayer on the plan's source terms.
 */
void applyFusedCommuteLayer(sim::StateVector &state,
                            const FusedLayerPlan &plan, double beta);

/**
 * One whole fused ansatz layer exp(-i gamma H_o) then the commute
 * driver. When the plan's objective table is value-compressed and at
 * least one commute group exists, the objective-phase gather is folded
 * into the first group's subspace sweep
 * (sim::StateVector::applyPhasedPairRotationGroup) — saving one full
 * read+write pass over the state per layer; otherwise falls back to
 * applyFusedObjectivePhase + applyFusedCommuteLayer. Bit-identical to
 * the two-call sequence in either case.
 */
void applyFusedLayer(sim::StateVector &state, const FusedLayerPlan &plan,
                     const std::vector<double> &cost_table, double gamma,
                     double beta, std::vector<sim::Cplx> &phase_scratch);

} // namespace chocoq::core

#endif // CHOCOQ_CORE_LAYER_FUSION_HPP
