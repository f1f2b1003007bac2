/**
 * @file
 * Dense state-vector quantum simulator.
 *
 * This is the execution substrate standing in for the paper's GPU-backed
 * Python simulator. It provides generic gate kernels plus the fast paths
 * that make Choco-Q experiments cheap on a CPU:
 *  - applyPhaseTable / applyPhaseMask for objective Hamiltonians,
 *  - applyPairRotation for exact exp(-i beta Hc(u)) evolution of a commute
 *    Hamiltonian term: Choco-Q's driver and the cyclic baseline's XY
 *    mixer (XY(a, b, beta) is Hc(e_a - e_b) at 2 beta),
 *  - applyDiagonal1q for the RZ gate.
 *
 * Masked kernels enumerate only the 2^(n-k) amplitudes they transform
 * (see sim/subspace.hpp) instead of scanning all 2^n with a filter
 * branch, and all full-dimension loops honor the CHOCOQ_THREADS OpenMP
 * partitioning (see sim/parallel.hpp).
 */

#ifndef CHOCOQ_SIM_STATEVECTOR_HPP
#define CHOCOQ_SIM_STATEVECTOR_HPP

#include <complex>
#include <cstdint>
#include <map>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "obs/roofline.hpp"

namespace chocoq::sim
{

using linalg::Cplx;
using linalg::CVec;

/**
 * Cumulative distribution over the basis states that carry
 * probability, in the order they are added: the table
 * StateVector::sample draws its shots from. clear() keeps the
 * allocation, so one table serves many states.
 */
class Cdf
{
  public:
    void
    clear()
    {
        cumulative_.clear();
        states_.clear();
        total_ = 0.0;
    }

    /** Append @p idx with probability @p p; p <= 0 is skipped, so an
     * amplitude of +0 or -0 never enters. */
    void
    add(Basis idx, double p)
    {
        if (p <= 0.0)
            return;
        total_ += p;
        cumulative_.push_back(total_);
        states_.push_back(idx);
    }

    /** Sum of the added probabilities. */
    double total() const { return total_; }

    /** The state a shot's uniform draw @p u selects: the first whose
     * running sum reaches u * total() (the last on round-off). */
    Basis pick(double u) const;

  private:
    std::vector<double> cumulative_;
    std::vector<Basis> states_;
    double total_ = 0.0;
};

/**
 * The generator draws of StateVector::sample: per shot one uniform(),
 * then one chance(@p readout_flip_prob) per qubit when that is
 * positive. @p on_shot(u, flipped) receives the shot's draw and the
 * mask of the bits its readout flipped; with a no-op @p on_shot this
 * advances @p rng exactly as sample would. The draws never depend on
 * the state, which is what lets sim::NoisySampler draw first.
 */
template <class OnShot>
void
drawShots(Rng &rng, int shots, int num_qubits, double readout_flip_prob,
          OnShot &&on_shot)
{
    const bool flips = readout_flip_prob > 0.0;
    for (int s = 0; s < shots; ++s) {
        const double u = rng.uniform();
        Basis flipped = 0;
        if (flips)
            for (int q = 0; q < num_qubits; ++q)
                if (rng.chance(readout_flip_prob))
                    flipped |= Basis{1} << q;
        on_shot(u, flipped);
    }
}

/** State vector over n qubits (amplitudes indexed by Basis, bit i = x_i). */
class StateVector
{
  public:
    /** |0...0> over @p num_qubits qubits. */
    explicit StateVector(int num_qubits);

    int numQubits() const { return n_; }
    std::size_t dim() const { return amp_.size(); }

    const CVec &amplitudes() const { return amp_; }
    CVec &amplitudes() { return amp_; }

    /** Reset to the computational basis state |idx>. */
    void reset(Basis idx = 0);

    /**
     * Re-dimension to @p num_qubits qubits and reset to |0...0>. Reuses
     * the existing allocation whenever capacity allows, so a scratch
     * state cycled through repeated objective evaluations performs no
     * steady-state heap allocation.
     */
    void prepare(int num_qubits);

    /**
     * Re-dimension to @p num_qubits qubits leaving the amplitudes
     * unspecified (same allocation reuse as prepare). For callers that
     * immediately establish their own initial state via reset() — skips
     * prepare's redundant zero-fill sweep on the hot loop.
     */
    void resizeScratch(int num_qubits);

    /**
     * Re-dimension to @p count amplitudes in the compact layout of the
     * feasible-subspace backend (core/feasible_subspace.hpp): amplitude
     * i stands for the i-th state of a caller-held ascending basis list.
     * Amplitudes are left unspecified (as resizeScratch) and the
     * allocation is reused. numQubits() reads 0 until the next
     * prepare/resizeScratch; on a compact state only reset, prob,
     * totalProbability, distribution, sample without readout flips and
     * the subspace kernels are meaningful.
     */
    void resizeCompact(std::size_t count);

    /**
     * Attach (or detach, with nullptr) a kernel counter sink. The same
     * zero-cost-when-null contract as the service's Trace*: a null sink
     * costs one predictable branch per kernel *invocation*, never per
     * amplitude, and amplitudes are bit-identical either way. Each
     * kernel records once on the calling thread before its OpenMP
     * region opens, so the sink needs no synchronization as long as it
     * is attached to the states of one job at a time (the engine
     * attaches per job; see core::runQaoa).
     */
    void setCounterSink(obs::KernelCounterSink *sink) { counters_ = sink; }
    obs::KernelCounterSink *counterSink() const { return counters_; }

    /** Squared-norm of the state (should stay 1 within round-off). */
    double totalProbability() const;

    /** Probability of basis state idx. */
    double prob(Basis idx) const;

    /** Apply a general single-qubit gate given row-major 2x2 entries. */
    void apply1q(int q, Cplx m00, Cplx m01, Cplx m10, Cplx m11);

    /** Apply the diagonal gate diag(d0, d1) on qubit @p q (RZ). */
    void applyDiagonal1q(int q, Cplx d0, Cplx d1);

    /**
     * Apply a single-qubit gate on @p q controlled on every qubit in
     * @p control_mask being |1>.
     */
    void applyControlled1q(Basis control_mask, int q, Cplx m00, Cplx m01,
                           Cplx m10, Cplx m11);

    /** Multiply amplitudes of states with (idx & mask) == mask by e^{i phi}. */
    void applyPhaseMask(Basis mask, double phi);

    /**
     * Fast diagonal-Hamiltonian phase: amp[i] *= exp(-i gamma table[i]).
     * @param table Precomputed eigenvalues, one per basis state.
     */
    void applyPhaseTable(const std::vector<double> &table, double gamma);

    /**
     * Value-compressed variant of applyPhaseTable: the eigenvalue table
     * is stored as its distinct values plus a per-basis-state index, so
     * the sweep performs |distinct| sincos evaluations instead of 2^n
     * (objective tables typically hold few distinct eigenvalues). The
     * per-amplitude arithmetic is exp(-i gamma distinct[index[i]]) with
     * the identical phi = -gamma * value expression, so the result is
     * bit-identical to applyPhaseTable on the expanded table.
     *
     * @param distinct Distinct eigenvalues (exact doubles).
     * @param index Per-basis-state index into @p distinct (dim entries).
     * @param gamma Evolution angle.
     * @param phase_scratch Caller-owned buffer for the per-value phases;
     *        resized to distinct.size() and reusable across calls so the
     *        hot loop performs no steady-state allocation.
     */
    void applyPhaseTableCompressed(const std::vector<double> &distinct,
                                   const std::vector<std::uint16_t> &index,
                                   double gamma,
                                   std::vector<Cplx> &phase_scratch);

    /**
     * Exact evolution exp(-i beta Hc(u)) of one commute-Hamiltonian term,
     * with the trigonometry precomputed: @p c = cos(beta),
     * @p s = sin(beta).
     *
     * @param support_mask Bits where u is non-zero.
     * @param v_bits Pattern (1+u)/2 on the support (bits outside must be 0).
     *
     * For every assignment of the complement qubits, the pair
     * |v> / |v-bar> rotates by [[c, -i s], [-i s, c]]; all other states
     * are untouched (Hc annihilates them). Taking (c, s) lets a layer of
     * commute terms sharing one beta pay for sincos once (see
     * core::applyCommuteLayer), and the real/imaginary structure halves
     * the multiply count versus generic complex arithmetic. The XY gate
     * exp(-i beta (X_a X_b + Y_a Y_b)) is this kernel on support
     * {a, b}, v = e_a, at (cos 2 beta, sin 2 beta).
     */
    void applyPairRotation(Basis support_mask, Basis v_bits, double c,
                           double s);

    /**
     * Apply @p count pair rotations sharing one support mask in a single
     * subspace sweep (fused commute-layer groups): the free-bit runs are
     * enumerated once and every term's pair is rotated while the run's
     * cache lines are hot. The terms' pair sets must be pairwise
     * disjoint — no vbits[a] equal to vbits[b] or to vbits[b] XOR
     * support_mask — which makes the result bit-identical to applying
     * the rotations one term at a time (disjoint-memory operations
     * commute exactly); core::buildFusedLayerPlan enforces this when
     * forming groups.
     */
    void applyPairRotationGroup(Basis support_mask, const Basis *vbits,
                                std::size_t count, double c, double s);

    /**
     * Fused objective-phase gather + commute-group sweep: within each
     * enumerated free-bit span of @p support_mask, first multiply every
     * support-pattern tile by its compressed phase factor
     * phases[index[i]] (the LUT layout of applyPhaseTableCompressed),
     * then rotate every term's pairs with (c, s). The pattern tiles
     * partition the index space exactly once across spans and every
     * amplitude a rotation reads was phased in the same span, so the
     * result is bit-identical to applyPhaseTableCompressed followed by
     * applyPairRotationGroup — while saving one full read+write sweep
     * of the state per fused layer.
     */
    void applyPhasedPairRotationGroup(Basis support_mask,
                                      const Basis *vbits, std::size_t count,
                                      double c, double s, const Cplx *phases,
                                      const std::uint16_t *index);

    /**
     * One Choco-Q layer on a compact state (see resizeCompact): first
     * amp[i] *= phases[value_index[i]] for every i, then for each term
     * t in order and each pair p in [term_offsets[t],
     * term_offsets[t+1]), the rotation [[c, -i s], [-i s, c]] of
     * (amp[pairs[2p]], amp[pairs[2p+1]]), the first index holding the
     * term's |v> state. Per amplitude these are the multiplies, in the
     * same order and with the same expressions, of
     * applyPhaseTableCompressed followed by one applyPairRotation per
     * term on the dense state; on a set closed under every term
     * (amplitude outside it exactly zero) the result is bit-identical
     * to the dense layer restricted to the set, at any thread count.
     * A term's pairs must be pairwise disjoint and every index below
     * dim(); @p term_offsets has term_count + 1 entries.
     */
    void applySubspaceLayer(const Cplx *phases,
                            const std::uint16_t *value_index,
                            const std::uint32_t *pairs,
                            const std::uint32_t *term_offsets,
                            std::size_t term_count, double c, double s);

    /** Expectation of a precomputed diagonal observable table. */
    double expectationTable(const std::vector<double> &table) const;

    /**
     * Value-compressed expectation: the observable table is stored as
     * its distinct values plus a per-basis-state index (the layout of
     * applyPhaseTableCompressed). The per-amplitude contribution is
     * |amp|^2 * distinct[index[i]] summed in the identical reduce
     * order, so the result is bit-identical to expectationTable on the
     * expanded table — while reading 2 bytes per amplitude of
     * observable data instead of 8.
     */
    double
    expectationTableCompressed(const std::vector<double> &distinct,
                               const std::vector<std::uint16_t> &index) const;

    /**
     * expectationTableCompressed on a compact state (see resizeCompact):
     * @p index holds one entry per set state. Reduced in ascending
     * index order at one thread, so when the set is sorted by basis
     * index the sum meets the dense sweep's nonzero terms in the same
     * order, and the zero terms it skips leave a sum unchanged.
     */
    double
    expectationSubspace(const std::vector<double> &distinct,
                        const std::vector<std::uint16_t> &index) const;

    /** Exact probability distribution restricted to |amp|^2 > eps. */
    std::map<Basis, double> distribution(double eps = 1e-12) const;

    /** Number of basis states with probability above @p eps (Fig. 9b). */
    std::size_t distinctStates(double eps = 1e-9) const;

    /** Refill @p cdf with every amplitude's probability in ascending
     * index order: the table sample() draws from. */
    void cumulate(Cdf &cdf) const;

    /**
     * Sample measurement shots.
     * @param rng Random source.
     * @param shots Number of samples.
     * @param readout_flip_prob Per-bit readout error probability.
     * @return Histogram basis -> count.
     */
    std::map<Basis, int> sample(Rng &rng, int shots,
                                double readout_flip_prob = 0.0) const;

  private:
    /** The uint16-gather reduction behind both compressed expectations,
     * recorded under @p id. */
    double gatherExpectation(obs::KernelId id,
                             const std::vector<double> &distinct,
                             const std::vector<std::uint16_t> &index) const;

    /** Free (spectator) bit mask complementing @p fixed_mask. */
    Basis freeMask(Basis fixed_mask) const
    {
        return (amp_.size() - 1) & ~fixed_mask;
    }

    int n_;
    CVec amp_;

    /** Optional kernel-mix sink (see setCounterSink); never owned. */
    obs::KernelCounterSink *counters_ = nullptr;
};

} // namespace chocoq::sim

#endif // CHOCOQ_SIM_STATEVECTOR_HPP
