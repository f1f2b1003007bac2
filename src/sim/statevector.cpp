#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/subspace.hpp"

namespace chocoq::sim
{

StateVector::StateVector(int num_qubits)
    : n_(num_qubits), amp_(std::size_t{1} << num_qubits, Cplx{0.0, 0.0})
{
    CHOCOQ_ASSERT(num_qubits >= 1 && num_qubits <= 30,
                  "qubit count out of supported range");
    amp_[0] = 1.0;
}

void
StateVector::reset(Basis idx)
{
    CHOCOQ_ASSERT(idx < amp_.size(), "reset state out of range");
    std::fill(amp_.begin(), amp_.end(), Cplx{0.0, 0.0});
    amp_[idx] = 1.0;
}

void
StateVector::prepare(int num_qubits)
{
    CHOCOQ_ASSERT(num_qubits >= 1 && num_qubits <= 30,
                  "qubit count out of supported range");
    n_ = num_qubits;
    // assign() reuses the existing buffer whenever capacity suffices.
    amp_.assign(std::size_t{1} << num_qubits, Cplx{0.0, 0.0});
    amp_[0] = 1.0;
}

void
StateVector::resizeScratch(int num_qubits)
{
    CHOCOQ_ASSERT(num_qubits >= 1 && num_qubits <= 30,
                  "qubit count out of supported range");
    n_ = num_qubits;
    amp_.resize(std::size_t{1} << num_qubits);
}

void
StateVector::resizeCompact(std::size_t count)
{
    CHOCOQ_ASSERT(count >= 1, "empty compact state");
    n_ = 0;
    amp_.resize(count);
}

double
StateVector::totalProbability() const
{
    const Cplx *amp = amp_.data();
    return parallelReduce(amp_.size(),
                          [=](std::size_t i) { return std::norm(amp[i]); });
}

double
StateVector::prob(Basis idx) const
{
    CHOCOQ_ASSERT(idx < amp_.size(), "prob state out of range");
    return std::norm(amp_[idx]);
}

void
StateVector::apply1q(int q, Cplx m00, Cplx m01, Cplx m10, Cplx m11)
{
    if (counters_)
        counters_->record(obs::KernelId::Apply1q, amp_.size());
    const std::size_t stride = std::size_t{1} << q;
    Cplx *amp = amp_.data();
    // Pair t -> (i0, i1): spread t's bits around position q.
    parallelFor(amp_.size() >> 1, [=](std::size_t t) {
        const std::size_t low = t & (stride - 1);
        const std::size_t i0 = ((t - low) << 1) | low;
        const std::size_t i1 = i0 + stride;
        const Cplx a0 = amp[i0];
        const Cplx a1 = amp[i1];
        amp[i0] = m00 * a0 + m01 * a1;
        amp[i1] = m10 * a0 + m11 * a1;
    });
}

void
StateVector::applyDiagonal1q(int q, Cplx d0, Cplx d1)
{
    if (counters_)
        counters_->record(obs::KernelId::Diagonal1q, amp_.size());
    const std::size_t stride = std::size_t{1} << q;
    Cplx *amp = amp_.data();
    parallelFor(amp_.size() >> 1, [=](std::size_t t) {
        const std::size_t low = t & (stride - 1);
        const std::size_t i0 = ((t - low) << 1) | low;
        amp[i0] *= d0;
        amp[i0 + stride] *= d1;
    });
}

void
StateVector::applyControlled1q(Basis control_mask, int q, Cplx m00, Cplx m01,
                               Cplx m10, Cplx m11)
{
    CHOCOQ_ASSERT((control_mask & (Basis{1} << q)) == 0,
                  "target overlaps controls");
    if (counters_)
        counters_->record(obs::KernelId::Controlled1q,
                          amp_.size() >> popcount(control_mask));
    const Basis stride = Basis{1} << q;
    Cplx *amp = amp_.data();
    // Enumerate states with all controls 1 and the target 0; the target-1
    // partner run sits at a constant +stride offset, so both sides stream
    // contiguously.
    forEachSubspaceRun(
        freeMask(control_mask | stride), control_mask,
        [=](Basis base, std::size_t len) {
            Cplx *__restrict p0 = amp + base;
            Cplx *__restrict p1 = amp + (base + stride);
            for (std::size_t t = 0; t < len; ++t) {
                const Cplx a0 = p0[t];
                const Cplx a1 = p1[t];
                p0[t] = m00 * a0 + m01 * a1;
                p1[t] = m10 * a0 + m11 * a1;
            }
        });
}

void
StateVector::applyPhaseMask(Basis mask, double phi)
{
    if (counters_)
        counters_->record(obs::KernelId::PhaseMask,
                          amp_.size() >> popcount(mask));
    const Cplx phase{std::cos(phi), std::sin(phi)};
    Cplx *amp = amp_.data();
    forEachInSubspace(freeMask(mask), mask,
                      [=](Basis i) { amp[i] *= phase; });
}

void
StateVector::applyPairRotation(Basis support_mask, Basis v_bits, double c,
                               double s)
{
    CHOCOQ_ASSERT((v_bits & ~support_mask) == 0,
                  "v pattern outside support");
    CHOCOQ_ASSERT(support_mask != 0, "empty commute-term support");
    if (counters_)
        counters_->record(obs::KernelId::PairRotation,
                          amp_.size() >> (popcount(support_mask) - 1));
    Cplx *amp = amp_.data();
    // Enumerate only states matching the v pattern on the support; the
    // partner (v-bar pattern) is idx XOR support_mask and is updated in
    // the same step, so each pair is touched exactly once. Support bits
    // are fixed within a run, so the partner of a run is the single
    // contiguous run at base XOR support_mask. The mixing matrix
    // [[c, -i s], [-i s, c]] is written out over real components: 8
    // multiplies per pair instead of 16 for generic complex products.
    forEachSubspaceRun(
        freeMask(support_mask), v_bits, [=](Basis base, std::size_t len) {
            Cplx *__restrict pv = amp + base;
            Cplx *__restrict pw = amp + (base ^ support_mask);
            for (std::size_t t = 0; t < len; ++t) {
                const Cplx a = pv[t];
                const Cplx b = pw[t];
                pv[t] = Cplx{c * a.real() + s * b.imag(),
                             c * a.imag() - s * b.real()};
                pw[t] = Cplx{s * a.imag() + c * b.real(),
                             c * b.imag() - s * a.real()};
            }
        });
}

void
StateVector::applyPairRotationGroup(Basis support_mask, const Basis *vbits,
                                    std::size_t count, double c, double s)
{
    CHOCOQ_ASSERT(support_mask != 0, "empty commute-group support");
    for (std::size_t g = 0; g < count; ++g)
        CHOCOQ_ASSERT((vbits[g] & ~support_mask) == 0,
                      "v pattern outside group support");
    if (counters_)
        counters_->record(
            obs::KernelId::PairRotationGroup,
            count * (amp_.size() >> (popcount(support_mask) - 1)));
    Cplx *amp = amp_.data();
    // One enumeration of the free-bit runs (support bits fixed to 0 in
    // the base) serves every term of the group: term g's |v> run starts
    // at base | vbits[g] and its partner run at the same offset XOR the
    // support mask. Per term the arithmetic and visit order match
    // applyPairRotation exactly; terms interleave per run, which is
    // float-exact because group pair sets are disjoint.
    forEachSubspaceRun(
        freeMask(support_mask), 0, [=](Basis base, std::size_t len) {
            for (std::size_t g = 0; g < count; ++g) {
                Cplx *__restrict pv = amp + (base | vbits[g]);
                Cplx *__restrict pw = amp + ((base | vbits[g]) ^ support_mask);
                for (std::size_t t = 0; t < len; ++t) {
                    const Cplx a = pv[t];
                    const Cplx b = pw[t];
                    pv[t] = Cplx{c * a.real() + s * b.imag(),
                                 c * a.imag() - s * b.real()};
                    pw[t] = Cplx{s * a.imag() + c * b.real(),
                                 c * b.imag() - s * a.real()};
                }
            }
        });
}

void
StateVector::applyPhasedPairRotationGroup(Basis support_mask,
                                          const Basis *vbits,
                                          std::size_t count, double c,
                                          double s, const Cplx *phases,
                                          const std::uint16_t *index)
{
    CHOCOQ_ASSERT(support_mask != 0, "empty commute-group support");
    for (std::size_t g = 0; g < count; ++g)
        CHOCOQ_ASSERT((vbits[g] & ~support_mask) == 0,
                      "v pattern outside group support");
    Cplx *amp = amp_.data();
    const std::size_t patterns = subspaceCount(support_mask);
    if (counters_)
        counters_->record(
            obs::KernelId::PhasedPairRotationGroup,
            amp_.size()
                + count * (amp_.size() >> (popcount(support_mask) - 1)));
    // Step 1 walks the support patterns p of this span's free-bit base:
    // tiles {base | p} + [0, len) cover every index exactly once across
    // all spans (i decomposes uniquely into i & support_mask and its
    // free part). Step 2's rotations only read indices whose free part
    // lies in the same span, so they see fully phased amplitudes; and
    // since thread chunks own disjoint free-part ranges, both steps are
    // race-free under either parallel branch of forEachSubspaceRun.
    forEachSubspaceRun(
        freeMask(support_mask), 0, [=](Basis base, std::size_t len) {
            Basis p = 0;
            for (std::size_t q = 0; q < patterns; ++q) {
                Cplx *__restrict pa = amp + (base | p);
                const std::uint16_t *__restrict pi = index + (base | p);
                for (std::size_t t = 0; t < len; ++t)
                    pa[t] *= phases[pi[t]];
                p = subspaceNext(p, support_mask, 0);
            }
            for (std::size_t g = 0; g < count; ++g) {
                Cplx *__restrict pv = amp + (base | vbits[g]);
                Cplx *__restrict pw =
                    amp + ((base | vbits[g]) ^ support_mask);
                for (std::size_t t = 0; t < len; ++t) {
                    const Cplx a = pv[t];
                    const Cplx b = pw[t];
                    pv[t] = Cplx{c * a.real() + s * b.imag(),
                                 c * a.imag() - s * b.real()};
                    pw[t] = Cplx{s * a.imag() + c * b.real(),
                                 c * b.imag() - s * a.real()};
                }
            }
        });
}

void
StateVector::applySubspaceLayer(const Cplx *phases,
                                const std::uint16_t *value_index,
                                const std::uint32_t *pairs,
                                const std::uint32_t *term_offsets,
                                std::size_t term_count, double c, double s)
{
    const std::size_t rotated =
        2 * static_cast<std::size_t>(term_offsets[term_count]
                                     - term_offsets[0]);
    if (counters_)
        counters_->record(obs::KernelId::SubspaceLayer,
                          amp_.size() + rotated);
    Cplx *amp = amp_.data();
    parallelFor(amp_.size(),
                [=](std::size_t i) { amp[i] *= phases[value_index[i]]; });
    // Term order is the dense layer's order; within a term the pairs
    // are disjoint, so their split across threads changes no bit. The
    // update is applyPairRotation's real-structured expression.
    for (std::size_t t = 0; t < term_count; ++t) {
        const std::uint32_t *tp = pairs + 2 * std::size_t{term_offsets[t]};
        parallelFor(term_offsets[t + 1] - term_offsets[t],
                    [=](std::size_t p) {
                        Cplx &pv = amp[tp[2 * p]];
                        Cplx &pw = amp[tp[2 * p + 1]];
                        const Cplx a = pv;
                        const Cplx b = pw;
                        pv = Cplx{c * a.real() + s * b.imag(),
                                  c * a.imag() - s * b.real()};
                        pw = Cplx{s * a.imag() + c * b.real(),
                                  c * b.imag() - s * a.real()};
                    });
    }
}

void
StateVector::applyPhaseTable(const std::vector<double> &table, double gamma)
{
    CHOCOQ_ASSERT(table.size() == amp_.size(), "phase table size mismatch");
    if (counters_)
        counters_->record(obs::KernelId::PhaseTable, amp_.size());
    Cplx *amp = amp_.data();
    const double *tab = table.data();
    parallelFor(amp_.size(), [=](std::size_t i) {
        const double phi = -gamma * tab[i];
        amp[i] *= Cplx{std::cos(phi), std::sin(phi)};
    });
}

void
StateVector::applyPhaseTableCompressed(const std::vector<double> &distinct,
                                       const std::vector<std::uint16_t> &index,
                                       double gamma,
                                       std::vector<Cplx> &phase_scratch)
{
    CHOCOQ_ASSERT(index.size() == amp_.size(),
                  "compressed phase index size mismatch");
    if (counters_)
        counters_->record(obs::KernelId::PhaseTableCompressed, amp_.size());
    // |distinct| sincos evaluations; phi matches applyPhaseTable's
    // -gamma * value expression exactly, so expanding the table and
    // calling applyPhaseTable gives the same bits.
    phase_scratch.resize(distinct.size());
    for (std::size_t d = 0; d < distinct.size(); ++d) {
        const double phi = -gamma * distinct[d];
        phase_scratch[d] = Cplx{std::cos(phi), std::sin(phi)};
    }
    Cplx *amp = amp_.data();
    const Cplx *phases = phase_scratch.data();
    const std::uint16_t *idx = index.data();
    parallelFor(amp_.size(),
                [=](std::size_t i) { amp[i] *= phases[idx[i]]; });
}

double
StateVector::expectationTable(const std::vector<double> &table) const
{
    CHOCOQ_ASSERT(table.size() == amp_.size(),
                  "expectation table size mismatch");
    if (counters_)
        counters_->record(obs::KernelId::ExpectationTable, amp_.size());
    const Cplx *amp = amp_.data();
    const double *tab = table.data();
    return parallelReduce(amp_.size(), [=](std::size_t i) {
        return std::norm(amp[i]) * tab[i];
    });
}

double
StateVector::expectationTableCompressed(
    const std::vector<double> &distinct,
    const std::vector<std::uint16_t> &index) const
{
    return gatherExpectation(obs::KernelId::ExpectationTableCompressed,
                             distinct, index);
}

double
StateVector::expectationSubspace(
    const std::vector<double> &distinct,
    const std::vector<std::uint16_t> &index) const
{
    return gatherExpectation(obs::KernelId::ExpectationSubspace, distinct,
                             index);
}

double
StateVector::gatherExpectation(obs::KernelId id,
                               const std::vector<double> &distinct,
                               const std::vector<std::uint16_t> &index) const
{
    CHOCOQ_ASSERT(index.size() == amp_.size(),
                  "compressed expectation index size mismatch");
    if (counters_)
        counters_->record(id, amp_.size());
    const Cplx *amp = amp_.data();
    const double *dv = distinct.data();
    const std::uint16_t *idx = index.data();
    return parallelReduce(amp_.size(), [=](std::size_t i) {
        return std::norm(amp[i]) * dv[idx[i]];
    });
}

std::map<Basis, double>
StateVector::distribution(double eps) const
{
    std::map<Basis, double> out;
    const std::size_t dim = amp_.size();
    for (std::size_t i = 0; i < dim; ++i) {
        const double p = std::norm(amp_[i]);
        if (p > eps)
            out[i] = p;
    }
    return out;
}

std::size_t
StateVector::distinctStates(double eps) const
{
    std::size_t count = 0;
    for (const auto &a : amp_)
        if (std::norm(a) > eps)
            ++count;
    return count;
}

Basis
Cdf::pick(double u) const
{
    const double r = u * total_;
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), r);
    const std::size_t pos = std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative_.begin()),
        states_.size() - 1);
    return states_[pos];
}

void
StateVector::cumulate(Cdf &cdf) const
{
    cdf.clear();
    const std::size_t dim = amp_.size();
    for (std::size_t i = 0; i < dim; ++i)
        cdf.add(static_cast<Basis>(i), std::norm(amp_[i]));
}

std::map<Basis, int>
StateVector::sample(Rng &rng, int shots, double readout_flip_prob) const
{
    // Compressed cumulative distribution over the states that actually
    // carry probability — QAOA states are sharply peaked, so this is
    // usually far smaller than 2^n — then binary search per shot.
    Cdf cdf;
    cumulate(cdf);
    CHOCOQ_ASSERT(cdf.total() > 1e-9, "sampling a zero state");
    std::map<Basis, int> hist;
    drawShots(rng, shots, n_, readout_flip_prob,
              [&](double u, Basis flipped) { ++hist[cdf.pick(u) ^ flipped]; });
    return hist;
}

} // namespace chocoq::sim
