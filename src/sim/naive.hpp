/**
 * @file
 * Naive full-scan reference kernels — the pre-subspace-enumeration
 * implementations, kept verbatim as the single source of truth for both
 * the kernel property tests (amplitude-exactness against the fast
 * paths) and the micro-benchmarks (speedup baselines) — plus the dense
 * noisy-trajectory loop that sim::executeNoisy's tracked support is
 * checked against, and the per-trajectory sampling loop that
 * sim::NoisySampler's shared prefix is checked against. Not used by the
 * library itself.
 */

#ifndef CHOCOQ_SIM_NAIVE_HPP
#define CHOCOQ_SIM_NAIVE_HPP

#include <cmath>
#include <map>

#include "circuit/circuit.hpp"
#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "sim/executor.hpp"
#include "sim/statevector.hpp"

namespace chocoq::sim::naive
{

using linalg::Cplx;
using linalg::CVec;

/** exp(-i beta Hc(u)) pair rotation, branch-per-state scan. */
inline void
pairRotation(CVec &amp, Basis support, Basis v, double beta)
{
    const Cplx c{std::cos(beta), 0.0};
    const Cplx ms{0.0, -std::sin(beta)};
    for (std::size_t i = 0; i < amp.size(); ++i) {
        if ((i & support) != v)
            continue;
        const std::size_t j = i ^ support;
        const Cplx a = amp[i];
        const Cplx b = amp[j];
        amp[i] = c * a + ms * b;
        amp[j] = ms * a + c * b;
    }
}

/** e^{i phi} on states with all mask bits set, branch-per-state scan. */
inline void
phaseMask(CVec &amp, Basis mask, double phi)
{
    const Cplx phase{std::cos(phi), std::sin(phi)};
    for (std::size_t i = 0; i < amp.size(); ++i)
        if ((i & mask) == mask)
            amp[i] *= phase;
}

/** Controlled single-qubit gate, filtered strided scan. */
inline void
controlled1q(CVec &amp, Basis control_mask, int q, Cplx m00, Cplx m01,
             Cplx m10, Cplx m11)
{
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amp.size(); base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            if ((i0 & control_mask) != control_mask)
                continue;
            const std::size_t i1 = i0 + stride;
            const Cplx a0 = amp[i0];
            const Cplx a1 = amp[i1];
            amp[i0] = m00 * a0 + m01 * a1;
            amp[i1] = m10 * a0 + m11 * a1;
        }
    }
}

/**
 * One noisy trajectory over the full register: sim::applyGate per gate,
 * then per operand a Pauli error drawn exactly as sim::executeNoisy
 * draws it. The same state and generator must give the same
 * probabilities and the same next generator output on both.
 */
inline void
executeNoisy(StateVector &state, const circuit::Circuit &c,
             const NoiseModel &noise, Rng &rng)
{
    CHOCOQ_ASSERT(state.numQubits() >= c.numQubits(),
                  "state narrower than circuit");
    for (const auto &g : c.gates()) {
        applyGate(state, g);
        const double p = g.qubits.size() >= 2 ? noise.p2q : noise.p1q;
        if (p <= 0.0)
            continue;
        for (int q : g.qubits) {
            if (!rng.chance(p))
                continue;
            switch (rng.intIn(0, 2)) {
              case 0:
                state.apply1q(q, 0, 1, 1, 0); // X
                break;
              case 1:
                state.apply1q(q, 0, Cplx{0, -1}, Cplx{0, 1}, 0); // Y
                break;
              default:
                state.apply1q(q, 1, 0, 0, -1); // Z
                break;
            }
        }
    }
}

/**
 * Shots from @p trajectories noisy trajectories of @p c, each run from
 * |0> by naive::executeNoisy and sampled for @p shots shots with
 * noise.readout flips, one after the other on one generator. The
 * histogram over c's register and the next generator output must
 * equal sim::NoisySampler::sample's for the same arguments.
 */
inline std::map<Basis, int>
sampleNoisy(const circuit::Circuit &c, const NoiseModel &noise,
            int trajectories, int shots, Rng &rng)
{
    std::map<Basis, int> counts;
    StateVector state(c.numQubits());
    for (int t = 0; t < trajectories; ++t) {
        state.prepare(c.numQubits());
        naive::executeNoisy(state, c, noise, rng);
        for (const auto &[x, cnt] : state.sample(rng, shots, noise.readout))
            counts[x] += cnt;
    }
    return counts;
}

} // namespace chocoq::sim::naive

#endif // CHOCOQ_SIM_NAIVE_HPP
