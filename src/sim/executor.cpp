#include "sim/executor.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace chocoq::sim
{

namespace
{

using circuit::Gate;
using circuit::GateType;

constexpr double kInvSqrt2 = 0.70710678118654752440;

Basis
maskOf(const std::vector<int> &qubits, std::size_t from, std::size_t to)
{
    Basis mask = 0;
    for (std::size_t i = from; i < to; ++i)
        mask |= Basis{1} << qubits[i];
    return mask;
}

/** Row-major entries of a Pauli error, in rng.intIn(0, 2) order. */
struct Pauli
{
    Cplx m00, m01, m10, m11;
};

const Pauli kPaulis[3] = {
    {0, 1, 1, 0},                     // X
    {0, Cplx{0, -1}, Cplx{0, 1}, 0},  // Y
    {1, 0, 0, -1},                    // Z
};

/**
 * Past dim / kDenseSwitchDivisor listed indices a trajectory finishes on
 * the dense kernels, which stream the buffer instead of gathering
 * through the list. Choco-Q trajectories stay under it (at most 16 of
 * 128 amplitudes on F1, 1,024 of 131,072 on K2); the penalty and HEA
 * baselines cross it within their first ansatz layer.
 */
constexpr std::size_t kDenseSwitchDivisor = 8;

/**
 * Support tracking for one noisy trajectory on a caller-owned dense
 * state. The list holds every index whose amplitude may be nonzero
 * (every amplitude off it is +0 or -0), and a byte per index marks
 * membership. Each update evaluates the matching StateVector kernel's
 * per-amplitude expression on the same amplitudes, so every amplitude
 * equals the dense path's as a double (only the sign of a zero can
 * differ) and every probability is bit-identical.
 */
class TrackedSupport
{
  public:
    /** List the nonzero amplitudes of @p state; past the dense switch
     * the whole trajectory runs on the dense kernels. */
    explicit TrackedSupport(StateVector &state)
        : state_(state), limit_(state.dim() / kDenseSwitchDivisor)
    {
        const CVec &amp = state.amplitudes();
        // A pair gate at most doubles the list before compaction, so
        // this capacity serves the whole trajectory.
        list_.reserve(2 * limit_);
        for (std::size_t i = 0; i < amp.size(); ++i)
            if (amp[i] != Cplx{}) {
                if (list_.size() == limit_)
                    return;
                list_.push_back(static_cast<std::uint32_t>(i));
            }
        listed_.assign(amp.size(), 0);
        for (const std::uint32_t i : list_)
            listed_[i] = 1;
        active_ = true;
    }

    /** False once the trajectory runs on the dense kernels. */
    bool active() const { return active_; }

    /**
     * Apply @p g on the list if it is one of the lowered gate types
     * (H, X, RZ, CX, CZ) or a barrier. Any other gate returns false
     * untouched and hands the rest of the trajectory to the dense
     * kernels. Arguments match applyGate's calls.
     */
    bool
    tryApply(const Gate &g)
    {
        switch (g.type) {
          case GateType::H:
            pair(0, g.qubits[0], kInvSqrt2, kInvSqrt2, kInvSqrt2,
                 -kInvSqrt2, obs::KernelId::Apply1q);
            return true;
          case GateType::X:
            pair(0, g.qubits[0], 0, 1, 1, 0, obs::KernelId::Apply1q);
            return true;
          case GateType::RZ: {
            const Cplx em{std::cos(g.param / 2), -std::sin(g.param / 2)};
            diagonal1q(g.qubits[0], em, std::conj(em));
            return true;
          }
          case GateType::CX:
            pair(Basis{1} << g.qubits[0], g.qubits[1], 0, 1, 1, 0,
                 obs::KernelId::Controlled1q);
            return true;
          case GateType::CZ:
            phaseMask(maskOf(g.qubits, 0, 2), M_PI);
            return true;
          case GateType::BARRIER:
            return true;
          default:
            active_ = false;
            return false;
        }
    }

    /**
     * The 2x2 gate of apply1q (@p control 0) or applyControlled1q on
     * every pair (i & ~bit, i | bit) with a listed member whose
     * @p control bits are all set. A pair is updated once: from its
     * low index when that is listed, else from its high one. Missing
     * partners join the list; if any did, the exact zeros leave it.
     */
    void
    pair(Basis control, int q, Cplx m00, Cplx m01, Cplx m10, Cplx m11,
         obs::KernelId id)
    {
        const Basis bit = Basis{1} << q;
        Cplx *amp = state_.amplitudes().data();
        const std::size_t listed = list_.size();
        std::size_t pairs = 0;
        for (std::size_t k = 0; k < listed; ++k) {
            const Basis i = list_[k];
            if ((i & control) != control)
                continue;
            const Basis i0 = i & ~bit;
            const Basis i1 = i | bit;
            if (i == i1 && listed_[i0])
                continue;
            const Cplx a0 = amp[i0];
            const Cplx a1 = amp[i1];
            amp[i0] = m00 * a0 + m01 * a1;
            amp[i1] = m10 * a0 + m11 * a1;
            ++pairs;
            const Basis partner = i ^ bit;
            if (!listed_[partner]) {
                listed_[partner] = 1;
                list_.push_back(static_cast<std::uint32_t>(partner));
            }
        }
        record(id, 2 * pairs);
        if (list_.size() > listed)
            dropZeros();
    }

  private:
    /** applyDiagonal1q on the listed amplitudes. */
    void
    diagonal1q(int q, Cplx d0, Cplx d1)
    {
        const Basis bit = Basis{1} << q;
        Cplx *amp = state_.amplitudes().data();
        for (const Basis i : list_)
            amp[i] *= (i & bit) ? d1 : d0;
        record(obs::KernelId::Diagonal1q, list_.size());
    }

    /** applyPhaseMask on the listed amplitudes. */
    void
    phaseMask(Basis mask, double phi)
    {
        const Cplx phase{std::cos(phi), std::sin(phi)};
        Cplx *amp = state_.amplitudes().data();
        std::size_t hit = 0;
        for (const Basis i : list_)
            if ((i & mask) == mask) {
                amp[i] *= phase;
                ++hit;
            }
        record(obs::KernelId::PhaseMask, hit);
    }

    /**
     * Unlist every index whose amplitude is now exactly zero (an X or
     * a Pauli error moves the support rather than growing it), then
     * release to the dense kernels if the list still passes the limit.
     */
    void
    dropZeros()
    {
        const Cplx *amp = state_.amplitudes().data();
        std::size_t kept = 0;
        for (const std::uint32_t i : list_) {
            if (amp[i] != Cplx{})
                list_[kept++] = i;
            else
                listed_[i] = 0;
        }
        list_.resize(kept);
        if (kept > limit_)
            active_ = false;
    }

    void
    record(obs::KernelId id, std::size_t amps)
    {
        if (obs::KernelCounterSink *sink = state_.counterSink())
            sink->record(id, amps);
    }

    StateVector &state_;
    std::size_t limit_;
    bool active_ = false;
    std::vector<std::uint32_t> list_;
    std::vector<std::uint8_t> listed_;
};

} // namespace

void
applyGate(StateVector &state, const Gate &g)
{
    const double theta = g.param;
    switch (g.type) {
      case GateType::H:
        state.apply1q(g.qubits[0], kInvSqrt2, kInvSqrt2, kInvSqrt2,
                      -kInvSqrt2);
        return;
      case GateType::X:
        state.apply1q(g.qubits[0], 0, 1, 1, 0);
        return;
      case GateType::Y:
        state.apply1q(g.qubits[0], 0, Cplx{0, -1}, Cplx{0, 1}, 0);
        return;
      case GateType::Z:
        state.applyDiagonal1q(g.qubits[0], 1, -1);
        return;
      case GateType::S:
        state.applyDiagonal1q(g.qubits[0], 1, Cplx{0, 1});
        return;
      case GateType::Sdg:
        state.applyDiagonal1q(g.qubits[0], 1, Cplx{0, -1});
        return;
      case GateType::T:
        state.applyDiagonal1q(g.qubits[0], 1, Cplx{kInvSqrt2, kInvSqrt2});
        return;
      case GateType::Tdg:
        state.applyDiagonal1q(g.qubits[0], 1, Cplx{kInvSqrt2, -kInvSqrt2});
        return;
      case GateType::RX: {
        const Cplx c{std::cos(theta / 2), 0.0};
        const Cplx ms{0.0, -std::sin(theta / 2)};
        state.apply1q(g.qubits[0], c, ms, ms, c);
        return;
      }
      case GateType::RY: {
        const double c = std::cos(theta / 2);
        const double s = std::sin(theta / 2);
        state.apply1q(g.qubits[0], c, -s, s, c);
        return;
      }
      case GateType::RZ: {
        const Cplx em{std::cos(theta / 2), -std::sin(theta / 2)};
        state.applyDiagonal1q(g.qubits[0], em, std::conj(em));
        return;
      }
      case GateType::P:
        state.applyDiagonal1q(g.qubits[0], 1,
                              Cplx{std::cos(theta), std::sin(theta)});
        return;
      case GateType::CX:
        state.applyControlled1q(Basis{1} << g.qubits[0], g.qubits[1], 0, 1,
                                1, 0);
        return;
      case GateType::CZ:
        state.applyPhaseMask(maskOf(g.qubits, 0, 2), M_PI);
        return;
      case GateType::CP:
        state.applyPhaseMask(maskOf(g.qubits, 0, 2), theta);
        return;
      case GateType::SWAP:
        state.applySwap(g.qubits[0], g.qubits[1]);
        return;
      case GateType::CCX:
        state.applyControlled1q(maskOf(g.qubits, 0, 2), g.qubits[2], 0, 1, 1,
                                0);
        return;
      case GateType::RZZ: {
        // Diagonal two-mask kernel: equal bits = even parity of the
        // two-bit mask -> e^{-i theta/2}, unequal -> e^{+i theta/2}.
        const Cplx same{std::cos(theta / 2), -std::sin(theta / 2)};
        state.applyParityPhase(maskOf(g.qubits, 0, 2), same,
                               std::conj(same));
        return;
      }
      case GateType::XY:
        state.applyXY(g.qubits[0], g.qubits[1], theta);
        return;
      case GateType::MCP:
        state.applyPhaseMask(maskOf(g.qubits, 0, g.qubits.size()), theta);
        return;
      case GateType::MCX:
        state.applyControlled1q(maskOf(g.qubits, 0, g.qubits.size() - 1),
                                g.qubits.back(), 0, 1, 1, 0);
        return;
      case GateType::BARRIER:
        return;
    }
    CHOCOQ_ASSERT(false, "unhandled gate in executor");
}

void
execute(StateVector &state, const circuit::Circuit &c,
        const std::function<void(std::size_t)> &after_gate)
{
    CHOCOQ_ASSERT(state.numQubits() >= c.numQubits(),
                  "state narrower than circuit");
    for (std::size_t i = 0; i < c.gates().size(); ++i) {
        applyGate(state, c.gates()[i]);
        if (after_gate)
            after_gate(i);
    }
}

void
executeNoisy(StateVector &state, const circuit::Circuit &c,
             const NoiseModel &noise, Rng &rng)
{
    CHOCOQ_ASSERT(state.numQubits() >= c.numQubits(),
                  "state narrower than circuit");
    TrackedSupport support(state);
    for (const auto &g : c.gates()) {
        if (!support.active() || !support.tryApply(g))
            applyGate(state, g);
        if (g.type == circuit::GateType::BARRIER)
            continue;
        const double p = g.qubits.size() >= 2 ? noise.p2q : noise.p1q;
        if (p <= 0.0)
            continue;
        for (int q : g.qubits) {
            if (!rng.chance(p))
                continue;
            const Pauli &e = kPaulis[rng.intIn(0, 2)];
            if (support.active())
                support.pair(0, q, e.m00, e.m01, e.m10, e.m11,
                             obs::KernelId::Apply1q);
            else
                state.apply1q(q, e.m00, e.m01, e.m10, e.m11);
        }
    }
}

} // namespace chocoq::sim
