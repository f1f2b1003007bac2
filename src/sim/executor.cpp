#include "sim/executor.hpp"

#include <cmath>

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
    for (const auto &g : c.gates()) {
        applyGate(state, g);
        if (g.type == circuit::GateType::BARRIER)
            continue;
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

} // namespace chocoq::sim
