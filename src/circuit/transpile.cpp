#include "circuit/transpile.hpp"

#include <cmath>

#include "common/error.hpp"

namespace chocoq::circuit
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** Ancilla pool shared by all multi-controlled lowerings of one circuit. */
class AncillaPool
{
  public:
    explicit AncillaPool(Circuit &out) : out_(out) {}

    /** Borrow @p k ancilla qubits (allocated on first use, then reused). */
    std::vector<int>
    borrow(int k)
    {
        while (static_cast<int>(pool_.size()) < k)
            pool_.push_back(out_.addAncilla());
        return {pool_.begin(), pool_.begin() + k};
    }

  private:
    Circuit &out_;
    std::vector<int> pool_;
};

/** Exact Toffoli in {H, T/Tdg(=RZ), CX} (global phase e^{i*pi/8}). */
void
emitCcx(Circuit &out, int a, int b, int t)
{
    auto rzq = [&](int q, double angle) { out.rz(q, angle); };
    out.h(t);
    out.cx(b, t);
    rzq(t, -kPi / 4);
    out.cx(a, t);
    rzq(t, kPi / 4);
    out.cx(b, t);
    rzq(t, -kPi / 4);
    out.cx(a, t);
    rzq(b, kPi / 4);
    rzq(t, kPi / 4);
    out.h(t);
    out.cx(a, b);
    rzq(a, kPi / 4);
    rzq(b, -kPi / 4);
    out.cx(a, b);
}

/** Exact controlled-phase via 2 CX and 3 RZ (global phase e^{i*phi/4}). */
void
emitCp(Circuit &out, int a, int b, double phi)
{
    out.rz(a, phi / 2);
    out.cx(a, b);
    out.rz(b, -phi / 2);
    out.cx(a, b);
    out.rz(b, phi / 2);
}

/** RZZ(theta) = exp(-i theta ZZ / 2) via the standard CX-RZ-CX sandwich. */
void
emitRzz(Circuit &out, int a, int b, double theta)
{
    out.cx(a, b);
    out.rz(b, theta);
    out.cx(a, b);
}

/**
 * Multi-controlled phase: phase e^{i phi} iff all qubits in @p qs are |1>.
 * k >= 3 uses a Toffoli V-chain accumulating the AND of the first k-1
 * qubits into ancillas, then a CP against the last qubit, then uncompute.
 */
void
emitMcp(Circuit &out, AncillaPool &pool, const std::vector<int> &qs,
        double phi)
{
    const int k = static_cast<int>(qs.size());
    CHOCOQ_ASSERT(k >= 1, "mcp without operands");
    if (k == 1) {
        out.rz(qs[0], phi); // P up to global phase.
        return;
    }
    if (k == 2) {
        emitCp(out, qs[0], qs[1], phi);
        return;
    }
    const std::vector<int> anc = pool.borrow(k - 2);
    // Compute chain.
    emitCcx(out, qs[0], qs[1], anc[0]);
    for (int i = 2; i < k - 1; ++i)
        emitCcx(out, anc[i - 2], qs[i], anc[i - 1]);
    // Phase.
    emitCp(out, anc[k - 3], qs[k - 1], phi);
    // Uncompute in reverse order.
    for (int i = k - 2; i >= 2; --i)
        emitCcx(out, anc[i - 2], qs[i], anc[i - 1]);
    emitCcx(out, qs[0], qs[1], anc[0]);
}

/** XY(beta) = exp(-i beta (XX + YY)) = RXX(2 beta) * RYY(2 beta). */
void
emitXy(Circuit &out, int a, int b, double beta)
{
    const double theta = 2.0 * beta;
    // RXX(theta): H-basis change around RZZ.
    out.h(a);
    out.h(b);
    emitRzz(out, a, b, theta);
    out.h(a);
    out.h(b);
    // RYY(theta): V = S H per qubit; circuit is V^dagger, RZZ, V where
    // V^dagger applies Sdg first then H (Sdg = RZ(-pi/2) up to phase).
    out.rz(a, -kPi / 2);
    out.rz(b, -kPi / 2);
    out.h(a);
    out.h(b);
    emitRzz(out, a, b, theta);
    out.h(a);
    out.h(b);
    out.rz(a, kPi / 2);
    out.rz(b, kPi / 2);
}

void
lowerGate(Circuit &out, AncillaPool &pool, const Gate &g)
{
    switch (g.type) {
      case GateType::H:
      case GateType::X:
      case GateType::RZ:
      case GateType::CX:
        out.add(g);
        return;
      case GateType::RX:
        // RX = H RZ H.
        out.h(g.qubits[0]);
        out.rz(g.qubits[0], g.param);
        out.h(g.qubits[0]);
        return;
      case GateType::RY:
        // RY = S (H RZ H) Sdg; circuit order applies Sdg first.
        out.rz(g.qubits[0], -kPi / 2);
        out.h(g.qubits[0]);
        out.rz(g.qubits[0], g.param);
        out.h(g.qubits[0]);
        out.rz(g.qubits[0], kPi / 2);
        return;
      case GateType::XY:
        emitXy(out, g.qubits[0], g.qubits[1], g.param);
        return;
      case GateType::MCP:
        emitMcp(out, pool, g.qubits, g.param);
        return;
    }
    CHOCOQ_ASSERT(false, "unhandled gate in transpile");
}

} // namespace

Circuit
transpile(const Circuit &input)
{
    Circuit out(input.numData());
    // Pre-extend the register to cover ancillas already present upstream.
    out.reserveAncillas(input.numQubits() - input.numData());
    AncillaPool pool(out);
    for (const auto &g : input.gates())
        lowerGate(out, pool, g);
    return out;
}

bool
isLowered(const Circuit &c)
{
    for (const auto &g : c.gates()) {
        switch (g.type) {
          case GateType::H:
          case GateType::X:
          case GateType::RZ:
          case GateType::CX:
            continue;
          default:
            return false;
        }
    }
    return true;
}

} // namespace chocoq::circuit
