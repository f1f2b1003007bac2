/**
 * @file
 * Gate-level intermediate representation.
 *
 * The gate set is the basis {H, X, RZ, CX} of the target devices plus
 * the gates the circuit builders emit before lowering: the baselines'
 * RX and RY rotations, the XY rotation of the cyclic-Hamiltonian
 * baseline [47], and multi-controlled phase (the P(beta) of Lemma 2,
 * which on one and two operands is the phase and controlled-phase
 * gate).
 */

#ifndef CHOCOQ_CIRCUIT_GATE_HPP
#define CHOCOQ_CIRCUIT_GATE_HPP

#include <vector>

namespace chocoq::circuit
{

/** All gate kinds understood by the simulator and the transpiler. */
enum class GateType
{
    H,  ///< Hadamard.
    X,  ///< Pauli X.
    RX, ///< exp(-i theta X / 2).
    RY, ///< exp(-i theta Y / 2).
    RZ, ///< exp(-i theta Z / 2).
    CX, ///< Controlled X; qubits = {control, target}.
    XY, ///< exp(-i beta (X(x)X + Y(x)Y)); qubits = {a, b}.
    MCP ///< Multi-controlled phase on all listed qubits (symmetric).
};

/** One gate instance. */
struct Gate
{
    GateType type;
    /** Qubit operands; role depends on the gate type (see GateType). */
    std::vector<int> qubits;
    /** Rotation angle / phase, if the gate is parameterized. */
    double param = 0.0;
};

} // namespace chocoq::circuit

#endif // CHOCOQ_CIRCUIT_GATE_HPP
