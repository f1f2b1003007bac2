/**
 * @file
 * Lowering of composite gates into the basic-gate basis {H, X, RZ, CX}.
 *
 * The paper's deployability story (Section IV-B) hinges on the cost of this
 * lowering: Choco-Q's G gates and multi-controlled phase gates transpile
 * with linear gate count and depth, while generic unitary synthesis is
 * exponential. Multi-controlled phases use a Toffoli V-chain with reusable
 * ancilla qubits; all identities are exact up to a global phase (verified
 * against dense matrices in the test suite).
 */

#ifndef CHOCOQ_CIRCUIT_TRANSPILE_HPP
#define CHOCOQ_CIRCUIT_TRANSPILE_HPP

#include "circuit/circuit.hpp"

namespace chocoq::circuit
{

/**
 * Lower @p input to the basic basis. Ancilla qubits required by
 * multi-controlled gates are appended to the register; they are returned
 * to |0> after every use and are shared across all gates of the circuit.
 */
Circuit transpile(const Circuit &input);

/** True when the circuit contains only basis gates (H, X, RZ, CX). */
bool isLowered(const Circuit &c);

} // namespace chocoq::circuit

#endif // CHOCOQ_CIRCUIT_TRANSPILE_HPP
