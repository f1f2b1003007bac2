/**
 * @file
 * Quantum circuit container with builder helpers and depth analysis.
 */

#ifndef CHOCOQ_CIRCUIT_CIRCUIT_HPP
#define CHOCOQ_CIRCUIT_CIRCUIT_HPP

#include <cstddef>
#include <vector>

#include "circuit/gate.hpp"

namespace chocoq::circuit
{

/**
 * An ordered list of gates over a fixed-width qubit register.
 *
 * The register is split into data qubits [0, numData) that carry problem
 * variables and ancilla qubits [numData, numQubits) introduced by the
 * transpiler (e.g. the V-chain lowering of multi-controlled phase gates).
 */
class Circuit
{
  public:
    /** Circuit over @p num_data data qubits and no ancillas yet. */
    explicit Circuit(int num_data = 0);

    int numQubits() const { return numQubits_; }
    int numData() const { return numData_; }

    /** Grow the register by one ancilla qubit; returns its index. */
    int addAncilla();

    /** Ensure the register has at least @p count ancilla qubits. */
    void reserveAncillas(int count);

    const std::vector<Gate> &gates() const { return gates_; }

    /** Append a gate (validates qubit indices). */
    void add(Gate g);

    /** Append all gates of @p other (register widths must match). */
    void append(const Circuit &other);

    /// @name Builder helpers.
    /// @{
    void h(int q) { add({GateType::H, {q}, 0.0}); }
    void x(int q) { add({GateType::X, {q}, 0.0}); }
    void rx(int q, double theta) { add({GateType::RX, {q}, theta}); }
    void ry(int q, double theta) { add({GateType::RY, {q}, theta}); }
    void rz(int q, double theta) { add({GateType::RZ, {q}, theta}); }
    void cx(int c, int t) { add({GateType::CX, {c, t}, 0.0}); }
    void xy(int a, int b, double beta) { add({GateType::XY, {a, b}, beta}); }
    void mcp(std::vector<int> qs, double phi)
    {
        add({GateType::MCP, std::move(qs), phi});
    }
    /// @}

    /**
     * ASAP-scheduled circuit depth: each gate occupies all its operand
     * qubits for one layer.
     */
    int depth() const;

    /** Total gate count. */
    std::size_t gateCount() const { return gates_.size(); }

    /** Count of gates acting on two or more qubits. */
    std::size_t multiQubitGateCount() const;

  private:
    int numData_ = 0;
    int numQubits_ = 0;
    std::vector<Gate> gates_;
};

} // namespace chocoq::circuit

#endif // CHOCOQ_CIRCUIT_CIRCUIT_HPP
