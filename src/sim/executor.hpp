/**
 * @file
 * Circuit execution on the state-vector simulator, with optional
 * stochastic-Pauli noise trajectories.
 *
 * The noise model mirrors the way the paper evaluates "real-world quantum
 * platforms" (Fig. 10/13b/14): every gate carries a depolarizing error
 * probability (distinct for 1q and multi-qubit gates, taken from each IBM
 * device's published fidelities), realised per trajectory as a uniformly
 * random Pauli on the gate's operands; measurement adds independent
 * readout bit flips.
 */

#ifndef CHOCOQ_SIM_EXECUTOR_HPP
#define CHOCOQ_SIM_EXECUTOR_HPP

#include <functional>
#include <optional>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace chocoq::sim
{

/** Gate-level depolarizing + readout noise parameters. */
struct NoiseModel
{
    /** Error probability attached to every single-qubit gate. */
    double p1q = 0.0;
    /** Error probability attached to every >= 2-qubit gate. */
    double p2q = 0.0;
    /** Per-bit readout flip probability. */
    double readout = 0.0;

    bool isNoiseless() const { return p1q <= 0 && p2q <= 0 && readout <= 0; }
};

/** Apply one gate to the state (no noise). */
void applyGate(StateVector &state, const circuit::Gate &gate);

/**
 * Execute a circuit.
 *
 * @param state State to evolve in place (must be as wide as the circuit).
 * @param c Circuit to run.
 * @param after_gate Optional probe invoked after every gate with the index
 *        of the gate just applied (used by the Fig. 9b parallelism probe).
 */
void execute(StateVector &state, const circuit::Circuit &c,
             const std::function<void(std::size_t)> &after_gate = nullptr);

/**
 * Execute one noisy trajectory: after each gate, each operand qubit is hit
 * by a uniformly random Pauli with the model's error probability.
 *
 * The trajectory tracks which basis states have a nonzero amplitude and
 * updates only those and their partners, until more than dim/8 of them
 * are nonzero or a gate outside the lowered set {H, X, RZ, CX, CZ}
 * comes up; the rest runs on the dense kernels. Probabilities and the
 * generator stream are bit-identical to naive::executeNoisy, the plain
 * dense loop, at any thread count (docs/simulator.md, "Noise model").
 */
void executeNoisy(StateVector &state, const circuit::Circuit &c,
                  const NoiseModel &noise, Rng &rng);

} // namespace chocoq::sim

#endif // CHOCOQ_SIM_EXECUTOR_HPP
