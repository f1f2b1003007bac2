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
 * readout bit flips. NoisySampler samples many trajectories of one
 * circuit, running their common error-free prefix once.
 */

#ifndef CHOCOQ_SIM_EXECUTOR_HPP
#define CHOCOQ_SIM_EXECUTOR_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "obs/roofline.hpp"
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
 * by a uniformly random Pauli with the model's error probability. The
 * errors are drawn before the first gate runs, from the same pieces
 * NoisySampler draws and runs its trajectories with.
 *
 * The trajectory tracks which basis states have a nonzero amplitude and
 * updates only those and their partners, until more than dim/8 of them
 * are nonzero or a gate outside the lowered set {H, X, RZ, CX} comes
 * up; the rest runs on the dense kernels. Probabilities and the
 * generator stream are bit-identical to naive::executeNoisy, the plain
 * dense loop, at any thread count (docs/simulator.md, "Noise model").
 */
void executeNoisy(StateVector &state, const circuit::Circuit &c,
                  const NoiseModel &noise, Rng &rng);

/** A place a Pauli error can strike: operand @p qubit of gate
 * @p gate, with probability @p p. */
struct ErrorSite
{
    std::uint32_t gate;
    std::uint32_t qubit;
    double p;
};

/** One Pauli error of a trajectory: X, Y or Z (@p pauli 0, 1, 2) on
 * @p qubit, right after gate @p gate. */
struct PauliError
{
    std::uint32_t gate;
    std::uint32_t qubit;
    std::uint32_t pauli;
};

/**
 * Shots from many noisy trajectories of one circuit, each from |0>,
 * that run the error-free prefix once. The draws never read the state,
 * so every trajectory's Pauli errors and shots are drawn first, in the
 * order of the per-trajectory loop naive::sampleNoisy. One clean state
 * then steps through the gates, and each trajectory forks from it at
 * its first error; error-free trajectories share its final state. The
 * counts and the next generator output are bit-identical to
 * naive::sampleNoisy (docs/simulator.md, "Shared prefix").
 *
 * Both states and the draw storage are reused across calls: a service
 * worker keeps one sampler, so steady-state jobs allocate no state
 * vector.
 */
class NoisySampler
{
  public:
    /**
     * Sample @p trajectories trajectories of @p c under @p noise,
     * @p shots shots each with noise.readout flips, and return the
     * histogram over c's register. @p sink, when set, records every
     * kernel of the clean pass and the forks; @p checkpoint, when
     * set, is polled once per trajectory in the draw pass and before
     * each fork, and may throw to abort.
     */
    std::map<Basis, int>
    sample(const circuit::Circuit &c, const NoiseModel &noise,
           int trajectories, int shots, Rng &rng,
           obs::KernelCounterSink *sink = nullptr,
           const std::function<void()> &checkpoint = nullptr);

  private:
    /** One trajectory's draws: its errors errors_[begin, end), the
     * gate of the first (the gate count when there is none), and the
     * generator as its shots start, which replays them. */
    struct Draws
    {
        std::uint32_t firstGate;
        std::uint32_t begin;
        std::uint32_t end;
        Rng shots;
    };

    StateVector clean_{1};
    StateVector work_{1};
    std::vector<std::uint32_t> cleanList_, workList_;
    std::vector<std::uint8_t> cleanListed_, workListed_;
    std::vector<ErrorSite> sites_;
    std::vector<PauliError> errors_;
    std::vector<Draws> draws_;
    std::vector<std::uint32_t> order_;
    Cdf cdf_;
};

} // namespace chocoq::sim

#endif // CHOCOQ_SIM_EXECUTOR_HPP
