/**
 * @file
 * Commute-Hamiltonian terms Hc(u) (Eq. 5) and their exact evolution.
 *
 * For a move vector u, Hc(u) = sigma^{u_1} ... sigma^{u_n} + h.c. couples
 * exactly the basis-state pairs |v, w> <-> |v-bar, w> where v = (1+u)/2 on
 * the support of u and w is any assignment of the complement. Its only
 * non-zero eigenvalues are +-1 with eigenstates |x+-> (Eq. 12), which is
 * what makes both the fast pair-rotation simulation and the Lemma-2
 * circuit decomposition exact.
 */

#ifndef CHOCOQ_CORE_COMMUTE_HPP
#define CHOCOQ_CORE_COMMUTE_HPP

#include <vector>

#include "common/bitops.hpp"
#include "linalg/matrix.hpp"
#include "sim/statevector.hpp"

namespace chocoq::core
{

/** One commute-Hamiltonian term, precomputed from its move vector. */
struct CommuteTerm
{
    /** Full-length move vector u (entries -1/0/1). */
    std::vector<int> u;
    /** Bits where u is non-zero. */
    Basis supportMask = 0;
    /** Pattern (1+u)/2 restricted to the support. */
    Basis vBits = 0;
    /** Support qubit indices in ascending order. */
    std::vector<int> support;
};

/** Precompute a term from a move vector. */
CommuteTerm makeCommuteTerm(const std::vector<int> &u);

/** Build all terms of a move basis. */
std::vector<CommuteTerm> makeCommuteTerms(
    const std::vector<std::vector<int>> &moves);

/** Total non-zero count over all moves (the depth proxy of Sec. IV-C). */
std::size_t totalNonZeros(const std::vector<CommuteTerm> &terms);

/**
 * Dense Hc(u) over @p n qubits — reference math for tests and the
 * Trotter baseline (O(4^n), use only for small n).
 */
linalg::Matrix denseTerm(const CommuteTerm &term, int n);

/** Dense driver H_d = sum_u Hc(u). */
linalg::Matrix denseDriver(const std::vector<CommuteTerm> &terms, int n);

/** Dense constraint operator C-hat = sum_i c_i sigma^z_i (Eq. 3). */
linalg::Matrix denseConstraintOperator(const std::vector<int> &coeffs,
                                       int n);

/**
 * Exact functional evolution of a whole layer prod_u exp(-i beta Hc(u))
 * sharing one angle, via the pair-rotation kernel (no circuit, no
 * ancillas): cos/sin are computed once and reused across every term, so
 * each term costs only its own 2^(n-k) pair rotations.
 */
void applyCommuteLayer(sim::StateVector &state,
                       const std::vector<CommuteTerm> &terms, double beta);

/**
 * Basic-gate cost of decomposing one local commute unitary with GENERIC
 * two-level synthesis instead of the Lemma-2 identity (the "Opt1 without
 * Opt2" configuration of the Fig. 14 ablation). Exponential in the
 * support size.
 */
std::size_t genericTermSynthesisGates(const CommuteTerm &term, double beta);

} // namespace chocoq::core

#endif // CHOCOQ_CORE_COMMUTE_HPP
