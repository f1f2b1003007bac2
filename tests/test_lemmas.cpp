/**
 * @file
 * Property tests for the paper's two lemmas.
 *
 * Lemma 1 (Sec. IV-A): replacing exp(-i beta H_d) by the serialized
 * product of term unitaries preserves the constraint-operator expectation
 * (and in fact the feasible subspace), even though the two unitaries
 * differ (e^{A+B} != e^A e^B).
 *
 * Lemma 2 (Sec. IV-B): the circuit G-dagger P(beta) X1 P(-beta) X1 G is
 * exactly exp(-i beta Hc(u)), for every support size, both before and
 * after transpilation to basic gates.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/transpile.hpp"
#include "common/rng.hpp"
#include "core/circuits.hpp"
#include "core/commute.hpp"
#include "core/movebasis.hpp"
#include "linalg/expm.hpp"
#include "model/exact.hpp"
#include "problems/suite.hpp"
#include "sim/executor.hpp"
#include "sim/unitary.hpp"

using namespace chocoq;
using core::CommuteTerm;
using linalg::Cplx;
using linalg::Matrix;

namespace
{

std::vector<int>
randomMove(Rng &rng, int n, int min_support = 1)
{
    while (true) {
        std::vector<int> u(n, 0);
        int nz = 0;
        for (int i = 0; i < n; ++i) {
            u[i] = rng.intIn(-1, 1);
            nz += u[i] != 0;
        }
        if (nz >= min_support)
            return u;
    }
}

/** Pad a circuit unitary to the full register when ancillas were added:
 * project onto ancillas staying |0> (valid because the V-chain returns
 * them to |0>). */
Matrix
dataUnitary(const circuit::Circuit &c, int data_qubits)
{
    const Matrix full = sim::circuitUnitary(c);
    const std::size_t dim = std::size_t{1} << data_qubits;
    Matrix out(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t col = 0; col < dim; ++col)
            out.at(r, col) = full.at(r, col);
    return out;
}

} // namespace

TEST(Lemma1, ExponentialDoesNotFactorizeNaively)
{
    // The motivating inequality of Sec. IV-A with u1=[-1,0], u2=[-1,1].
    const auto t1 = core::makeCommuteTerm(std::vector<int>{-1, 0});
    const auto t2 = core::makeCommuteTerm(std::vector<int>{-1, 1});
    const double beta = 0.8;
    const Matrix sum = core::denseTerm(t1, 2) + core::denseTerm(t2, 2);
    const Matrix joint = linalg::expUnitary(sum, beta);
    const Matrix serial = linalg::expUnitary(core::denseTerm(t2, 2), beta)
                          * linalg::expUnitary(core::denseTerm(t1, 2), beta);
    EXPECT_GT(joint.maxAbsDiff(serial), 1e-3);
}

/** Lemma 1 on random constraint systems drawn from the suite. */
class Lemma1Property : public ::testing::TestWithParam<int>
{
};

TEST_P(Lemma1Property, SerializationPreservesConstraintExpectation)
{
    Rng rng(500 + GetParam());
    // Small random problem: 2 constraints over 4-6 variables in {-1,0,1}.
    const int n = rng.intIn(4, 6);
    model::Problem p(n);
    model::Polynomial f;
    for (int i = 0; i < n; ++i)
        f.addTerm({i}, rng.intIn(1, 5));
    p.setObjective(std::move(f));
    for (int k = 0; k < 2; ++k) {
        std::vector<int> coeffs(n, 0);
        int nz = 0;
        for (int i = 0; i < n; ++i) {
            coeffs[i] = rng.intIn(-1, 1);
            nz += coeffs[i] != 0;
        }
        if (nz == 0)
            coeffs[k] = 1;
        // Choose an achievable rhs from a random assignment.
        const Basis some = rng.next() & ((Basis{1} << n) - 1);
        int rhs = 0;
        for (int i = 0; i < n; ++i)
            rhs += coeffs[i] * getBit(some, i);
        p.addEquality(coeffs, rhs);
    }

    const core::MoveBasis basis = core::computeMoveBasis(p);
    if (basis.moves.empty())
        GTEST_SKIP() << "rank-n system has no moves";
    const auto terms = core::makeCommuteTerms(basis.moves);
    const double beta = rng.uniform(0.1, 1.5);

    const Matrix hd = core::denseDriver(terms, n);
    const Matrix joint = linalg::expUnitary(hd, beta);
    Matrix serial = Matrix::identity(std::size_t{1} << n);
    for (const auto &t : terms)
        serial = linalg::expUnitary(core::denseTerm(t, n), beta) * serial;

    // Both evolutions preserve <C-hat> for every constraint row, from a
    // random feasible start.
    const auto x0 = model::findFeasible(p);
    if (!x0)
        GTEST_SKIP() << "infeasible random system";
    linalg::CVec psi(std::size_t{1} << n, Cplx{0, 0});
    psi[*x0] = 1.0;
    const auto out_joint = joint.apply(psi);
    const auto out_serial = serial.apply(psi);

    for (const auto &con : p.constraints()) {
        const Matrix chat = core::denseConstraintOperator(con.coeffs, n);
        const auto expect = [&](const linalg::CVec &v) {
            const auto cv = chat.apply(v);
            return linalg::dot(v, cv).real();
        };
        const double before = expect(psi);
        EXPECT_NEAR(expect(out_joint), before, 1e-9);
        EXPECT_NEAR(expect(out_serial), before, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property, ::testing::Range(0, 15));

/** Stronger-than-Lemma-1 property used by Choco-Q: the serialized driver
 * keeps all probability mass inside the feasible subspace. */
class FeasibleSubspaceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FeasibleSubspaceProperty, SerializedDriverKeepsFeasibleMass)
{
    const auto scales = problems::allScales();
    const auto scale = scales[GetParam() % 4]; // F1, F2 too big: use small
    const auto small = std::vector<problems::Scale>{
        problems::Scale::F1, problems::Scale::G1, problems::Scale::K1,
        problems::Scale::K2};
    const auto p = problems::makeCase(small[GetParam() % small.size()],
                                      GetParam() / 4);
    (void)scale;
    const int n = p.numVars();
    if (n > 14)
        GTEST_SKIP() << "dense check limited";

    const core::MoveBasis basis = core::computeMoveBasis(p);
    const auto terms = core::makeCommuteTerms(basis.moves);
    const auto x0 = model::findFeasible(p);
    ASSERT_TRUE(x0.has_value());

    sim::StateVector state(n);
    state.reset(*x0);
    Rng rng(GetParam());
    for (int round = 0; round < 3; ++round)
        for (const auto &t : terms) {
            const double beta = rng.uniform(0.1, 1.2);
            state.applyPairRotation(t.supportMask, t.vBits, std::cos(beta),
                                    std::sin(beta));
        }

    double feasible_mass = 0.0;
    for (const auto &[x, prob] : state.distribution())
        if (p.isFeasible(x))
            feasible_mass += prob;
    EXPECT_NEAR(feasible_mass, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cases, FeasibleSubspaceProperty,
                         ::testing::Range(0, 12));

/** Lemma 2: the decomposition is exactly the term unitary. */
class Lemma2Property : public ::testing::TestWithParam<int>
{
};

TEST_P(Lemma2Property, CircuitEqualsExpm)
{
    Rng rng(900 + GetParam());
    const int n = rng.intIn(2, 6);
    const auto u = randomMove(rng, n, 1);
    const CommuteTerm t = core::makeCommuteTerm(u);
    const double beta = rng.uniform(-2.0, 2.0);

    const Matrix expect = linalg::expUnitary(core::denseTerm(t, n), beta);
    const circuit::Circuit c = core::commuteTermCircuit(t, n, beta);
    const Matrix got = sim::circuitUnitary(c);
    EXPECT_LT(linalg::phaseDistance(expect, got), 1e-9)
        << "support " << t.support.size() << " beta " << beta;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma2Property, ::testing::Range(0, 25));

/** Lemma 2 survives transpilation to {H, X, RZ, CX}. */
class Lemma2Transpiled : public ::testing::TestWithParam<int>
{
};

TEST_P(Lemma2Transpiled, LoweredCircuitEqualsExpm)
{
    Rng rng(1300 + GetParam());
    const int n = rng.intIn(2, 5);
    const CommuteTerm t = core::makeCommuteTerm(randomMove(rng, n, 1));
    const double beta = rng.uniform(-1.5, 1.5);

    const Matrix expect = linalg::expUnitary(core::denseTerm(t, n), beta);
    circuit::Circuit c = core::commuteTermCircuit(t, n, beta);
    const circuit::Circuit lowered = circuit::transpile(c);
    ASSERT_TRUE(circuit::isLowered(lowered));
    const Matrix got = dataUnitary(lowered, n);
    EXPECT_LT(linalg::phaseDistance(expect, got), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma2Transpiled, ::testing::Range(0, 15));

TEST(Lemma2, ConvertGatesMapEigenstatesToBasis)
{
    // Eq. (14): G|x+> = |0 1...1>, G|x-> = |1 1...1> (up to the v1 sign
    // convention discussed in Sec. IV-B).
    Rng rng(4);
    const int n = 4;
    const CommuteTerm t = core::makeCommuteTerm(randomMove(rng, n, 2));
    circuit::Circuit c(n);
    core::appendConvertGates(c, t);

    sim::StateVector plus(n);
    linalg::CVec psi(std::size_t{1} << n, Cplx{0, 0});
    psi[t.vBits] = 1.0 / std::sqrt(2.0);
    psi[t.vBits ^ t.supportMask] = 1.0 / std::sqrt(2.0);
    plus.amplitudes() = psi;
    sim::execute(plus, c);

    // All support qubits except the first must read 1; the first must be
    // deterministic (0 for |x+> up to the v1 convention).
    Basis expect_ones = 0;
    for (std::size_t i = 1; i < t.support.size(); ++i)
        expect_ones |= Basis{1} << t.support[i];
    double mass = 0.0;
    for (const auto &[x, prob] : plus.distribution())
        if ((x & expect_ones) == expect_ones)
            mass += prob;
    EXPECT_NEAR(mass, 1.0, 1e-9);
    EXPECT_EQ(plus.distinctStates(1e-9), 1u);
}

TEST(Lemma2, DepthIsLinearInSupport)
{
    // Sec. IV-B: decomposition time and circuit depth are O(n).
    std::vector<int> depths;
    for (int k = 2; k <= 10; ++k) {
        std::vector<int> u(k, 1);
        for (int i = 0; i < k; i += 2)
            u[i] = -1;
        const CommuteTerm t = core::makeCommuteTerm(u);
        circuit::Circuit c = core::commuteTermCircuit(t, k, 0.7);
        const circuit::Circuit lowered = circuit::transpile(c);
        depths.push_back(lowered.depth());
    }
    // Fit: depth growth per qubit stays bounded (linear, not exponential).
    for (std::size_t i = 1; i < depths.size(); ++i) {
        const int delta = depths[i] - depths[i - 1];
        EXPECT_GT(delta, 0);
        EXPECT_LT(delta, 80) << "depth jump too large at k="
                             << (i + 2);
    }
}

TEST(Lemma2, SerializedDriverMatchesSequentialExpm)
{
    // The full driver layer circuit equals the product of term unitaries.
    Rng rng(77);
    const int n = 4;
    const auto moves = std::vector<std::vector<int>>{
        {-1, 1, -1, 0}, {0, -1, 0, 1}};
    const auto terms = core::makeCommuteTerms(moves);
    const double beta = 0.9;

    circuit::Circuit c(n);
    core::appendDriverLayer(c, terms, beta);
    const Matrix got = sim::circuitUnitary(c);

    Matrix expect = Matrix::identity(16);
    for (const auto &t : terms)
        expect = linalg::expUnitary(core::denseTerm(t, n), beta) * expect;
    EXPECT_LT(linalg::phaseDistance(expect, got), 1e-9);
}
