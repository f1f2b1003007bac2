/**
 * @file
 * Unit and property tests for the commute-Hamiltonian machinery (Eq. 3/5,
 * Eq. 11/12): dense structure, commutation with the constraint operator,
 * eigenstates, and the pair-rotation fast path against dense expm.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/commute.hpp"
#include "core/movebasis.hpp"
#include "linalg/expm.hpp"
#include "linalg/paulis.hpp"
#include "problems/suite.hpp"
#include "sim/statevector.hpp"

using namespace chocoq;
using core::CommuteTerm;
using linalg::Cplx;
using linalg::Matrix;

namespace
{

/** Random move vector over n qubits with at least one non-zero entry. */
std::vector<int>
randomMove(Rng &rng, int n)
{
    std::vector<int> u(n, 0);
    bool nonzero = false;
    while (!nonzero) {
        for (int i = 0; i < n; ++i) {
            u[i] = rng.intIn(-1, 1);
            nonzero = nonzero || u[i] != 0;
        }
    }
    return u;
}

/** [A, B] max-abs entry. */
double
commutatorNorm(const Matrix &a, const Matrix &b)
{
    return (a * b - b * a).maxAbs();
}

} // namespace

TEST(CommuteTerm, PaperSigmaMatrices)
{
    // Eq. (5): sigma^{+1} = [[0,0],[1,0]], sigma^{-1} = [[0,1],[0,0]].
    const Matrix raise = linalg::sigmaRaise();
    EXPECT_EQ(raise.at(1, 0), Cplx(1.0, 0.0));
    EXPECT_EQ(raise.at(0, 1), Cplx(0.0, 0.0));
    const Matrix lower = linalg::sigmaLower();
    EXPECT_EQ(lower.at(0, 1), Cplx(1.0, 0.0));
    EXPECT_EQ(lower.at(1, 0), Cplx(0.0, 0.0));
}

TEST(CommuteTerm, MakeTermExtractsSupportAndPattern)
{
    // The paper's running example u1 = [-1, 1, -1, 0] (Eq. 6).
    const CommuteTerm t = core::makeCommuteTerm({-1, 1, -1, 0});
    EXPECT_EQ(t.support, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(t.supportMask, 0b0111u);
    // v = (1+u)/2 = [0, 1, 0] -> bit 1 set.
    EXPECT_EQ(t.vBits, 0b0010u);
}

TEST(CommuteTerm, RejectsAllZeroMove)
{
    const std::vector<int> zero(3, 0);
    EXPECT_THROW(core::makeCommuteTerm(zero), InternalError);
}

TEST(CommuteTerm, RejectsOutOfAlphabetEntries)
{
    const std::vector<int> bad{2, 0, 0};
    EXPECT_THROW(core::makeCommuteTerm(bad), InternalError);
}

TEST(CommuteDense, SingleVariableTermIsPauliX)
{
    // Hc(u) with a single non-zero entry is X on that qubit.
    const CommuteTerm t = core::makeCommuteTerm({0, 1});
    const Matrix h = core::denseTerm(t, 2);
    const Matrix expect = linalg::embed1q(linalg::pauliX(), 1, 2);
    EXPECT_LT(h.maxAbsDiff(expect), 1e-12);
}

TEST(CommuteDense, TermIsHermitian)
{
    Rng rng(21);
    for (int n = 2; n <= 5; ++n) {
        const CommuteTerm t = core::makeCommuteTerm(randomMove(rng, n));
        EXPECT_TRUE(core::denseTerm(t, n).isHermitian());
    }
}

TEST(CommuteDense, PaperExampleEq6FirstTerm)
{
    // Hc(u1) = sigma-^1 sigma+^2 sigma-^3 + h.c. couples |010> and |101>.
    const CommuteTerm t = core::makeCommuteTerm({-1, 1, -1});
    const Matrix h = core::denseTerm(t, 3);
    // |010> has index 0b010 = 2 (x2=1); |101> has index 0b101 = 5.
    EXPECT_NEAR(std::abs(h.at(2, 5)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(h.at(5, 2)), 1.0, 1e-12);
    // Every other entry vanishes.
    double off = 0.0;
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            if (!((r == 2 && c == 5) || (r == 5 && c == 2)))
                off = std::max(off, std::abs(h.at(r, c)));
    EXPECT_LT(off, 1e-12);
}

TEST(CommuteDense, EigenstatesWithEigenvaluesPlusMinusOne)
{
    // Eq. (11)/(12): Hc |x+-> = +-|x+->.
    const CommuteTerm t = core::makeCommuteTerm({1, -1, 0, 1});
    const int n = 4;
    const Matrix h = core::denseTerm(t, n);
    const Basis v = t.vBits;
    const Basis vbar = v ^ t.supportMask;
    linalg::CVec plus(1 << n, Cplx{0, 0}), minus(1 << n, Cplx{0, 0});
    plus[v] = plus[vbar] = 1.0 / std::sqrt(2.0);
    minus[v] = 1.0 / std::sqrt(2.0);
    minus[vbar] = -1.0 / std::sqrt(2.0);
    const auto hp = h.apply(plus);
    const auto hm = h.apply(minus);
    for (std::size_t i = 0; i < plus.size(); ++i) {
        EXPECT_NEAR(std::abs(hp[i] - plus[i]), 0.0, 1e-12);
        EXPECT_NEAR(std::abs(hm[i] + minus[i]), 0.0, 1e-12);
    }
}

TEST(CommuteDense, AnnihilatesNonPatternStates)
{
    const CommuteTerm t = core::makeCommuteTerm({1, 1, 0});
    const Matrix h = core::denseTerm(t, 3);
    // |010> matches neither |11x> nor |00x> pattern on support {0,1}.
    linalg::CVec other(8, Cplx{0, 0});
    other[0b010] = 1.0;
    const auto res = h.apply(other);
    for (const auto &x : res)
        EXPECT_NEAR(std::abs(x), 0.0, 1e-12);
}

/** Property sweep: commutation with the constraint operator (Sec. III-A). */
class CommuteWithConstraint : public ::testing::TestWithParam<int>
{
};

TEST_P(CommuteWithConstraint, DriverCommutesWithConstraintOperator)
{
    const int seed = GetParam();
    Rng rng(seed);
    const int n = rng.intIn(2, 5);
    // Random integer constraint row.
    std::vector<int> coeffs(n);
    for (auto &c : coeffs)
        c = rng.intIn(-2, 2);
    bool nonzero = false;
    for (int c : coeffs)
        nonzero = nonzero || c != 0;
    if (!nonzero)
        coeffs[0] = 1;

    // Enumerate all moves u with C u = 0 and check [Hc(u), C-hat] = 0.
    const Matrix chat = core::denseConstraintOperator(coeffs, n);
    int checked = 0;
    std::vector<int> u(n, 0);
    const int total = 1;
    (void)total;
    for (long code = 1; code < std::pow(3, n); ++code) {
        long rest = code;
        long dot = 0;
        bool any = false;
        for (int i = 0; i < n; ++i) {
            u[i] = static_cast<int>(rest % 3) - 1;
            rest /= 3;
            dot += static_cast<long>(coeffs[i]) * u[i];
            any = any || u[i] != 0;
        }
        if (!any || dot != 0)
            continue;
        const CommuteTerm t = core::makeCommuteTerm(u);
        EXPECT_LT(commutatorNorm(core::denseTerm(t, n), chat), 1e-12)
            << "u failed commutation for seed " << seed;
        ++checked;
        if (checked >= 8)
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommuteWithConstraint,
                         ::testing::Range(0, 12));

/** Property sweep: pair rotation equals dense expm. */
class PairRotationMatchesExpm : public ::testing::TestWithParam<int>
{
};

TEST_P(PairRotationMatchesExpm, OnRandomStates)
{
    Rng rng(1000 + GetParam());
    const int n = rng.intIn(2, 6);
    const CommuteTerm t = core::makeCommuteTerm(randomMove(rng, n));
    const double beta = rng.uniform(-2.0, 2.0);

    const Matrix u = linalg::expUnitary(core::denseTerm(t, n), beta);

    // Random normalized state.
    sim::StateVector state(n);
    linalg::CVec psi(std::size_t{1} << n);
    double norm2 = 0.0;
    for (auto &a : psi) {
        a = Cplx{rng.normal(), rng.normal()};
        norm2 += std::norm(a);
    }
    for (auto &a : psi)
        a /= std::sqrt(norm2);
    state.amplitudes() = psi;

    state.applyPairRotation(t.supportMask, t.vBits, std::cos(beta),
                            std::sin(beta));
    const auto expect = u.apply(psi);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(std::abs(state.amplitudes()[i] - expect[i]), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairRotationMatchesExpm,
                         ::testing::Range(0, 20));

TEST(CommuteDense, TotalNonZerosMatchesSupportSizes)
{
    const auto terms = core::makeCommuteTerms(
        {{-1, 1, -1, 0}, {0, -1, 0, 1}});
    // 3 + 2 = 5, the count used by the Sec. IV-C depth argument.
    EXPECT_EQ(core::totalNonZeros(terms), 5u);
}

TEST(CommuteDense, ConstraintOperatorIsDiagonalZSum)
{
    const std::vector<int> coeffs{1, -2};
    const Matrix chat = core::denseConstraintOperator(coeffs, 2);
    // Eigenvalue on |x1 x2> is sum_i c_i (1 - 2 x_i).
    for (Basis idx = 0; idx < 4; ++idx) {
        double expect = 0.0;
        for (int i = 0; i < 2; ++i)
            expect += coeffs[i] * (1.0 - 2.0 * getBit(idx, i));
        EXPECT_NEAR(chat.at(idx, idx).real(), expect, 1e-12);
    }
}
