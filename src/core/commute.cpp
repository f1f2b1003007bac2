#include "core/commute.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/expm.hpp"
#include "linalg/givens.hpp"
#include "linalg/paulis.hpp"

namespace chocoq::core
{

CommuteTerm
makeCommuteTerm(const std::vector<int> &u)
{
    CommuteTerm term;
    term.u = u;
    for (std::size_t i = 0; i < u.size(); ++i) {
        CHOCOQ_ASSERT(u[i] >= -1 && u[i] <= 1,
                      "move entry outside {-1,0,1}");
        if (u[i] == 0)
            continue;
        term.supportMask |= Basis{1} << i;
        term.support.push_back(static_cast<int>(i));
        if (u[i] > 0)
            term.vBits |= Basis{1} << i;
    }
    CHOCOQ_ASSERT(!term.support.empty(), "move vector is all zero");
    return term;
}

std::vector<CommuteTerm>
makeCommuteTerms(const std::vector<std::vector<int>> &moves)
{
    std::vector<CommuteTerm> out;
    out.reserve(moves.size());
    for (const auto &u : moves)
        out.push_back(makeCommuteTerm(u));
    return out;
}

std::size_t
totalNonZeros(const std::vector<CommuteTerm> &terms)
{
    std::size_t acc = 0;
    for (const auto &t : terms)
        acc += t.support.size();
    return acc;
}

linalg::Matrix
denseTerm(const CommuteTerm &term, int n)
{
    CHOCOQ_ASSERT(static_cast<int>(term.u.size()) <= n,
                  "term wider than register");
    std::vector<linalg::Matrix> ops;
    ops.reserve(n);
    for (int i = 0; i < n; ++i) {
        const int ui = i < static_cast<int>(term.u.size()) ? term.u[i] : 0;
        ops.push_back(linalg::sigmaOf(ui));
    }
    linalg::Matrix fwd = linalg::kronAll(ops);
    return fwd + fwd.dagger();
}

linalg::Matrix
denseDriver(const std::vector<CommuteTerm> &terms, int n)
{
    linalg::Matrix h(std::size_t{1} << n, std::size_t{1} << n);
    for (const auto &t : terms)
        h = h + denseTerm(t, n);
    return h;
}

linalg::Matrix
denseConstraintOperator(const std::vector<int> &coeffs, int n)
{
    linalg::Matrix op(std::size_t{1} << n, std::size_t{1} << n);
    for (int i = 0; i < n && i < static_cast<int>(coeffs.size()); ++i) {
        if (coeffs[i] == 0)
            continue;
        op = op + linalg::embed1q(linalg::pauliZ(), i, n)
                      * linalg::Cplx{static_cast<double>(coeffs[i]), 0.0};
    }
    return op;
}

void
applyCommuteLayer(sim::StateVector &state,
                  const std::vector<CommuteTerm> &terms, double beta)
{
    const double c = std::cos(beta);
    const double s = std::sin(beta);
    for (const auto &term : terms)
        state.applyPairRotation(term.supportMask, term.vBits, c, s);
}

std::size_t
genericTermSynthesisGates(const CommuteTerm &term, double beta)
{
    // Compact the term onto its support and synthesize the 2^k unitary.
    std::vector<int> compact;
    compact.reserve(term.support.size());
    for (int q : term.support)
        compact.push_back(term.u[q]);
    const CommuteTerm local = makeCommuteTerm(compact);
    const int k = static_cast<int>(local.support.size());
    const linalg::Matrix u =
        linalg::expUnitary(denseTerm(local, k), beta);
    return linalg::synthesizeTwoLevel(u, k).basicGates;
}

} // namespace chocoq::core
