#include "core/circuits.hpp"

#include "common/error.hpp"

namespace chocoq::core
{

namespace
{

/** Bit of vBits at support position i (the v_i of Eq. 12). */
int
vAt(const CommuteTerm &term, std::size_t i)
{
    return getBit(term.vBits, term.support[i]);
}

} // namespace

void
appendConvertGates(circuit::Circuit &c, const CommuteTerm &term)
{
    const auto &sup = term.support;
    const std::size_t k = sup.size();
    // Algorithm 1: walk the support from the last qubit down to the
    // second, turning qubits 2..k into |1> for both |v> and |v-bar>.
    for (std::size_t i = k; i-- > 1;) {
        c.cx(sup[i - 1], sup[i]);
        if (vAt(term, i) == vAt(term, i - 1))
            c.x(sup[i]);
    }
    // |s+-> = (|0> +- |1>)|1...1> -> |0/1, 1...1>.
    c.h(sup[0]);
}

void
appendConvertGatesInverse(circuit::Circuit &c, const CommuteTerm &term)
{
    const auto &sup = term.support;
    const std::size_t k = sup.size();
    c.h(sup[0]);
    for (std::size_t i = 1; i < k; ++i) {
        if (vAt(term, i) == vAt(term, i - 1))
            c.x(sup[i]);
        c.cx(sup[i - 1], sup[i]);
    }
}

void
appendCommuteTermCircuit(circuit::Circuit &c, const CommuteTerm &term,
                         double beta)
{
    const auto &sup = term.support;
    appendConvertGates(c, term);
    // X1 P(-beta) X1 puts e^{-i beta} on |0 1...1>.
    c.x(sup[0]);
    c.mcp(sup, -beta);
    c.x(sup[0]);
    // P(beta) puts e^{+i beta} on |1 1...1>.
    c.mcp(sup, beta);
    appendConvertGatesInverse(c, term);
}

circuit::Circuit
commuteTermCircuit(const CommuteTerm &term, int n, double beta)
{
    circuit::Circuit c(n);
    appendCommuteTermCircuit(c, term, beta);
    return c;
}

void
appendDriverLayer(circuit::Circuit &c, const std::vector<CommuteTerm> &terms,
                  double beta)
{
    for (const auto &term : terms)
        appendCommuteTermCircuit(c, term, beta);
}

void
appendObjectivePhase(circuit::Circuit &c, const model::Polynomial &f,
                     double gamma)
{
    for (const auto &[vars, coeff] : f.terms()) {
        if (vars.empty())
            continue; // constant: global phase only
        const double phi = -gamma * coeff;
        if (phi == 0.0)
            continue;
        c.mcp(vars, phi);
    }
}

void
appendBasisPreparation(circuit::Circuit &c, Basis init)
{
    for (int q = 0; q < c.numData(); ++q)
        if (getBit(init, q))
            c.x(q);
}

void
appendIdentityPadding(circuit::Circuit &c, std::size_t pairs)
{
    if (c.numData() < 2) {
        for (std::size_t i = 0; i < 2 * pairs; ++i)
            c.x(0);
        return;
    }
    for (std::size_t i = 0; i < pairs; ++i) {
        const int a = static_cast<int>(i % (c.numData() - 1));
        c.cx(a, a + 1);
        c.cx(a, a + 1);
    }
}

circuit::Circuit
chocoAnsatz(int n, Basis init, const model::Polynomial &f,
            const std::vector<CommuteTerm> &terms,
            const std::vector<double> &thetas)
{
    CHOCOQ_ASSERT(thetas.size() % 2 == 0,
                  "theta must hold gamma/beta pairs");
    circuit::Circuit c(n);
    appendBasisPreparation(c, init);
    const std::size_t layers = thetas.size() / 2;
    for (std::size_t l = 0; l < layers; ++l) {
        appendObjectivePhase(c, f, thetas[2 * l]);
        appendDriverLayer(c, terms, thetas[2 * l + 1]);
    }
    return c;
}

} // namespace chocoq::core
