#include "circuit/circuit.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace chocoq::circuit
{

Circuit::Circuit(int num_data) : numData_(num_data), numQubits_(num_data)
{
    CHOCOQ_ASSERT(num_data >= 0, "negative register width");
}

int
Circuit::addAncilla()
{
    return numQubits_++;
}

void
Circuit::reserveAncillas(int count)
{
    const int want = numData_ + count;
    if (numQubits_ < want)
        numQubits_ = want;
}

void
Circuit::add(Gate g)
{
    CHOCOQ_ASSERT(!g.qubits.empty(), "gate without operands");
    for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        const int q = g.qubits[i];
        CHOCOQ_ASSERT(q >= 0 && q < numQubits_,
                      "gate operand out of register");
        for (std::size_t j = i + 1; j < g.qubits.size(); ++j)
            CHOCOQ_ASSERT(q != g.qubits[j], "duplicate gate operand");
    }
    gates_.push_back(std::move(g));
}

void
Circuit::append(const Circuit &other)
{
    CHOCOQ_ASSERT(other.numQubits() <= numQubits_,
                  "appending a wider circuit");
    for (const auto &g : other.gates())
        gates_.push_back(g);
}

int
Circuit::depth() const
{
    std::vector<int> level(numQubits_, 0);
    int max_level = 0;
    for (const auto &g : gates_) {
        int at = 0;
        for (int q : g.qubits)
            at = std::max(at, level[q]);
        ++at;
        for (int q : g.qubits)
            level[q] = at;
        max_level = std::max(max_level, at);
    }
    return max_level;
}

std::size_t
Circuit::multiQubitGateCount() const
{
    std::size_t n = 0;
    for (const auto &g : gates_)
        if (g.qubits.size() >= 2)
            ++n;
    return n;
}

} // namespace chocoq::circuit
