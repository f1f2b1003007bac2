#include "core/feasible_subspace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/error.hpp"
#include "core/layer_fusion.hpp"

namespace chocoq::core
{

std::size_t
FeasibleSubspace::memoryBytes() const
{
    return sizeof(FeasibleSubspace) + states.capacity() * sizeof(Basis)
           + (pairs.capacity() + termOffsets.capacity())
                 * sizeof(std::uint32_t)
           + distinctValues.capacity() * sizeof(double)
           + valueIndex.capacity() * sizeof(std::uint16_t);
}

std::optional<FeasibleSubspace>
buildFeasibleSubspace(Basis init, const std::vector<CommuteTerm> &terms,
                      const std::vector<double> &cost_table,
                      std::size_t max_states)
{
    CHOCOQ_ASSERT(init < cost_table.size(), "init outside the cost table");
    max_states = std::min<std::size_t>(
        max_states, std::numeric_limits<std::uint32_t>::max());
    if (max_states == 0)
        return std::nullopt;

    // BFS over the move set: x and x ^ supportMask are neighbours when x
    // carries the term's v or v-bar pattern on the support.
    FeasibleSubspace fs;
    fs.states.push_back(init);
    std::unordered_set<Basis> seen{init};
    for (std::size_t head = 0; head < fs.states.size(); ++head) {
        const Basis x = fs.states[head];
        for (const auto &t : terms) {
            const Basis on_support = x & t.supportMask;
            if (on_support != t.vBits
                && on_support != (t.vBits ^ t.supportMask))
                continue;
            const Basis y = x ^ t.supportMask;
            if (!seen.insert(y).second)
                continue;
            if (fs.states.size() == max_states)
                return std::nullopt;
            fs.states.push_back(y);
        }
    }
    std::sort(fs.states.begin(), fs.states.end());

    const auto compact = [&](Basis x) {
        const auto it =
            std::lower_bound(fs.states.begin(), fs.states.end(), x);
        CHOCOQ_ASSERT(it != fs.states.end() && *it == x,
                      "reachable set not closed under the move set");
        return static_cast<std::uint32_t>(it - fs.states.begin());
    };
    fs.initIndex = compact(init);

    const auto size = static_cast<std::uint32_t>(fs.states.size());
    fs.termOffsets.reserve(terms.size() + 1);
    fs.termOffsets.push_back(0);
    for (const auto &t : terms) {
        for (std::uint32_t i = 0; i < size; ++i) {
            if ((fs.states[i] & t.supportMask) != t.vBits)
                continue;
            fs.pairs.push_back(i);
            fs.pairs.push_back(compact(fs.states[i] ^ t.supportMask));
        }
        fs.termOffsets.push_back(
            static_cast<std::uint32_t>(fs.pairs.size() / 2));
    }

    std::vector<double> values(fs.states.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = cost_table[fs.states[i]];
    if (!compressValues(values, fs.distinctValues, fs.valueIndex))
        return std::nullopt;
    return fs;
}

std::shared_ptr<const FeasibleSubspace>
selectFeasibleSubspace(Basis init, const std::vector<CommuteTerm> &terms,
                       const std::vector<double> &cost_table)
{
    auto fs = buildFeasibleSubspace(
        init, terms, cost_table,
        cost_table.size() / kDenseAmpsPerSubspaceState);
    if (!fs)
        return nullptr;
    return std::make_shared<const FeasibleSubspace>(std::move(*fs));
}

void
applySubspaceLayer(sim::StateVector &state, const FeasibleSubspace &fs,
                   double gamma, double beta,
                   std::vector<sim::Cplx> &phase_scratch)
{
    CHOCOQ_ASSERT(state.dim() == fs.states.size(),
                  "compact state does not match the subspace");
    // applyPhaseTableCompressed's phi expression and applyCommuteLayer's
    // shared (cos, sin): the dense layer's exact inputs.
    phase_scratch.resize(fs.distinctValues.size());
    for (std::size_t d = 0; d < fs.distinctValues.size(); ++d) {
        const double phi = -gamma * fs.distinctValues[d];
        phase_scratch[d] = sim::Cplx{std::cos(phi), std::sin(phi)};
    }
    state.applySubspaceLayer(phase_scratch.data(), fs.valueIndex.data(),
                             fs.pairs.data(), fs.termOffsets.data(),
                             fs.termOffsets.size() - 1, std::cos(beta),
                             std::sin(beta));
}

} // namespace chocoq::core
