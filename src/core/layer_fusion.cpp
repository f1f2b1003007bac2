#include "core/layer_fusion.hpp"

#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace chocoq::core
{

namespace
{

/** Exact double identity for value compression: distinct bit patterns
 * stay distinct (no epsilon merging — merged values would change the
 * sincos input and break bit-identity with the uncompressed sweep). */
std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

} // namespace

std::size_t
FusedLayerPlan::memoryBytes() const
{
    std::size_t bytes = sizeof(FusedLayerPlan);
    bytes += distinctValues.capacity() * sizeof(double);
    bytes += valueIndex.capacity() * sizeof(std::uint16_t);
    for (const auto &g : groups)
        bytes += sizeof(CommuteGroup) + g.vBits.capacity() * sizeof(Basis);
    return bytes;
}

bool
compressValues(const std::vector<double> &values,
               std::vector<double> &distinct,
               std::vector<std::uint16_t> &index)
{
    // Objective polynomials over a few integer-coefficient monomials
    // take far fewer distinct values than 2^k; bail out (rare) past the
    // uint16 index range.
    constexpr std::size_t kMaxDistinct = 1u << 16;
    std::unordered_map<std::uint64_t, std::uint16_t> seen;
    seen.reserve(256);
    distinct.clear();
    index.resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::uint64_t bits = doubleBits(values[i]);
        auto it = seen.find(bits);
        if (it == seen.end()) {
            if (seen.size() >= kMaxDistinct)
                return false;
            it = seen.emplace(bits, static_cast<std::uint16_t>(seen.size()))
                     .first;
            distinct.push_back(values[i]);
        }
        index[i] = it->second;
    }
    return !values.empty();
}

FusedLayerPlan
buildFusedLayerPlan(const std::vector<double> &cost_table,
                    const std::vector<CommuteTerm> &terms)
{
    FusedLayerPlan plan;

    // Diagonal half: value-compress the eigenvalue table, or keep the
    // plain table sweep for that sub when it does not compress.
    plan.compressedPhase =
        compressValues(cost_table, plan.distinctValues, plan.valueIndex);
    if (!plan.compressedPhase) {
        plan.distinctValues.clear();
        plan.valueIndex = {};
    }

    // Commute half: greedy in-order grouping. A term joins the current
    // group iff it shares the support mask and its pair set {v, v-bar}
    // is disjoint from every pair already in the group — the exactness
    // condition for reordering the per-run interleaved application.
    for (const auto &term : terms) {
        bool joined = false;
        if (!plan.groups.empty()) {
            CommuteGroup &g = plan.groups.back();
            if (g.supportMask == term.supportMask) {
                bool disjoint = true;
                for (const Basis v : g.vBits)
                    if (v == term.vBits
                        || v == (term.vBits ^ term.supportMask)) {
                        disjoint = false;
                        break;
                    }
                if (disjoint) {
                    g.vBits.push_back(term.vBits);
                    joined = true;
                }
            }
        }
        if (!joined) {
            CommuteGroup g;
            g.supportMask = term.supportMask;
            g.vBits.push_back(term.vBits);
            plan.groups.push_back(std::move(g));
        }
        ++plan.termCount;
    }
    return plan;
}

void
applyFusedObjectivePhase(sim::StateVector &state, const FusedLayerPlan &plan,
                         const std::vector<double> &cost_table, double gamma,
                         std::vector<sim::Cplx> &phase_scratch)
{
    if (plan.compressedPhase)
        state.applyPhaseTableCompressed(plan.distinctValues, plan.valueIndex,
                                        gamma, phase_scratch);
    else
        state.applyPhaseTable(cost_table, gamma);
}

void
applyFusedCommuteLayer(sim::StateVector &state, const FusedLayerPlan &plan,
                       double beta)
{
    const double c = std::cos(beta);
    const double s = std::sin(beta);
    for (const auto &g : plan.groups) {
        if (g.vBits.size() == 1)
            state.applyPairRotation(g.supportMask, g.vBits[0], c, s);
        else
            state.applyPairRotationGroup(g.supportMask, g.vBits.data(),
                                         g.vBits.size(), c, s);
    }
}

void
applyFusedLayer(sim::StateVector &state, const FusedLayerPlan &plan,
                const std::vector<double> &cost_table, double gamma,
                double beta, std::vector<sim::Cplx> &phase_scratch)
{
    if (!plan.compressedPhase || plan.groups.empty()) {
        applyFusedObjectivePhase(state, plan, cost_table, gamma,
                                 phase_scratch);
        applyFusedCommuteLayer(state, plan, beta);
        return;
    }
    // Per-distinct-value phases built with applyPhaseTableCompressed's
    // exact phi expression, then folded into the first group's sweep.
    phase_scratch.resize(plan.distinctValues.size());
    for (std::size_t d = 0; d < plan.distinctValues.size(); ++d) {
        const double phi = -gamma * plan.distinctValues[d];
        phase_scratch[d] = sim::Cplx{std::cos(phi), std::sin(phi)};
    }
    const double c = std::cos(beta);
    const double s = std::sin(beta);
    const CommuteGroup &g0 = plan.groups.front();
    state.applyPhasedPairRotationGroup(g0.supportMask, g0.vBits.data(),
                                       g0.vBits.size(), c, s,
                                       phase_scratch.data(),
                                       plan.valueIndex.data());
    for (std::size_t gi = 1; gi < plan.groups.size(); ++gi) {
        const CommuteGroup &g = plan.groups[gi];
        if (g.vBits.size() == 1)
            state.applyPairRotation(g.supportMask, g.vBits[0], c, s);
        else
            state.applyPairRotationGroup(g.supportMask, g.vBits.data(),
                                         g.vBits.size(), c, s);
    }
}

} // namespace chocoq::core
