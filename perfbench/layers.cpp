/**
 * @file
 * Per-layer measurement from outside the library: compile sub-stages
 * replayed through the public stage functions, kernel families replayed
 * on a job's compiled artifacts, triad bandwidth ceilings, and kernel
 * tallies read from sinks or from the stats probe.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "common/timer.hpp"
#include "core/commute.hpp"
#include "core/eliminate.hpp"
#include "core/layer_fusion.hpp"
#include "core/movebasis.hpp"
#include "model/exact.hpp"
#include "perfbench.hpp"
#include "service/json.hpp"
#include "sim/statevector.hpp"

namespace perfbench
{

using chocoq::Timer;
namespace core = chocoq::core;
namespace obs = chocoq::obs;

CompileSplit
replayCompile(const chocoq::model::Problem &p, const core::ChocoQOptions &opts)
{
    // Same calls, same order as ChocoQSolver::compile.
    CompileSplit out;
    Timer t;
    const int e = std::min(opts.eliminate, p.numVars() - 1);
    const core::EliminationPlan plan = core::chooseElimination(p, e);
    const auto subs = core::buildSubInstances(p, plan);
    out.eliminateMs += t.ms();
    out.keptVars = static_cast<int>(plan.kept.size());
    for (const auto &sub : subs) {
        t.reset();
        const auto init = chocoq::model::findFeasible(sub.reduced);
        out.eliminateMs += t.ms();
        if (!init)
            continue;
        ++out.subInstances;

        t.reset();
        const core::MoveBasis rb = core::computeMoveBasis(sub.reduced);
        out.movebasisMs += t.ms();

        t.reset();
        const auto moves = core::expandMoveSet(
            rb, sub.reduced.constraints(),
            std::max<std::size_t>(opts.moveSetFactor, 1)
                * std::max<std::size_t>(rb.moves.size(), 1));
        const auto terms = core::makeCommuteTerms(moves);
        out.movesetMs += t.ms();

        t.reset();
        const chocoq::model::Polynomial objective =
            sub.reduced.minimizedObjective();
        std::vector<double> table(std::size_t{1} << out.keptVars);
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = objective.evaluate(i);
        out.tabulateMs += t.ms();

        if (opts.engine.fusion) {
            t.reset();
            const core::FusedLayerPlan fused =
                core::buildFusedLayerPlan(table, terms);
            out.fusionPlanMs += t.ms();
            if (fused.termCount != terms.size())
                throw std::runtime_error("fusion plan lost terms");
        }
    }
    return out;
}

void
addCompileSplit(const CompileSplit &split, PerLayer &layers)
{
    layers.eliminateMs += split.eliminateMs;
    layers.movebasisMs += split.movebasisMs;
    layers.movesetMs += split.movesetMs;
    layers.tabulateMs += split.tabulateMs;
    layers.fusionPlanMs += split.fusionPlanMs;
}

void
replayStructures(
    const std::vector<std::pair<const chocoq::model::Problem *,
                                std::uint64_t>> &problems_and_feasible,
    PerLayer &layers)
{
    const core::ChocoQSolver solver;
    double useful = 0.0;
    double swept = 0.0;
    std::shared_ptr<const core::ChocoQArtifacts> largest;
    for (const auto &[p, feasible] : problems_and_feasible) {
        Timer t;
        auto art = solver.compile(*p);
        layers.compileMs += t.ms();
        const CompileSplit split = replayCompile(*p, solver.options());
        addCompileSplit(split, layers);
        useful += static_cast<double>(feasible);
        swept += split.subInstances * std::ldexp(1.0, split.keptVars);
        if (!largest
            || art->subs.front().numQubits > largest->subs.front().numQubits)
            largest = std::move(art);
    }
    layers.compileUnattributedMs =
        layers.compileMs
        - (layers.eliminateMs + layers.movebasisMs + layers.movesetMs
           + layers.tabulateMs + layers.fusionPlanMs);
    layers.usefulAmpFrac = swept > 0.0 ? useful / swept : 0.0;
    if (largest)
        replayKernels(*largest, layers);
}

namespace
{

/** Run @p once repeatedly for at least @p min_seconds; return the rate
 * of the kernel @p id as recorded by a sink on @p state. */
template <class F>
KernelRate
timeKernel(chocoq::sim::StateVector &state, obs::KernelId id, F &&once,
           double min_seconds)
{
    obs::KernelCounterSink sink;
    once(); // warm caches and scratch outside the timed window
    state.setCounterSink(&sink);
    Timer t;
    do {
        once();
    } while (t.seconds() < min_seconds);
    const double seconds = t.seconds();
    state.setCounterSink(nullptr);
    const double amps = static_cast<double>(sink.tally(id).amps);
    KernelRate rate;
    if (amps > 0.0) {
        rate.nsPerAmp = seconds * 1e9 / amps;
        rate.gbps = amps * obs::kernelCost(id).bytesPerAmp / seconds / 1e9;
    }
    return rate;
}

/** Size of the largest cache level in sysfs (0 when unreadable). */
std::size_t
lastLevelCacheBytes()
{
    std::size_t best = 0;
    for (int idx = 0; idx < 8; ++idx) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index"
                         + std::to_string(idx) + "/size");
        std::string text;
        if (!(in >> text) || text.empty())
            continue;
        std::size_t value = std::stoull(text);
        const char unit = text.back();
        if (unit == 'K')
            value <<= 10;
        else if (unit == 'M')
            value <<= 20;
        best = std::max(best, value);
    }
    return best;
}

/** Best-of-passes STREAM triad a = b + s c over three arrays of
 * @p bytes_per_array each; GB/s counts 3 x bytes per pass. */
double
triadGbps(std::size_t bytes_per_array, int passes)
{
    const std::size_t n = std::max<std::size_t>(bytes_per_array / 8, 1024);
    std::vector<double> a(n, 0.0), b(n, 1.0), cvec(n, 2.0);
    const double scalar = 0.5;
    double best = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
        Timer t;
        double *pa = a.data();
        const double *pb = b.data();
        const double *pc = cvec.data();
        for (std::size_t i = 0; i < n; ++i)
            pa[i] = pb[i] + scalar * pc[i];
        const double secs = t.seconds();
        best = std::max(best, 3.0 * 8.0 * static_cast<double>(n) / secs
                                  / 1e9);
    }
    volatile double keep = a[n / 2];
    (void)keep;
    return best;
}

/** Triad bandwidth at the job's state size and at four times the
 * last-level cache (total over the three arrays). */
void
measureTriad(std::size_t state_bytes, PerLayer &layers)
{
    // Cache-resident ceiling: three arrays of the job's state size, best
    // of enough passes to stream ~64 MB.
    const int small_passes = static_cast<int>(std::clamp<std::size_t>(
        (std::size_t{64} << 20) / std::max<std::size_t>(state_bytes, 1), 5,
        2000));
    layers.triadStateBytes = 3.0 * static_cast<double>(state_bytes);
    layers.triadStateGbps = triadGbps(state_bytes, small_passes);

    // DRAM ceiling: total working set of at least four times the
    // last-level cache (sysfs; 32 MiB when unknown).
    std::size_t llc = lastLevelCacheBytes();
    if (llc == 0)
        llc = std::size_t{32} << 20;
    const std::size_t per_array = (4 * llc + 2) / 3;
    layers.triadDramBytes = 3.0 * static_cast<double>(per_array);
    layers.triadDramGbps = triadGbps(per_array, 3);
}

} // namespace

void
replayKernels(const core::ChocoQArtifacts &art, PerLayer &layers)
{
    const core::CompiledSub &cs = art.subs.front();
    chocoq::sim::StateVector state(cs.numQubits);
    const double amp = 1.0 / std::sqrt(static_cast<double>(state.dim()));
    std::fill(state.amplitudes().begin(), state.amplitudes().end(),
              chocoq::sim::Cplx(amp, 0.0));
    layers.replayQubits = cs.numQubits;

    // A plan always exists when fusion is on; rebuild one when the
    // artifacts were compiled without it.
    const core::FusedLayerPlan plan =
        cs.fusedPlan ? *cs.fusedPlan
                     : core::buildFusedLayerPlan(*cs.costTable, *cs.terms);
    const double gamma = 0.37;
    const double c = std::cos(0.61);
    const double s = std::sin(0.61);
    std::vector<chocoq::sim::Cplx> phases;
    std::vector<double> distinct = plan.distinctValues;
    std::vector<std::uint16_t> index = plan.valueIndex;
    if (!plan.compressedPhase) {
        // The fused path would not compress this table; replay the
        // compressed kernels on a one-value table of the same shape.
        distinct = {0.0};
        index.assign(state.dim(), 0);
    }
    for (const double v : distinct)
        phases.push_back(std::polar(1.0, -gamma * v));

    std::vector<const core::CommuteGroup *> singles;
    std::vector<const core::CommuteGroup *> multis;
    for (const auto &g : plan.groups)
        (g.vBits.size() == 1 ? singles : multis).push_back(&g);
    const core::CommuteTerm &t0 = cs.terms->front();
    std::vector<chocoq::sim::Cplx> phase_scratch;
    volatile double sinkhole = 0.0;

    constexpr double kMinSeconds = 0.05;
    for (std::size_t i = 0; i < kReplayKernels.size(); ++i) {
        const obs::KernelId id = kReplayKernels[i];
        KernelRate rate;
        switch (id) {
        case obs::KernelId::PhasedPairRotationGroup: {
            if (plan.groups.empty())
                break;
            const core::CommuteGroup &g =
                multis.empty() ? *singles.front() : *multis.front();
            rate = timeKernel(state, id, [&] {
                state.applyPhasedPairRotationGroup(
                    g.supportMask, g.vBits.data(), g.vBits.size(), c, s,
                    phases.data(), index.data());
            }, kMinSeconds);
            break;
        }
        case obs::KernelId::PairRotationGroup:
            rate = timeKernel(state, id, [&] {
                if (multis.empty()) {
                    state.applyPairRotationGroup(t0.supportMask, &t0.vBits,
                                                 1, c, s);
                    return;
                }
                for (const auto *g : multis)
                    state.applyPairRotationGroup(g->supportMask,
                                                 g->vBits.data(),
                                                 g->vBits.size(), c, s);
            }, kMinSeconds);
            break;
        case obs::KernelId::PairRotation:
            rate = timeKernel(state, id, [&] {
                if (singles.empty()) {
                    state.applyPairRotation(t0.supportMask, t0.vBits, c, s);
                    return;
                }
                for (const auto *g : singles)
                    state.applyPairRotation(g->supportMask, g->vBits[0], c,
                                            s);
            }, kMinSeconds);
            break;
        case obs::KernelId::PhaseTableCompressed:
            rate = timeKernel(state, id, [&] {
                state.applyPhaseTableCompressed(distinct, index, gamma,
                                                phase_scratch);
            }, kMinSeconds);
            break;
        case obs::KernelId::ExpectationTableCompressed:
            rate = timeKernel(state, id, [&] {
                sinkhole = sinkhole
                           + state.expectationTableCompressed(distinct,
                                                              index);
            }, kMinSeconds);
            break;
        default:
            break;
        }
        layers.rates[i] = rate;
    }
    measureTriad(state.dim() * sizeof(chocoq::sim::Cplx), layers);
}


void
addKernels(const obs::KernelCounterSink &sink, PerLayer &layers)
{
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const auto &t = sink.tally(static_cast<obs::KernelId>(k));
        layers.kernels[k].calls += t.calls;
        layers.kernels[k].amps += t.amps;
    }
}

void
kernelsFromStats(const chocoq::service::Json &stats, PerLayer &layers)
{
    const chocoq::service::Json *counters = stats.find("counters");
    if (!counters)
        return;
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const std::string base =
            std::string("kernels.")
            + obs::kernelName(static_cast<obs::KernelId>(k));
        layers.kernels[k].calls = static_cast<std::uint64_t>(
            counters->getNumber(base + ".calls", 0.0));
        layers.kernels[k].amps = static_cast<std::uint64_t>(
            counters->getNumber(base + ".amps", 0.0));
    }
}

void
finishKernelTotals(PerLayer &layers, std::size_t jobs)
{
    double calls = 0.0;
    double amps = 0.0;
    layers.bytesModeled = 0.0;
    layers.flopsModeled = 0.0;
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const auto &t = layers.kernels[k];
        const auto &cost = obs::kernelCost(static_cast<obs::KernelId>(k));
        calls += static_cast<double>(t.calls);
        amps += static_cast<double>(t.amps);
        layers.bytesModeled += static_cast<double>(t.amps) * cost.bytesPerAmp;
        layers.flopsModeled += static_cast<double>(t.amps) * cost.flopsPerAmp;
    }
    layers.callsPerJob = jobs > 0 ? calls / static_cast<double>(jobs) : 0.0;
    layers.ampsPerCall = calls > 0.0 ? amps / calls : 0.0;
}

} // namespace perfbench
