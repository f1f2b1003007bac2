/**
 * @file
 * Differential accounting tests for the kernel telemetry
 * (obs/roofline.hpp): every instrumented kernel must record exactly the
 * analytically expected call and amplitude counts, the sink's byte/flop
 * totals must equal the static cost model applied to those counts, the
 * model's constants must equal the documented table, and attaching a
 * sink must not perturb the simulation by a single bit. The
 * counts are hand-derived from the kernels' documented touch sets (full
 * sweeps touch 2^n amplitudes, masked sweeps 2^(n-popcount), pair
 * sweeps 2^(n-k+1)), so a kernel that silently changes its traffic
 * shape fails here before it skews the kernels.bytes/flops counters.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "obs/roofline.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"

using namespace chocoq;
using linalg::Cplx;

namespace
{

constexpr int kQubits = 6;
constexpr std::size_t kDim = std::size_t{1} << kQubits;

/** Two-bit support masks used by every masked kernel below. */
constexpr Basis kMask2 = 0b000101;   // popcount 2
constexpr Basis kSupport = 0b001100; // popcount 2
constexpr Basis kVBitsA = 0b000100;
constexpr Basis kVBitsB = 0b001000;

struct Tables
{
    std::vector<double> table;
    std::vector<double> distinct;
    std::vector<std::uint16_t> index;
    std::vector<Cplx> phases;
};

Tables
makeTables()
{
    Tables t;
    t.table.resize(kDim);
    t.index.resize(kDim);
    t.distinct = {-1.5, 0.25, 2.0, 3.75};
    for (std::size_t i = 0; i < kDim; ++i) {
        t.index[i] = static_cast<std::uint16_t>(i % t.distinct.size());
        t.table[i] = t.distinct[t.index[i]];
    }
    t.phases.resize(t.distinct.size());
    for (std::size_t v = 0; v < t.distinct.size(); ++v)
        t.phases[v] = Cplx{std::cos(0.4 * t.distinct[v]),
                           -std::sin(0.4 * t.distinct[v])};
    return t;
}

/**
 * One call to every scalar kernel, fixed angles. The expected
 * amplitude count per kernel (dim = 2^6 = 64):
 *   full sweeps ............................ 64
 *   Controlled1q / PhaseMask (2 fixed bits)  16
 *   PairRotation (pair sweep) .............. 32
 *   PairRotationGroup (2 terms) ............ 64
 *   PhasedPairRotationGroup (gather+2 terms) 128
 *   SubspaceLayer (gather + 3 pairs) ........ 70
 * The subspace kernels read the 64 amplitudes as a compact state.
 */
void
runScalarScript(sim::StateVector &sv, const Tables &t)
{
    const Cplx d0{std::cos(0.3), std::sin(0.3)};
    const Cplx d1 = std::conj(d0);
    const Basis vbits[2] = {kVBitsA, kVBitsB};
    // Two terms over the compact state: pairs {0,1}, {2,3}, then {1,2}.
    const std::uint32_t pairs[6] = {0, 1, 2, 3, 1, 2};
    const std::uint32_t term_offsets[3] = {0, 2, 3};
    std::vector<Cplx> scratch;

    sv.apply1q(2, 0.6, 0.8, 0.8, -0.6);
    sv.applyDiagonal1q(1, d0, d1);
    sv.applyControlled1q(kMask2, 4, 0.0, 1.0, 1.0, 0.0);
    sv.applyPhaseMask(kMask2, 0.4);
    sv.applyPairRotation(kSupport, kVBitsA, 0.55, 0.45);
    sv.applyPairRotationGroup(kSupport, vbits, 2, 0.55, 0.45);
    sv.applyPhasedPairRotationGroup(kSupport, vbits, 2, 0.55, 0.45,
                                    t.phases.data(), t.index.data());
    sv.applyPhaseTable(t.table, 0.4);
    sv.applyPhaseTableCompressed(t.distinct, t.index, 0.4, scratch);
    sv.applySubspaceLayer(t.phases.data(), t.index.data(), pairs,
                          term_offsets, 2, 0.55, 0.45);
    double e = sv.expectationTable(t.table);
    e += sv.expectationTableCompressed(t.distinct, t.index);
    e += sv.expectationSubspace(t.distinct, t.index);
    ASSERT_TRUE(std::isfinite(e));
}

/** Expected per-kernel amplitude counts for one runScalarScript pass. */
std::uint64_t
expectedScalarAmps(obs::KernelId id)
{
    using K = obs::KernelId;
    switch (id) {
    case K::Controlled1q:
    case K::PhaseMask:
        return kDim >> 2; // two fixed bits
    case K::PairRotation:
        return kDim >> 1; // a pair sweep touches half the index space
    case K::PairRotationGroup:
        return 2 * (kDim >> 1); // two terms per group sweep
    case K::PhasedPairRotationGroup:
        return kDim + 2 * (kDim >> 1); // phase gather + two terms
    case K::SubspaceLayer:
        return kDim + 2 * 3; // phase gather + three pairs
    default:
        return kDim; // every full sweep / reduction
    }
}

void
checkScalarAccounting(const obs::KernelCounterSink &sink)
{
    double bytes = 0.0;
    double flops = 0.0;
    std::uint64_t amps = 0;
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const auto id = static_cast<obs::KernelId>(k);
        const auto &tally = sink.tally(id);
        EXPECT_EQ(tally.calls, 1u) << obs::kernelName(id);
        EXPECT_EQ(tally.amps, expectedScalarAmps(id)) << obs::kernelName(id);
        const auto &cost = obs::kernelCost(id);
        bytes += static_cast<double>(tally.amps) * cost.bytesPerAmp;
        flops += static_cast<double>(tally.amps) * cost.flopsPerAmp;
        amps += tally.amps;
    }
    EXPECT_EQ(sink.totalCalls(), obs::kKernelCount);
    EXPECT_EQ(sink.totalAmps(), amps);
    EXPECT_DOUBLE_EQ(sink.totalBytes(), bytes);
    EXPECT_DOUBLE_EQ(sink.totalFlops(), flops);
}

} // namespace

TEST(RooflineAccounting, ScalarKernelsMatchAnalyticModel)
{
    const Tables t = makeTables();
    for (int threads : {1, 3}) {
        sim::setSimThreads(threads);
        sim::StateVector sv(kQubits);
        obs::KernelCounterSink sink;
        sv.setCounterSink(&sink);
        runScalarScript(sv, t);
        checkScalarAccounting(sink);
    }
    sim::setSimThreads(0);
}

TEST(RooflineAccounting, AttachedSinkIsBitIdenticalToNullSink)
{
    const Tables t = makeTables();
    sim::StateVector plain(kQubits);
    sim::StateVector traced(kQubits);
    obs::KernelCounterSink sink;
    traced.setCounterSink(&sink);
    runScalarScript(plain, t);
    runScalarScript(traced, t);
    ASSERT_EQ(plain.amplitudes().size(), traced.amplitudes().size());
    EXPECT_EQ(std::memcmp(plain.amplitudes().data(),
                          traced.amplitudes().data(),
                          plain.amplitudes().size() * sizeof(Cplx)),
              0);
    EXPECT_FALSE(sink.empty());
}

TEST(RooflineSink, ResetMergeAndSummary)
{
    obs::KernelCounterSink a;
    obs::KernelCounterSink b;
    EXPECT_TRUE(a.empty());
    a.record(obs::KernelId::Apply1q, 64);
    a.record(obs::KernelId::Apply1q, 64);
    b.record(obs::KernelId::PhaseMask, 32);
    EXPECT_FALSE(a.empty());

    a.merge(b);
    EXPECT_EQ(a.tally(obs::KernelId::Apply1q).calls, 2u);
    EXPECT_EQ(a.tally(obs::KernelId::Apply1q).amps, 128u);
    EXPECT_EQ(a.tally(obs::KernelId::PhaseMask).calls, 1u);
    EXPECT_EQ(a.totalCalls(), 3u);
    EXPECT_EQ(a.totalAmps(), 160u);

    const std::string s = a.summary();
    EXPECT_NE(s.find("apply1q=2:128"), std::string::npos) << s;
    EXPECT_NE(s.find("phase_mask=1:32"), std::string::npos) << s;

    a.reset();
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.totalBytes(), 0.0);
}

TEST(RooflineModel, CostTableIsPinned)
{
    // The rows of the tables in docs/benchmarks.md ("Kernel cost model"),
    // in KernelId order. A changed constant changes every
    // kernels.bytes/flops counter and sim.bytes_modeled reading, so it
    // must change this list and the docs with it.
    struct Row
    {
        obs::KernelId id;
        double bytesPerAmp;
        double flopsPerAmp;
    };
    using K = obs::KernelId;
    const Row rows[] = {
        {K::Apply1q, 32.0, 14.0},
        {K::Diagonal1q, 32.0, 6.0},
        {K::Controlled1q, 32.0, 14.0},
        {K::PhaseMask, 32.0, 6.0},
        {K::PairRotation, 32.0, 6.0},
        {K::PairRotationGroup, 32.0, 6.0},
        {K::PhasedPairRotationGroup, 32.0, 6.0},
        {K::PhaseTable, 40.0, 9.0},
        {K::PhaseTableCompressed, 34.0, 6.0},
        {K::ExpectationTable, 24.0, 5.0},
        {K::ExpectationTableCompressed, 18.0, 5.0},
        {K::SubspaceLayer, 36.0, 6.0},
        {K::ExpectationSubspace, 18.0, 5.0},
    };
    ASSERT_EQ(std::size(rows), obs::kKernelCount);
    for (std::size_t k = 0; k < obs::kKernelCount; ++k) {
        const Row &row = rows[k];
        ASSERT_EQ(static_cast<std::size_t>(row.id), k);
        const auto &cost = obs::kernelCost(row.id);
        EXPECT_EQ(cost.bytesPerAmp, row.bytesPerAmp) << obs::kernelName(row.id);
        EXPECT_EQ(cost.flopsPerAmp, row.flopsPerAmp) << obs::kernelName(row.id);
    }
}
