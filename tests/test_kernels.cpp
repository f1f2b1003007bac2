/**
 * @file
 * Property tests for the subspace-enumeration fast kernels: every masked
 * kernel must be amplitude-exact (1e-12) against a naive full-scan
 * reference on random states, random masks, and random angles — on the
 * serial path and on the OpenMP path (multiple thread counts, which also
 * pins down the deterministic partitioning).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/commute.hpp"
#include "sim/naive.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"
#include "sim/subspace.hpp"

using namespace chocoq;
using linalg::Cplx;
using linalg::CVec;
using sim::StateVector;

namespace
{

constexpr double kTol = 1e-12;

CVec
randomState(Rng &rng, int n)
{
    CVec psi(std::size_t{1} << n);
    double norm2 = 0;
    for (auto &a : psi) {
        a = Cplx{rng.normal(), rng.normal()};
        norm2 += std::norm(a);
    }
    for (auto &a : psi)
        a /= std::sqrt(norm2);
    return psi;
}

void
loadState(StateVector &sv, const CVec &psi)
{
    sv.amplitudes() = psi;
}

void
expectSameState(const CVec &got, const CVec &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i].real(), want[i].real(), kTol) << "index " << i;
        ASSERT_NEAR(got[i].imag(), want[i].imag(), kTol) << "index " << i;
    }
}

/** Random support of size k over n qubits; returns (support_mask, v_bits). */
std::pair<Basis, Basis>
randomSupport(Rng &rng, int n, int k)
{
    Basis support = 0;
    while (popcount(support) < k)
        support |= Basis{1} << rng.intIn(0, n - 1);
    Basis v = 0;
    for (int q = 0; q < n; ++q)
        if ((support >> q) & 1 && rng.chance(0.5))
            v |= Basis{1} << q;
    return {support, v};
}

/**
 * Fixture parameterized over the kernel thread count, covering the
 * serial path and the OpenMP partitioned path.
 */
class Kernels : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override { sim::setSimThreads(GetParam()); }
    void TearDown() override { sim::setSimThreads(0); }
};

TEST_P(Kernels, SubspaceEnumerationVisitsExactlyTheMatchingIndices)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const int n = rng.intIn(2, 12);
        const auto [support, v] = randomSupport(rng, n, rng.intIn(1, n));
        const Basis dim_mask = (Basis{1} << n) - 1;
        const Basis free_mask = dim_mask & ~support;
        std::vector<int> visits(std::size_t{1} << n, 0);
        sim::forEachInSubspace(free_mask, v,
                               [&](Basis idx) { ++visits[idx]; });
        for (std::size_t i = 0; i < visits.size(); ++i)
            ASSERT_EQ(visits[i], (i & support) == v ? 1 : 0)
                << "index " << i;
    }
}

TEST_P(Kernels, SubspaceExpandMatchesEnumerationOrder)
{
    Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.intIn(2, 10);
        const auto [support, v] = randomSupport(rng, n, rng.intIn(1, n));
        const Basis free_mask = ((Basis{1} << n) - 1) & ~support;
        std::size_t t = 0;
        sim::forEachInSubspace(free_mask, v, [&](Basis idx) {
            ASSERT_EQ(sim::subspaceExpand(free_mask, v, t), idx);
            ++t;
        });
        ASSERT_EQ(t, sim::subspaceCount(free_mask));
    }
}

TEST_P(Kernels, PairRotationMatchesNaive)
{
    // Support weights up to n: at k = n the free mask is empty and every
    // subspace holds a single amplitude.
    Rng rng(17);
    int full_support = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.intIn(2, 10);
        const int k = rng.intIn(1, n);
        full_support += k == n;
        const auto [support, v] = randomSupport(rng, n, k);
        const double beta = rng.uniform(-3.2, 3.2);

        StateVector sv(n);
        CVec ref = randomState(rng, n);
        loadState(sv, ref);
        sv.applyPairRotation(support, v, std::cos(beta), std::sin(beta));
        sim::naive::pairRotation(ref, support, v, beta);
        expectSameState(sv.amplitudes(), ref);
    }
    EXPECT_GT(full_support, 0);
}

TEST_P(Kernels, PairRotationLargeStateParallelPath)
{
    // n = 16 with small support drives the subspace loop over 2^(16-k)
    // indices, past the parallel grain when threads > 1.
    Rng rng(19);
    const int n = 16;
    const auto [support, v] = randomSupport(rng, n, 3);
    const double beta = 1.234;
    StateVector sv(n);
    CVec ref = randomState(rng, n);
    loadState(sv, ref);
    sv.applyPairRotation(support, v, std::cos(beta), std::sin(beta));
    sim::naive::pairRotation(ref, support, v, beta);
    expectSameState(sv.amplitudes(), ref);
}

TEST_P(Kernels, PairRotationHighSupportFewLongRuns)
{
    // Support entirely in high qubits -> a single long run split across
    // the threads (the outer_count < team branch of forEachSubspaceRun).
    Rng rng(20);
    const int n = 16;
    const Basis support = (Basis{1} << 13) | (Basis{1} << 14)
                          | (Basis{1} << 15);
    const Basis v = Basis{1} << 14;
    const double beta = 0.456;
    StateVector sv(n);
    CVec ref = randomState(rng, n);
    loadState(sv, ref);
    sv.applyPairRotation(support, v, std::cos(beta), std::sin(beta));
    sim::naive::pairRotation(ref, support, v, beta);
    expectSameState(sv.amplitudes(), ref);
}

TEST_P(Kernels, PhaseMaskHighMaskFewLongRuns)
{
    Rng rng(21);
    const int n = 16;
    const Basis mask = (Basis{1} << 14) | (Basis{1} << 15);
    const double phi = 1.1;
    StateVector sv(n);
    CVec ref = randomState(rng, n);
    loadState(sv, ref);
    sv.applyPhaseMask(mask, phi);
    sim::naive::phaseMask(ref, mask, phi);
    expectSameState(sv.amplitudes(), ref);
}

TEST_P(Kernels, PhaseMaskMatchesNaive)
{
    // Mask weights 0..n: the empty mask phases the whole space as one
    // subspace.
    Rng rng(23);
    int empty_mask = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.intIn(2, 10);
        const auto [mask, v] = randomSupport(rng, n, rng.intIn(0, n));
        (void)v;
        empty_mask += mask == 0;
        const double phi = rng.uniform(-3.2, 3.2);
        StateVector sv(n);
        CVec ref = randomState(rng, n);
        loadState(sv, ref);
        sv.applyPhaseMask(mask, phi);
        sim::naive::phaseMask(ref, mask, phi);
        expectSameState(sv.amplitudes(), ref);
    }
    EXPECT_GT(empty_mask, 0);
}

TEST_P(Kernels, Controlled1qMatchesNaive)
{
    Rng rng(29);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.intIn(2, 10);
        const int q = rng.intIn(0, n - 1);
        Basis controls = 0;
        const int nc = rng.intIn(1, std::max(1, std::min(n - 1, 3)));
        while (popcount(controls) < nc) {
            const int c = rng.intIn(0, n - 1);
            if (c != q)
                controls |= Basis{1} << c;
        }
        const Cplx m00{rng.normal(), rng.normal()};
        const Cplx m01{rng.normal(), rng.normal()};
        const Cplx m10{rng.normal(), rng.normal()};
        const Cplx m11{rng.normal(), rng.normal()};
        StateVector sv(n);
        CVec ref = randomState(rng, n);
        loadState(sv, ref);
        sv.applyControlled1q(controls, q, m00, m01, m10, m11);
        sim::naive::controlled1q(ref, controls, q, m00, m01, m10, m11);
        expectSameState(sv.amplitudes(), ref);
    }
}

TEST_P(Kernels, XYGateMatchesNaive)
{
    // The XY gate runs on the pair-rotation kernel: XY(a, b, beta) is
    // the commute term Hc(e_a - e_b) at 2 beta.
    Rng rng(31);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.intIn(2, 10);
        const int a = rng.intIn(0, n - 1);
        int b = rng.intIn(0, n - 1);
        if (b == a)
            b = (a + 1) % n;
        const double beta = rng.uniform(-3.2, 3.2);

        StateVector sv(n);
        CVec ref = randomState(rng, n);
        loadState(sv, ref);
        sim::applyGate(sv, {circuit::GateType::XY, {a, b}, beta});
        sim::naive::pairRotation(ref, (Basis{1} << a) | (Basis{1} << b),
                                 Basis{1} << a, 2.0 * beta);
        expectSameState(sv.amplitudes(), ref);
    }
}

TEST_P(Kernels, Diagonal1qMatchesApply1q)
{
    Rng rng(37);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.intIn(2, 10);
        const int q = rng.intIn(0, n - 1);
        const Cplx d0{rng.normal(), rng.normal()};
        const Cplx d1{rng.normal(), rng.normal()};
        const CVec psi = randomState(rng, n);
        StateVector fast(n), ref(n);
        loadState(fast, psi);
        loadState(ref, psi);
        fast.applyDiagonal1q(q, d0, d1);
        ref.apply1q(q, d0, 0, 0, d1);
        expectSameState(fast.amplitudes(), ref.amplitudes());
    }
}

TEST_P(Kernels, CommuteLayerMatchesPerTermEvolution)
{
    Rng rng(43);
    const int n = 8;
    std::vector<std::vector<int>> moves = {
        {1, -1, 0, 0, 0, 0, 0, 0},
        {0, 1, -1, 1, 0, 0, 0, 0},
        {0, 0, 0, 1, -1, 0, 1, -1},
    };
    const auto terms = core::makeCommuteTerms(moves);
    const double beta = 0.77;
    CVec stepped = randomState(rng, n);
    StateVector layered(n);
    loadState(layered, stepped);
    core::applyCommuteLayer(layered, terms, beta);
    for (const auto &term : terms)
        sim::naive::pairRotation(stepped, term.supportMask, term.vBits,
                                 beta);
    expectSameState(layered.amplitudes(), stepped);
}

TEST_P(Kernels, ExpectationAndPhaseTableMatchScalarLoop)
{
    Rng rng(47);
    const int n = 14; // past the parallel grain at dim 16384
    StateVector sv(n);
    CVec psi = randomState(rng, n);
    loadState(sv, psi);
    std::vector<double> table(std::size_t{1} << n);
    for (auto &t : table)
        t = rng.uniform(-2.0, 2.0);

    double want = 0.0;
    for (std::size_t i = 0; i < table.size(); ++i)
        want += std::norm(psi[i]) * table[i];
    EXPECT_NEAR(sv.expectationTable(table), want, 1e-10);

    const double gamma = 0.9;
    sv.applyPhaseTable(table, gamma);
    for (std::size_t i = 0; i < psi.size(); ++i) {
        const double phi = -gamma * table[i];
        psi[i] *= Cplx{std::cos(phi), std::sin(phi)};
    }
    expectSameState(sv.amplitudes(), psi);
}

TEST_P(Kernels, CompressedExpectationBitwiseMatchesExpanded)
{
    Rng rng(71);
    const int n = 13; // past the parallel grain so the reduce partitions
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<double> distinct{-1.5, 0.25, 2.0, -0.125};
    std::vector<std::uint16_t> index(dim);
    std::vector<double> table(dim);
    for (std::size_t i = 0; i < dim; ++i) {
        index[i] = static_cast<std::uint16_t>(
            rng.intIn(0, static_cast<int>(distinct.size()) - 1));
        table[i] = distinct[index[i]];
    }
    StateVector sv(n);
    loadState(sv, randomState(rng, n));
    const double expanded = sv.expectationTable(table);
    const double compressed = sv.expectationTableCompressed(distinct, index);
    EXPECT_EQ(0, std::memcmp(&expanded, &compressed, sizeof(double)));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, Kernels, ::testing::Values(1, 2, 4),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

TEST(KernelsInfra, ParallelReduceIsDeterministicPerThreadCount)
{
    Rng rng(53);
    const int n = 15;
    StateVector sv(n);
    loadState(sv, randomState(rng, n));
    std::vector<double> table(std::size_t{1} << n);
    for (auto &t : table)
        t = rng.uniform(-1.0, 1.0);

    for (int threads : {1, 2, 3, 4}) {
        sim::setSimThreads(threads);
        const double a = sv.expectationTable(table);
        const double b = sv.expectationTable(table);
        EXPECT_EQ(a, b) << "threads=" << threads;
    }
    sim::setSimThreads(0);
}

TEST(KernelsInfra, PrepareReusesAllocationAcrossSizes)
{
    StateVector sv(16);
    const Cplx *buf = sv.amplitudes().data();
    sv.prepare(12);
    EXPECT_EQ(sv.numQubits(), 12);
    EXPECT_EQ(sv.dim(), std::size_t{1} << 12);
    EXPECT_EQ(sv.amplitudes().data(), buf);
    sv.prepare(16);
    EXPECT_EQ(sv.dim(), std::size_t{1} << 16);
    EXPECT_EQ(sv.amplitudes().data(), buf);
    EXPECT_NEAR(sv.prob(0), 1.0, kTol);
    EXPECT_NEAR(sv.totalProbability(), 1.0, kTol);
}

TEST(KernelsInfra, SampleSkipsZeroProbabilityRuns)
{
    // Sharply peaked state: only two basis states carry probability, far
    // apart in index space; sampling must only ever return those.
    Rng rng(59);
    StateVector sv(12);
    auto &amp = sv.amplitudes();
    amp[0] = 0.0;
    amp[5] = std::sqrt(0.25);
    amp[3000] = std::sqrt(0.75);
    const auto hist = sv.sample(rng, 2000, 0.0);
    int total = 0;
    for (const auto &[idx, cnt] : hist) {
        EXPECT_TRUE(idx == 5 || idx == 3000) << "sampled " << idx;
        total += cnt;
    }
    EXPECT_EQ(total, 2000);
    EXPECT_GT(hist.at(3000), hist.at(5));
}

} // namespace
