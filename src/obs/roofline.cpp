#include "obs/roofline.hpp"

#include <sstream>

namespace chocoq::obs
{

namespace
{

/**
 * The static cost model, indexed by KernelId. Derivations (documented
 * in docs/benchmarks.md "Kernel cost model"):
 *
 * - Mutating sweeps read+write each touched amplitude: 32 bytes.
 *   Reductions read: 16 bytes. Side streams the kernel touches per
 *   amplitude add on top: 8 bytes per double table entry, 2 per
 *   uint16 index entry.
 * - A complex multiply is 6 flops (4 mult + 2 add); the real-structured
 *   pair-rotation update is 6 flops per amplitude (4 mult + 2 add
 *   across the two components); |amp|^2 is 3; sincos is 2.
 * - Per-call setup amortized over the sweep (compressed-phase LUT
 *   builds) is excluded, as is the phased-group's non-uniform index
 *   side stream (2 bytes per phased amplitude only).
 * - The subspace layer touches every set state once (phase gather) and
 *   each pair's two states once per term; its compact-index stream is
 *   modeled at the rotation's 4 bytes per touched amplitude (the
 *   gather reads a 2-byte value index, so the model overstates a
 *   call's 34 |R| + 72 pairs bytes by 2 |R|).
 */
constexpr std::array<KernelCost, kKernelCount> kCosts = {{
    /* Apply1q */ {32.0, 14.0},
    /* Diagonal1q */ {32.0, 6.0},
    /* Controlled1q */ {32.0, 14.0},
    /* PhaseMask */ {32.0, 6.0},
    /* PairRotation */ {32.0, 6.0},
    /* PairRotationGroup */ {32.0, 6.0},
    /* PhasedPairRotationGroup */ {32.0, 6.0},
    /* PhaseTable */ {40.0, 9.0},
    /* PhaseTableCompressed */ {34.0, 6.0},
    /* ExpectationTable */ {24.0, 5.0},
    /* ExpectationTableCompressed */ {18.0, 5.0},
    /* SubspaceLayer */ {36.0, 6.0},
    /* ExpectationSubspace */ {18.0, 5.0},
}};

constexpr std::array<const char *, kKernelCount> kNames = {{
    "apply1q",
    "diagonal1q",
    "controlled1q",
    "phase_mask",
    "pair_rotation",
    "pair_rotation_group",
    "phased_pair_rotation_group",
    "phase_table",
    "phase_table_compressed",
    "expectation_table",
    "expectation_table_compressed",
    "subspace_layer",
    "expectation_subspace",
}};

} // namespace

const KernelCost &
kernelCost(KernelId id)
{
    return kCosts[static_cast<std::size_t>(id)];
}

const char *
kernelName(KernelId id)
{
    return kNames[static_cast<std::size_t>(id)];
}

std::uint64_t
KernelCounterSink::totalCalls() const
{
    std::uint64_t total = 0;
    for (const auto &t : tallies_)
        total += t.calls;
    return total;
}

std::uint64_t
KernelCounterSink::totalAmps() const
{
    std::uint64_t total = 0;
    for (const auto &t : tallies_)
        total += t.amps;
    return total;
}

double
KernelCounterSink::totalBytes() const
{
    double total = 0.0;
    for (std::size_t k = 0; k < kKernelCount; ++k)
        total += static_cast<double>(tallies_[k].amps) * kCosts[k].bytesPerAmp;
    return total;
}

double
KernelCounterSink::totalFlops() const
{
    double total = 0.0;
    for (std::size_t k = 0; k < kKernelCount; ++k)
        total += static_cast<double>(tallies_[k].amps) * kCosts[k].flopsPerAmp;
    return total;
}

void
KernelCounterSink::reset()
{
    tallies_.fill(KernelTally{});
}

void
KernelCounterSink::merge(const KernelCounterSink &other)
{
    for (std::size_t k = 0; k < kKernelCount; ++k) {
        tallies_[k].calls += other.tallies_[k].calls;
        tallies_[k].amps += other.tallies_[k].amps;
    }
}

std::string
KernelCounterSink::summary() const
{
    std::ostringstream out;
    bool first = true;
    for (std::size_t k = 0; k < kKernelCount; ++k) {
        const KernelTally &t = tallies_[k];
        if (t.calls == 0)
            continue;
        if (!first)
            out << ' ';
        first = false;
        out << kNames[k] << '=' << t.calls << ':' << t.amps;
    }
    if (!first)
        out << ' ';
    out << "bytes=" << static_cast<std::uint64_t>(totalBytes())
        << " flops=" << static_cast<std::uint64_t>(totalFlops());
    return out.str();
}

} // namespace chocoq::obs
