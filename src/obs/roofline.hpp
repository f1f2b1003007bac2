/**
 * @file
 * Kernel telemetry: a static per-kernel cost model and a per-job kernel
 * counter sink.
 *
 * Two pieces, layered exactly like the rest of obs/:
 *
 * 1. **Cost model.** Every state-vector kernel has an analytically
 *    derived KernelCost {bytes per amplitude, flops per amplitude} keyed
 *    by KernelId. "Amplitude" means an amplitude the kernel actually
 *    touches — the same normalization bench_micro's ns_per_amp uses for
 *    the subspace kernels' own support-dependent touch counts.
 *    Derivations are documented per-kernel in docs/benchmarks.md; the
 *    differential suite in tests/test_roofline.cpp pins instrumented
 *    totals to this model exactly and pins every table row.
 *
 * 2. **KernelCounterSink.** An optional, zero-cost-when-null sink
 *    threaded through StateVector the same way Trace* is threaded
 *    through the service: a null pointer costs one predictable branch
 *    per kernel *invocation* (never per amplitude), so uninstrumented
 *    runs are bit-identical and measurably unchanged.
 *    record() is called once per kernel call on the calling thread
 *    before any OpenMP region opens, so the sink needs no atomics: one
 *    sink per job/worker, merged into the MetricsRegistry afterwards.
 */

#ifndef CHOCOQ_OBS_ROOFLINE_HPP
#define CHOCOQ_OBS_ROOFLINE_HPP

#include <array>
#include <cstdint>
#include <string>

namespace chocoq::obs
{

/** Every instrumented state-vector kernel. */
enum class KernelId : int
{
    Apply1q = 0,
    Diagonal1q,
    Controlled1q,
    PhaseMask,
    PairRotation,
    PairRotationGroup,
    PhasedPairRotationGroup,
    PhaseTable,
    PhaseTableCompressed,
    ExpectationTable,
    ExpectationTableCompressed,
    SubspaceLayer,
    ExpectationSubspace,
    kCount,
};

constexpr std::size_t kKernelCount = static_cast<std::size_t>(KernelId::kCount);

/**
 * Analytic per-touched-amplitude cost. Conventions (derivations in
 * docs/benchmarks.md): a Cplx is 16 bytes; every touched amplitude is
 * read and written (32 bytes) by mutating kernels and read (16) by
 * reductions; real multiply/add/sub count 1 flop each (complex multiply
 * = 6), sin/cos count 1 each; integer index arithmetic, popcounts and
 * branch tests count 0. Per-call O(|distinct|) or O(256 x terms) table
 * builds amortized over the 2^n sweep are excluded, as are the byte
 * streams noted per-kernel in the docs.
 */
struct KernelCost
{
    double bytesPerAmp;
    double flopsPerAmp;
};

/** The static cost model entry for @p id. */
const KernelCost &kernelCost(KernelId id);

/** Stable snake_case name ("pair_rotation", ...) used in metrics
 * (kernels.<name>.calls), trace notes, and JSON output. */
const char *kernelName(KernelId id);

/** Per-kernel running totals. */
struct KernelTally
{
    std::uint64_t calls = 0;
    std::uint64_t amps = 0;
};

/**
 * Per-job kernel-mix accumulator. Plain (non-atomic) counters: record()
 * fires once per kernel invocation on the calling thread before the
 * kernel's OpenMP region opens, and a sink is only ever attached to the
 * states of one job at a time. Derived bytes/flops are amps times the
 * static KernelCost — by construction, not measurement — so the
 * differential test can pin them exactly.
 */
class KernelCounterSink
{
  public:
    void record(KernelId id, std::uint64_t amps) noexcept
    {
        KernelTally &t = tallies_[static_cast<std::size_t>(id)];
        ++t.calls;
        t.amps += amps;
    }

    const KernelTally &tally(KernelId id) const
    {
        return tallies_[static_cast<std::size_t>(id)];
    }

    std::uint64_t totalCalls() const;
    std::uint64_t totalAmps() const;
    /** Sum over kernels of amps * cost.bytesPerAmp. */
    double totalBytes() const;
    /** Sum over kernels of amps * cost.flopsPerAmp. */
    double totalFlops() const;

    bool empty() const { return totalCalls() == 0; }
    void reset();
    void merge(const KernelCounterSink &other);

    /** Compact one-line mix for trace-span notes:
     * "name=calls:amps ..." over the non-zero kernels, followed by
     * "bytes=<total> flops=<total>". */
    std::string summary() const;

  private:
    std::array<KernelTally, kKernelCount> tallies_{};
};

} // namespace chocoq::obs

#endif // CHOCOQ_OBS_ROOFLINE_HPP
