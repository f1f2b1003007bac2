/**
 * @file
 * Roofline telemetry: a static per-kernel cost model, a per-job kernel
 * counter sink, and a machine-peak calibration probe.
 *
 * Three pieces, layered exactly like the rest of obs/:
 *
 * 1. **Cost model.** Every state-vector kernel has an analytically
 *    derived KernelCost {bytes per amplitude, flops per amplitude} keyed
 *    by KernelId. "Amplitude" means an amplitude the kernel actually
 *    touches — the same normalization bench_micro's ns_per_amp uses for
 *    the subspace kernels' own support-dependent touch counts.
 *    Derivations are documented per-kernel in docs/benchmarks.md; the
 *    differential suite in tests/test_roofline.cpp pins instrumented
 *    totals to this model exactly.
 *
 * 2. **KernelCounterSink.** An optional, zero-cost-when-null sink
 *    threaded through StateVector the same way Trace* is threaded
 *    through the service: a null pointer costs one predictable branch
 *    per kernel *invocation* (never per amplitude), so uninstrumented
 *    runs are bit-identical and measurably unchanged.
 *    record() is called once per kernel call on the calling thread
 *    before any OpenMP region opens, so the sink needs no atomics: one
 *    sink per job/worker, merged into the MetricsRegistry afterwards.
 *
 * 3. **Machine peaks.** detectMachine() reads a stable hardware
 *    fingerprint (cpu model, logical cores, sysfs cache sizes — no
 *    measured rates, so the fingerprint is reproducible across runs on
 *    the same box); calibratePeaks() measures STREAM-triad bandwidth
 *    and peak scalar/SIMD FLOP rates. Together they place every
 *    benchmark on the roofline (memory- vs compute-bound, percent of
 *    ceiling) following the HPC AI500 methodology, and key the
 *    committed perf baselines in bench/baselines/<fingerprint>.json.
 */

#ifndef CHOCOQ_OBS_ROOFLINE_HPP
#define CHOCOQ_OBS_ROOFLINE_HPP

#include <array>
#include <cstdint>
#include <string>

#include "service/json.hpp"

namespace chocoq::obs
{

/** Every instrumented state-vector kernel. */
enum class KernelId : int
{
    Apply1q = 0,
    Diagonal1q,
    Controlled1q,
    PhaseMask,
    ParityPhase,
    PairRotation,
    PairRotationGroup,
    PhasedPairRotationGroup,
    XY,
    Swap,
    PhaseTable,
    PhaseTableCompressed,
    ApplyDiagonal,
    ExpectationTable,
    ExpectationTableCompressed,
    ExpectationDiagonal,
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

    /** {"<kernel>": {"calls": c, "amps": a, "bytes": B, "flops": F}}
     * for every kernel with calls > 0, in KernelId order. */
    service::Json toJson() const;

    /** Compact one-line mix for trace-span notes:
     * "name=calls:amps ..." over the non-zero kernels, followed by
     * "bytes=<total> flops=<total>". */
    std::string summary() const;

  private:
    std::array<KernelTally, kKernelCount> tallies_{};
};

/**
 * Stable hardware identity. Everything here comes from /proc/cpuinfo
 * and sysfs — never from a measured rate — so the same box always
 * produces the same fingerprint and perf baselines key on hardware,
 * not on the noise of the run that created them.
 */
struct MachineInfo
{
    std::string cpuModel;        ///< "model name" from /proc/cpuinfo.
    int logicalCores = 0;        ///< std::thread::hardware_concurrency.
    /** "L1d=32K L1i=32K L2=1M L3=8M"-style summary of
     * /sys/devices/system/cpu/cpu0/cache (empty when sysfs absent). */
    std::string caches;
    /** 16-hex-digit FNV-1a of the fields above; the baseline filename. */
    std::string fingerprint;
};

MachineInfo detectMachine();

/** Measured machine ceilings (best-of over repeated passes). */
struct MachinePeaks
{
    double triadGBps = 0.0;     ///< STREAM triad bandwidth, GB/s.
    double scalarGflops = 0.0;  ///< Peak FLOP rate, vectorization off.
    double simdGflops = 0.0;    ///< Peak FLOP rate, FMA-chain, SIMD on.

    /** The roof used for ceilings: max of the two FLOP rates. */
    double peakGflops() const
    {
        return simdGflops > scalarGflops ? simdGflops : scalarGflops;
    }

    /** Arithmetic intensity (flops/byte) where the memory and compute
     * roofs cross; below it a kernel is memory-bound. */
    double ridgeAI() const
    {
        return triadGBps > 0.0 ? peakGflops() / triadGBps : 0.0;
    }
};

/**
 * Measure the peaks on this machine. ~100-300 ms: the triad streams
 * three arrays well past any LLC, the FLOP probes run unrolled
 * independent FMA chains; each reports its best pass.
 */
MachinePeaks calibratePeaks();

/** Where a measured kernel sits against the calibrated roofs. */
struct RooflinePoint
{
    double arithmeticIntensity = 0.0; ///< flops / bytes.
    bool computeBound = false;        ///< AI at or above the ridge.
    /** Achieved fraction (0-100) of the roof at this AI:
     * min(peak_flops, AI * triad_bw). */
    double pctOfCeiling = 0.0;
};

/** Place a kernel measured at @p ns_per_amp with the given per-amp
 * costs on the roofline. */
RooflinePoint placeOnRoofline(double bytes_per_amp, double flops_per_amp,
                              double ns_per_amp, const MachinePeaks &peaks);

/** The BENCH_kernels.json "machine" block (and the --calibrate dump):
 * fingerprint + identity fields + measured peaks + ridge point. */
service::Json machineJson(const MachineInfo &info, const MachinePeaks &peaks);

} // namespace chocoq::obs

#endif // CHOCOQ_OBS_ROOFLINE_HPP
