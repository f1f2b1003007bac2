#include "obs/roofline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace chocoq::obs
{

namespace
{

/**
 * The static cost model, indexed by KernelId. Derivations (documented
 * in docs/benchmarks.md "Roofline methodology"):
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
    /* ParityPhase */ {32.0, 6.0},
    /* PairRotation */ {32.0, 6.0},
    /* PairRotationGroup */ {32.0, 6.0},
    /* PhasedPairRotationGroup */ {32.0, 6.0},
    /* XY */ {32.0, 6.0},
    /* Swap */ {32.0, 0.0},
    /* PhaseTable */ {40.0, 9.0},
    /* PhaseTableCompressed */ {34.0, 6.0},
    /* ApplyDiagonal */ {32.0, 6.0},
    /* ExpectationTable */ {24.0, 5.0},
    /* ExpectationTableCompressed */ {18.0, 5.0},
    /* ExpectationDiagonal */ {16.0, 5.0},
    /* SubspaceLayer */ {36.0, 6.0},
    /* ExpectationSubspace */ {18.0, 5.0},
}};

constexpr std::array<const char *, kKernelCount> kNames = {{
    "apply1q",
    "diagonal1q",
    "controlled1q",
    "phase_mask",
    "parity_phase",
    "pair_rotation",
    "pair_rotation_group",
    "phased_pair_rotation_group",
    "xy",
    "swap",
    "phase_table",
    "phase_table_compressed",
    "apply_diagonal",
    "expectation_table",
    "expectation_table_compressed",
    "expectation_diagonal",
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

service::Json
KernelCounterSink::toJson() const
{
    service::Json out = service::Json::object();
    for (std::size_t k = 0; k < kKernelCount; ++k) {
        const KernelTally &t = tallies_[k];
        if (t.calls == 0)
            continue;
        service::Json entry = service::Json::object();
        entry.set("calls", static_cast<std::int64_t>(t.calls));
        entry.set("amps", static_cast<std::int64_t>(t.amps));
        entry.set("bytes",
                  static_cast<double>(t.amps) * kCosts[k].bytesPerAmp);
        entry.set("flops",
                  static_cast<double>(t.amps) * kCosts[k].flopsPerAmp);
        out.set(kNames[k], std::move(entry));
    }
    return out;
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

namespace
{

std::string
readCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        if (line.compare(0, 10, "model name") == 0) {
            std::size_t start = colon + 1;
            while (start < line.size() && line[start] == ' ')
                ++start;
            return line.substr(start);
        }
    }
    return "unknown";
}

std::string
readSysfsLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line))
        return "";
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

std::string
readCacheSummary()
{
    // "L1d=32K L1i=32K L2=1024K L3=36864K" from cpu0's cache indices;
    // data/instruction suffix only where the level splits.
    std::string out;
    for (int idx = 0; idx < 8; ++idx) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
        const std::string level = readSysfsLine(base + "/level");
        if (level.empty())
            break;
        const std::string type = readSysfsLine(base + "/type");
        const std::string size = readSysfsLine(base + "/size");
        std::string name = "L" + level;
        if (type == "Data")
            name += "d";
        else if (type == "Instruction")
            name += "i";
        if (!out.empty())
            out += ' ';
        out += name + "=" + (size.empty() ? "?" : size);
    }
    return out;
}

std::string
fnv1a64Hex(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
}

} // namespace

MachineInfo
detectMachine()
{
    MachineInfo info;
    info.cpuModel = readCpuModel();
    info.logicalCores =
        static_cast<int>(std::thread::hardware_concurrency());
    info.caches = readCacheSummary();
    info.fingerprint = fnv1a64Hex(info.cpuModel + "|cores="
                                  + std::to_string(info.logicalCores) + "|"
                                  + info.caches);
    return info;
}

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** STREAM triad a[i] = b[i] + s * c[i] over arrays far past any LLC;
 * counted at the STREAM convention of 24 bytes and 2 flops per
 * element. Best-of over passes (first pass warms and pages in). */
double
measureTriadGBps()
{
    const std::size_t n = std::size_t{1} << 21; // 3 x 16 MB
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    double best = 0.0;
    for (int pass = 0; pass < 6; ++pass) {
        const double t0 = nowSeconds();
        double *__restrict pa = a.data();
        const double *__restrict pb = b.data();
        const double *__restrict pc = c.data();
        for (std::size_t i = 0; i < n; ++i)
            pa[i] = pb[i] + s * pc[i];
        const double dt = nowSeconds() - t0;
        if (dt <= 0.0)
            continue;
        const double gbps =
            24.0 * static_cast<double>(n) / dt / 1e9;
        if (pass > 0 && gbps > best)
            best = gbps;
    }
    // Defeat dead-store elimination across passes.
    volatile double guard = a[n / 2];
    (void)guard;
    return best;
}

/** Eight independent multiply-add chains, the textbook ILP-saturating
 * FLOP probe; 16 flops per inner step. The loop body lives in a macro
 * so the scalar variant can carry its no-vectorize attribute directly
 * (an attribute on a caller would not stop a shared template
 * instantiation from vectorizing). */
#define CHOCOQ_FMA_CHAIN_BODY                                                 \
    double x0 = 1.0, x1 = 1.1, x2 = 1.2, x3 = 1.3;                            \
    double x4 = 1.4, x5 = 1.5, x6 = 1.6, x7 = 1.7;                            \
    const double m = 0.999999;                                                \
    const double d = 1e-9;                                                    \
    const double t0 = nowSeconds();                                           \
    for (std::size_t i = 0; i < steps; ++i) {                                 \
        x0 = x0 * m + d;                                                      \
        x1 = x1 * m + d;                                                      \
        x2 = x2 * m + d;                                                      \
        x3 = x3 * m + d;                                                      \
        x4 = x4 * m + d;                                                      \
        x5 = x5 * m + d;                                                      \
        x6 = x6 * m + d;                                                      \
        x7 = x7 * m + d;                                                      \
    }                                                                         \
    const double dt = nowSeconds() - t0;                                      \
    volatile double guard = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;            \
    (void)guard;                                                              \
    if (dt <= 0.0)                                                            \
        return 0.0;                                                           \
    return 16.0 * static_cast<double>(steps) / dt / 1e9;

#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#endif
double
scalarChainGflops(std::size_t steps)
{
    CHOCOQ_FMA_CHAIN_BODY
}

double
simdChainGflops(std::size_t steps)
{
    CHOCOQ_FMA_CHAIN_BODY
}

#undef CHOCOQ_FMA_CHAIN_BODY

} // namespace

MachinePeaks
calibratePeaks()
{
    MachinePeaks peaks;
    peaks.triadGBps = measureTriadGBps();
    const std::size_t steps = std::size_t{1} << 24;
    for (int pass = 0; pass < 3; ++pass) {
        peaks.scalarGflops =
            std::max(peaks.scalarGflops, scalarChainGflops(steps));
        peaks.simdGflops =
            std::max(peaks.simdGflops, simdChainGflops(steps));
    }
    return peaks;
}

RooflinePoint
placeOnRoofline(double bytes_per_amp, double flops_per_amp,
                double ns_per_amp, const MachinePeaks &peaks)
{
    RooflinePoint point;
    if (bytes_per_amp <= 0.0 || ns_per_amp <= 0.0)
        return point;
    point.arithmeticIntensity = flops_per_amp / bytes_per_amp;
    point.computeBound = point.arithmeticIntensity >= peaks.ridgeAI();
    // Roof at this AI in achieved-bytes terms: the memory roof is the
    // triad bandwidth, the compute roof peak_flops / AI bytes per
    // second. Achieved bytes/s falls out of the static model and the
    // measured ns/amp directly, so pct_of_ceiling works even for
    // zero-flop kernels (swap).
    const double achieved_gbps = bytes_per_amp / ns_per_amp; // bytes/ns = GB/s
    double roof_gbps = peaks.triadGBps;
    if (point.arithmeticIntensity > 0.0 && peaks.peakGflops() > 0.0) {
        const double compute_gbps =
            peaks.peakGflops() / point.arithmeticIntensity;
        if (compute_gbps < roof_gbps)
            roof_gbps = compute_gbps;
    }
    if (roof_gbps > 0.0)
        point.pctOfCeiling = 100.0 * achieved_gbps / roof_gbps;
    return point;
}

service::Json
machineJson(const MachineInfo &info, const MachinePeaks &peaks)
{
    service::Json out = service::Json::object();
    out.set("fingerprint", info.fingerprint);
    out.set("cpu_model", info.cpuModel);
    out.set("logical_cores", info.logicalCores);
    out.set("caches", info.caches);
    out.set("triad_gbps", peaks.triadGBps);
    out.set("peak_scalar_gflops", peaks.scalarGflops);
    out.set("peak_simd_gflops", peaks.simdGflops);
    out.set("peak_gflops", peaks.peakGflops());
    out.set("ridge_ai_flops_per_byte", peaks.ridgeAI());
    return out;
}

} // namespace chocoq::obs
