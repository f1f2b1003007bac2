/**
 * @file
 * perfbench_driver: runs one workload of the end-to-end benchmark and
 * prints its result as one JSON line (see perfbench/README.md).
 *
 *   perfbench_driver paper_scales  --seed N --seconds S --trace 0|1
 *   perfbench_driver repeat_stream --seed N --seconds S --trace 0|1
 *                                  --workers W
 *   perfbench_driver wire_client   --seed N --seconds S --trace 0|1
 *                                  --port P --connections C
 *
 * perfbench/run.py builds it and wraps wire_client with a chocoq_serve
 * process; the driver can also be run by hand.
 */

#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include "service/json.hpp"

namespace perfbench
{

namespace
{

const auto kProcessStart = std::chrono::steady_clock::now();

} // namespace

double
sinceStart()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - kProcessStart)
        .count();
}

double
CpuTimer::now()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
           + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
tailQuantile(std::size_t samples)
{
    for (const double q : {0.99, 0.95, 0.90, 0.75})
        if (static_cast<double>(samples) * (1.0 - q) >= 10.0)
            return q;
    return 0.5;
}

double
mean(const std::vector<double> &v)
{
    double acc = 0.0;
    for (const double x : v)
        acc += x;
    return v.empty() ? 0.0 : acc / static_cast<double>(v.size());
}

std::string
describeTiming(const std::string &what, const std::vector<double> &v,
               const std::string &unit)
{
    static const std::pair<double, const char *> kLevels[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
        {0.90, "p90"},    {0.75, "p75"},
    };
    std::ostringstream out;
    out << what << ": n=" << v.size() << " p50=" << median(v) << " " << unit;
    for (const auto &[q, label] : kLevels) {
        if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
            out << " " << label << "=" << percentile(v, q) << " " << unit;
            return out.str();
        }
    }
    out << " (fewer than 10 samples beyond p75); all:";
    for (const double x : v)
        out << " " << x;
    return out.str();
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    // Keep the log readable when a systematic failure repeats.
    if (failed_ <= 20)
        notes_.push_back("FAILED: " + why);
}

void
Report::print() const
{
    for (const auto &n : notes_)
        std::cout << "# " << n << "\n";
    chocoq::service::Json metrics = chocoq::service::Json::object();
    for (const auto &[name, vu] : metrics_) {
        chocoq::service::Json m = chocoq::service::Json::object();
        m.set("value", std::isfinite(vu.first) ? vu.first : 0.0);
        m.set("unit", vu.second);
        metrics.set(name, std::move(m));
    }
    chocoq::service::Json out = chocoq::service::Json::object();
    out.set("correct", correct());
    out.set("attempted", static_cast<double>(std::max<std::uint64_t>(
                             attempted_, 1)));
    out.set("failed", static_cast<double>(failed_));
    out.set("metrics", std::move(metrics));
    std::cout << out.dump() << std::endl;
}

void
Quality::add(bool top_feasible, double top_objective, double top_probability,
             double best_cost, double feasible_mass,
             const chocoq::model::ExactResult &exact)
{
    const bool top_optimal =
        top_feasible && std::abs(top_objective - exact.optimumRaw) <= 1e-9;
    success.push_back(top_optimal ? top_probability : 0.0);
    arg.push_back(std::abs(best_cost - exact.optimum)
                  / std::max(std::abs(exact.optimum), 1.0));
    minFeasible = std::min(minFeasible, feasible_mass);
}

void
reconcile(const chocoq::service::Json &stats, Report &report)
{
    const chocoq::service::Json *c = stats.find("counters");
    const auto count = [&](const char *name) {
        return c ? c->getNumber(name, 0.0) : -1.0;
    };
    const double submitted = count("jobs.submitted");
    const double completed = count("jobs.completed");
    const double sum = count("jobs.ok") + count("jobs.error")
                       + count("jobs.cancelled") + count("jobs.expired");
    if (submitted != completed || completed != sum || submitted <= 0) {
        std::ostringstream msg;
        msg << "service counters do not reconcile: submitted " << submitted
            << " completed " << completed << " ok+error+cancelled+expired "
            << sum;
        report.fail(msg.str());
    }
}

void
emitServiceEndToEnd(Report &report, const std::vector<double> &latencies,
                    std::vector<std::chrono::steady_clock::time_point> ends,
                    std::size_t block_jobs, const Quality &q, std::size_t ok,
                    double seconds)
{
    std::sort(ends.begin(), ends.end());
    std::vector<double> blocks;
    for (std::size_t i = block_jobs; i < ends.size(); i += block_jobs)
        blocks.push_back(
            std::chrono::duration<double>(ends[i] - ends[i - block_jobs])
                .count());
    report.metric("wall_s", median(blocks), "s");
    report.metric("jobs_per_s", static_cast<double>(ok) / seconds, "1/s");
    report.metric("latency_p50_ms", percentile(latencies, 0.5), "ms");
    report.metric("latency_p99_ms",
                  percentile(latencies, tailQuantile(latencies.size())),
                  "ms");
    report.metric("success_prob", mean(q.success), "fraction");
    report.metric("arg", mean(q.arg), "ratio");
    report.metric("in_constraints", q.minFeasible, "fraction");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.note(describeTiming("latency", latencies, "ms"));
    report.note(describeTiming("wall per block of "
                                   + std::to_string(block_jobs) + " jobs",
                               blocks, "s"));
}

const std::vector<std::string> &
solverLabels()
{
    static const std::vector<std::string> kLabels = {
        "choco-q", "choco-q-noisy", "penalty", "cyclic", "hea"};
    return kLabels;
}

void
emitPerLayer(Report &r, const PerLayer &l)
{
    r.metric("core.compile_ms", l.compileMs, "ms");
    r.metric("core.compile.eliminate_ms", l.eliminateMs, "ms");
    r.metric("core.compile.movebasis_ms", l.movebasisMs, "ms");
    r.metric("core.compile.moveset_ms", l.movesetMs, "ms");
    r.metric("core.compile.tabulate_ms", l.tabulateMs, "ms");
    r.metric("core.compile.fusion_plan_ms", l.fusionPlanMs, "ms");
    r.metric("core.compile.unattributed_ms", l.compileUnattributedMs, "ms");
    r.metric("core.solve_ms", l.solveMs, "ms");
    r.metric("core.engine.sim_ms", l.simMs, "ms");
    r.metric("core.engine.classical_ms", l.classicalMs, "ms");
    r.metric("core.engine.transpile_ms", l.transpileMs, "ms");
    r.metric("core.artifact_bytes", l.artifactBytes, "bytes");
    r.metric("core.engine.sim_ms_per_job", l.simMsPerJob, "ms");
    r.metric("core.engine.classical_ms_per_job", l.classicalMsPerJob, "ms");
    r.metric("core.engine.transpile_ms_per_job", l.transpileMsPerJob, "ms");
    r.metric("optimize.evaluations", l.evaluations, "count");
    r.metric("optimize.iterations", l.iterations, "count");
    for (std::size_t i = 0; i < kReplayKernels.size(); ++i) {
        const auto id = kReplayKernels[i];
        const std::string base =
            std::string("sim.") + chocoq::obs::kernelName(id);
        const auto &t = l.kernels[static_cast<std::size_t>(id)];
        r.metric(base + ".calls", static_cast<double>(t.calls), "count");
        r.metric(base + ".amps", static_cast<double>(t.amps), "count");
        r.metric(base + ".ns_per_amp", l.rates[i].nsPerAmp, "ns");
        r.metric(base + ".gbps", l.rates[i].gbps, "GB/s");
    }
    r.metric("sim.bytes_modeled", l.bytesModeled, "bytes");
    r.metric("sim.flops_modeled", l.flopsModeled, "flop");
    r.metric("sim.useful_amp_frac", l.usefulAmpFrac, "fraction");
    r.metric("sim.calls_per_job", l.callsPerJob, "count");
    r.metric("sim.amps_per_call", l.ampsPerCall, "count");
    r.metric("sim.triad_state_gbps", l.triadStateGbps, "GB/s");
    r.metric("sim.triad_dram_gbps", l.triadDramGbps, "GB/s");
    // Working-set sizes of the ceilings and the replay dimension are
    // stated beside the rates.
    std::ostringstream sizes;
    sizes << "kernel replays at " << l.replayQubits
          << " qubits; triad ceilings: state-size working set "
          << l.triadStateBytes << " bytes -> " << l.triadStateGbps
          << " GB/s, DRAM working set " << l.triadDramBytes
          << " bytes (4x last-level cache) -> " << l.triadDramGbps
          << " GB/s";
    r.note(sizes.str());
    r.metric("service.queue_ms_p50", l.queueMsP50, "ms");
    r.metric("service.queue_ms_p99", l.queueMsP99, "ms");
    r.metric("service.exec_ms_p50", l.execMsP50, "ms");
    r.metric("service.exec_ms_p99", l.execMsP99, "ms");
    r.metric("service.unattributed_ms_per_job",
             l.serviceUnattributedMsPerJob, "ms");
    r.metric("service.respond_us", l.respondUs, "us");
    r.metric("spec.parse_us", l.parseUs, "us");
    r.metric("server.accept_ms", l.acceptMs, "ms");
    r.metric("server.first_byte_ms", l.firstByteMs, "ms");
    r.metric("registry.hit_rate", l.registryHitRate, "fraction");
    r.metric("compile_cache.hit_rate", l.cacheHitRate, "fraction");
    for (const auto &label : solverLabels()) {
        const auto it = l.solverExecMsP50.find(label);
        r.metric("solvers." + label + ".exec_ms_p50",
                 it == l.solverExecMsP50.end() ? 0.0 : it->second, "ms");
    }
    r.metric("unattributed_ms", l.unattributedMs, "ms");
    r.metric("trace_overhead", l.traceOverhead, "ratio");
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver paper_scales|repeat_stream|"
                 "wire_client --seed N --seconds S --trace 0|1 "
                 "[--workers W] [--port P --connections C]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (argc < 2)
        usage("missing workload");
    args.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        if (key == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--workers")
            args.workers = std::max(1, std::atoi(value.c_str()));
        else if (key == "--port")
            args.port = std::atoi(value.c_str());
        else if (key == "--connections")
            args.connections = std::max(1, std::atoi(value.c_str()));
        else
            usage(("unknown option " + key).c_str());
    }
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");

    perfbench::Report report;
    try {
        if (args.workload == "paper_scales")
            perfbench::runPaperScales(args, report);
        else if (args.workload == "repeat_stream")
            perfbench::runRepeatStream(args, report);
        else if (args.workload == "wire_client")
            perfbench::runWireClient(args, report);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
    report.print();
    return report.correct() ? 0 : 1;
}
