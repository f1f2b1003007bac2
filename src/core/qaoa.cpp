#include "core/qaoa.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "circuit/transpile.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "sim/statevector.hpp"

namespace chocoq::core
{

namespace
{

using sim::StateVector;

/** A span of the job's trace, open until end() or the end of its
 * scope (an exception included); none when the job is untraced. */
class ScopedSpan
{
  public:
    ScopedSpan(obs::Trace *trace, const char *name)
        : trace_(trace), index_(trace ? trace->begin(name) : 0)
    {
    }
    ~ScopedSpan() { end(); }
    void
    end()
    {
        if (trace_)
            trace_->end(index_);
        trace_ = nullptr;
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    obs::Trace *trace_;
    std::size_t index_;
};

/**
 * Evolve @p state to the subrun's output at @p theta. The state is
 * re-dimensioned and reset in place so callers can cycle one scratch
 * vector through thousands of objective evaluations without touching
 * the heap (StateVector::prepare reuses its allocation).
 */
void
evolveInto(StateVector &state, const SubRun &run,
           const std::vector<double> &theta)
{
    if (run.evolve) {
        // evolve() establishes its own initial state (see the SubRun
        // contract), so only the dimension needs fixing up — prepare()'s
        // zero-fill would be a redundant full-state sweep per objective
        // evaluation.
        if (run.compactStates)
            state.resizeCompact(run.compactStates->size());
        else
            state.resizeScratch(run.numQubits);
        run.evolve(state, theta);
    } else {
        state.prepare(run.numQubits);
        sim::execute(state, run.build(theta));
    }
}

/** Expectation of the subrun's cost table at theta. */
double
subrunCost(StateVector &scratch, const SubRun &run,
           const std::vector<double> &theta)
{
    evolveInto(scratch, run, theta);
    if (run.compactStates)
        return scratch.expectationSubspace(*run.costDistinct,
                                           *run.costIndex);
    if (run.costDistinct && run.costIndex)
        return scratch.expectationTableCompressed(*run.costDistinct,
                                                  *run.costIndex);
    return scratch.expectationTable(*run.costTable);
}

/** Multi-start minimization; totals evaluations/iterations, keeps the
 * result of the winning start (the earliest start wins ties). With
 * multiStartKeep > 0, every start is evaluated once and only the most
 * promising multiStartKeep receive a full optimizer run. Every
 * optimizer run polls @p poll at its iteration boundaries. */
optimize::OptResult
optimizeMultiStart(const optimize::ObjectiveFn &objective,
                   const EngineOptions &opts,
                   const std::function<void()> &poll)
{
    std::vector<std::vector<double>> starts{opts.theta0};
    for (const auto &s : opts.extraStarts)
        if (s.size() == opts.theta0.size())
            starts.push_back(s);

    int screen_evals = 0;
    if (opts.multiStartKeep > 0
        && static_cast<std::size_t>(opts.multiStartKeep) < starts.size()) {
        std::vector<double> value(starts.size());
        for (std::size_t i = 0; i < starts.size(); ++i)
            value[i] = objective(starts[i]);
        screen_evals = static_cast<int>(starts.size());
        std::vector<std::size_t> order(starts.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        // stable_sort on values: ties keep submission order, so the
        // surviving set is deterministic.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return value[a] < value[b];
                         });
        order.resize(static_cast<std::size_t>(opts.multiStartKeep));
        std::sort(order.begin(), order.end());
        std::vector<std::vector<double>> kept;
        kept.reserve(order.size());
        for (std::size_t i : order)
            kept.push_back(std::move(starts[i]));
        starts = std::move(kept);
    }

    optimize::OptOptions opt = opts.opt;
    if (poll)
        opt.checkpoint = poll;
    optimize::OptResult best;
    int total_evals = screen_evals;
    int total_iters = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
        optimize::OptResult res = optimize::cobyla(objective, starts[i], opt);
        total_evals += res.evaluations;
        total_iters += res.iterations;
        if (i == 0 || res.bestValue < best.bestValue)
            best = std::move(res);
    }
    best.evaluations = total_evals;
    best.iterations = total_iters;
    return best;
}

/** Noisy-sampled distribution of one subrun lifted to the full space. */
void
accumulateNoisy(std::map<Basis, double> &into, sim::NoisySampler &sampler,
                const SubRun &run, const circuit::Circuit &lowered,
                const EngineOptions &opts, double weight, Rng &rng)
{
    const int shots = std::max(opts.shots, 1);
    const int trajectories = std::max(1, std::min(opts.trajectories, shots));
    const int shots_per_traj = (shots + trajectories - 1) / trajectories;
    const Basis data_mask = (Basis{1} << run.numQubits) - 1;

    // Drop the transpiler's ancilla bits, then lift.
    std::map<Basis, int> counts;
    long total = 0;
    for (const auto &[x, cnt] :
         sampler.sample(lowered, opts.noise, trajectories, shots_per_traj,
                        rng, opts.kernelCounters, opts.checkpoint)) {
        counts[x & data_mask] += cnt;
        total += cnt;
    }
    for (const auto &[x, cnt] : counts)
        into[run.lift(x)] +=
            weight * static_cast<double>(cnt) / static_cast<double>(total);
}

} // namespace

SolverOutcome
runQaoa(const std::vector<SubRun> &subruns, const EngineOptions &opts)
{
    CHOCOQ_ASSERT(!subruns.empty(), "engine needs at least one subrun");
    CHOCOQ_ASSERT(!opts.theta0.empty(), "engine needs initial parameters");
    for (const auto &r : subruns) {
        if (r.compactStates)
            CHOCOQ_ASSERT(r.evolve && r.costDistinct && r.costIndex,
                          "a compact subrun needs evolve() and a "
                          "compressed cost over its set");
        else
            CHOCOQ_ASSERT(r.costTable, "a subrun needs its cost table");
    }

    SolverOutcome out;
    out.circuitsPerIteration = static_cast<int>(subruns.size());

    double sim_seconds = 0.0;
    Timer total_timer;

    // Scratch state shared by every objective evaluation below; its
    // buffer is sized once and recycled, so the optimizer's thousands of
    // evaluations perform zero statevector allocation. A caller-provided
    // state (one per service worker) extends the reuse across jobs.
    StateVector local_scratch(1);
    StateVector &scratch = opts.scratch ? *opts.scratch : local_scratch;

    // Kernel-mix accounting (zero-cost when opts.kernelCounters is
    // null): the sink rides the scratch state every kernel of this run
    // executes through. Detach on every exit path — the state is shared
    // across jobs on a service worker, and a dangling sink would charge
    // the next job's kernels to this job's books.
    struct SinkGuard
    {
        StateVector &s;
        ~SinkGuard() { s.setCounterSink(nullptr); }
    } sink_guard{scratch};
    scratch.setCounterSink(opts.kernelCounters);

    // Optimizer-phase poll: the caller's checkpoint plus one iteration
    // mark on the job's trace, folded into its "optimize" span.
    std::function<void()> poll = opts.checkpoint;
    if (opts.trace)
        poll = [&opts] {
            if (opts.checkpoint)
                opts.checkpoint();
            opts.trace->markIteration();
        };

    // Each eliminated/frozen-assignment circuit is optimized on its own
    // (Sec. IV-C: circuits are executed individually) and weighs 1/m of
    // the merged result. With one subrun the weighted sums below reduce
    // exactly to that run's own values: its weight is 1.0, and
    // 0.0 + x == x for every x an expectation returns (never -0.0).
    const double w = 1.0 / static_cast<double>(subruns.size());
    std::vector<std::vector<double>> theta_star(subruns.size());
    double best_acc = 0.0;
    std::vector<optimize::TracePoint> merged_trace;
    for (std::size_t i = 0; i < subruns.size(); ++i) {
        auto objective = [&](const std::vector<double> &theta) {
            if (poll)
                poll();
            Timer t;
            const double v = subrunCost(scratch, subruns[i], theta);
            sim_seconds += t.seconds();
            return v;
        };
        const auto res = optimizeMultiStart(objective, opts, poll);
        theta_star[i] = res.best;
        best_acc += w * res.bestValue;
        out.iterations = std::max(out.iterations, res.iterations);
        out.evaluations += res.evaluations;
        // Merge traces as the weighted best-so-far (padded). COBYLA
        // numbers its entries 1, 2, ..., so one subrun's trace passes
        // through unchanged.
        if (merged_trace.size() < res.trace.size())
            merged_trace.resize(res.trace.size(), {0, 0.0});
        for (std::size_t k = 0; k < merged_trace.size(); ++k) {
            const double v =
                res.trace.empty()
                    ? res.bestValue
                    : res.trace[std::min(k, res.trace.size() - 1)].best;
            merged_trace[k].iteration = static_cast<int>(k) + 1;
            merged_trace[k].best += w * v;
        }
    }
    out.bestCost = best_acc;
    out.trace = std::move(merged_trace);

    const double loop_seconds = total_timer.seconds();
    out.simSeconds = sim_seconds;
    out.classicalSeconds = std::max(0.0, loop_seconds - sim_seconds);
    if (opts.trace)
        opts.trace->closeIterations();

    // Deployment artifacts at the optimum: transpiled depth and counts.
    ScopedSpan transpile_span(opts.trace, "transpile");
    Timer compile_timer;
    std::vector<circuit::Circuit> finals;
    finals.reserve(subruns.size());
    for (std::size_t i = 0; i < subruns.size(); ++i) {
        if (opts.checkpoint)
            opts.checkpoint();
        circuit::Circuit c = subruns[i].build(theta_star[i]);
        out.logicalDepth = std::max(out.logicalDepth, c.depth());
        circuit::Circuit lowered = circuit::transpile(c);
        out.basisDepth = std::max(out.basisDepth, lowered.depth());
        out.basisGateCount =
            std::max(out.basisGateCount, lowered.gateCount());
        out.basisTwoQubitCount =
            std::max(out.basisTwoQubitCount, lowered.multiQubitGateCount());
        out.qubitsUsed = std::max(out.qubitsUsed, lowered.numQubits());
        finals.push_back(std::move(lowered));
    }
    out.compileSeconds = compile_timer.seconds();
    transpile_span.end();

    // Final distribution.
    const ScopedSpan sample_span(opts.trace, "sample");
    Rng rng(opts.seed);
    const bool noisy = !opts.noise.isNoiseless();
    // The worker's sampler, else a call-local one built for noisy runs.
    std::unique_ptr<sim::NoisySampler> local_sampler;
    sim::NoisySampler *sampler = opts.sampler;
    if (noisy && !sampler) {
        local_sampler = std::make_unique<sim::NoisySampler>();
        sampler = local_sampler.get();
    }
    for (std::size_t i = 0; i < subruns.size(); ++i) {
        if (opts.checkpoint)
            opts.checkpoint();
        const SubRun &run = subruns[i];
        // Measured index -> reduced basis state (the compact map of the
        // subspace backend; the identity on a dense state).
        const auto basisOf = [&run](Basis x) {
            return run.compactStates ? (*run.compactStates)[x] : x;
        };
        if (noisy) {
            accumulateNoisy(out.distribution, *sampler, run, finals[i], opts,
                            w, rng);
        } else if (opts.shots > 0) {
            evolveInto(scratch, run, theta_star[i]);
            const auto hist = scratch.sample(rng, opts.shots);
            for (const auto &[x, cnt] : hist)
                out.distribution[run.lift(basisOf(x))] +=
                    w * static_cast<double>(cnt)
                    / static_cast<double>(opts.shots);
        } else {
            evolveInto(scratch, run, theta_star[i]);
            for (const auto &[x, p] : scratch.distribution())
                out.distribution[run.lift(basisOf(x))] += w * p;
        }
    }

    // Normalize (guards tiny round-off drift).
    double total = 0.0;
    for (const auto &[x, p] : out.distribution)
        total += p;
    if (total > 0.0)
        for (auto &[x, p] : out.distribution)
            p /= total;
    return out;
}

} // namespace chocoq::core
