/**
 * @file
 * Per-job trace: a span timeline through the solve pipeline.
 *
 * A job submitted with "trace":true carries one Trace from the
 * front-end through the scheduler and the worker to the result line:
 * parse -> queue -> resolve -> compile -> solve -> respond. Inside
 * solve the engine (core::runQaoa) records "optimize" (its optimizer
 * polls, folded into one span), then "transpile" (the final circuits)
 * and "sample" (the final distribution, noisy trajectories included).
 * Each span records its start offset (ms since the trace origin) and
 * duration, plus a free-form note ("cache_hit", "checkpoints=40", a
 * cancel reason). tools/trace_view.py renders the timeline;
 * docs/observability.md names every span.
 *
 * Cost contract: tracing is strictly opt-in and zero-cost when
 * unrequested — every recording site is behind a `Trace *` null check,
 * and the service allocates a Trace only for jobs that asked. With
 * tracing on, recording reads the clock and appends to a job-private
 * vector; it never touches seeds, scheduling, or solver state, so
 * solver outputs are bit-identical with tracing on or off (a tested
 * property: Observability.TracingIsBitIdentical).
 *
 * Threading: a Trace is written by one thread at a time — the
 * front-end, then the worker that runs the job, then the thread that
 * serializes the result — with each hand-off ordered by the
 * scheduler's queue and the result callback chain. It needs no lock.
 */

#ifndef CHOCOQ_OBS_TRACE_HPP
#define CHOCOQ_OBS_TRACE_HPP

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace chocoq::obs
{

/** One pipeline stage on a job's timeline. */
struct Span
{
    std::string name;
    /** Milliseconds since the trace origin. */
    double startMs = 0.0;
    double durMs = 0.0;
    /** Annotation: "cache_hit"/"cache_miss", "checkpoints=N", ... */
    std::string note;
};

/** Span timeline of one traced job. */
class Trace
{
  public:
    using Clock = std::chrono::steady_clock;

    /** @p origin anchors offset 0 (the front-end uses the moment
     * parsing of the request line began). */
    explicit Trace(Clock::time_point origin) : origin_(origin) {}

    /** Milliseconds elapsed since the origin. */
    double sinceOriginMs() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now()
                                                         - origin_)
            .count();
    }

    /** Append a span with externally measured bounds (parse and queue
     * spans are measured before the trace reaches the worker). */
    void add(std::string name, double start_ms, double dur_ms,
             std::string note = std::string());

    /** Open a span starting now; returns its index for end(). */
    std::size_t begin(std::string name);

    /** Close the span opened by begin(). */
    void end(std::size_t index, std::string note = std::string());

    /**
     * One optimizer poll fired (an objective evaluation or an
     * iteration boundary). The marks fold into a single "optimize"
     * span from the first mark to the last (emitted by
     * closeIterations()) rather than one span per iteration — a
     * 10^4-iteration job must not produce a 10^4-span timeline.
     */
    void markIteration()
    {
        const double now = sinceOriginMs();
        if (iterations_ == 0)
            iterFirstMs_ = now;
        iterLastMs_ = now;
        ++iterations_;
    }

    /** Emit the folded "optimize" span when any checkpoint fired. */
    void closeIterations();

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * {"spans":[{"name","start_ms","dur_ms","note"?}, ...]} with spans
     * sorted by start offset (ties keep record order, so a parent span
     * precedes the nested spans it contains). @p mark_respond appends a
     * synthetic zero-duration "respond" span stamped now — the moment
     * the result serializer read the trace — without mutating the
     * stored timeline (serialization stays idempotent).
     */
    service::Json toJson(bool mark_respond = false) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    double iterFirstMs_ = 0.0;
    double iterLastMs_ = 0.0;
    int iterations_ = 0;
};

} // namespace chocoq::obs

#endif // CHOCOQ_OBS_TRACE_HPP
