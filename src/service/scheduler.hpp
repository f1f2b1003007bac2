/**
 * @file
 * FIFO thread-pool scheduler for solve jobs.
 *
 * One queue under one mutex: submit() appends, and the next free worker
 * takes the oldest task, so jobs start in submission order. Job
 * granularity is milliseconds-to-seconds, so the mutex is nowhere near
 * contended. Each worker keeps its own WorkerContext, so every job it
 * runs reuses its warm scratch state.
 *
 * Determinism contract: the scheduler decides only *where and when* a
 * task runs, never its inputs. Tasks derive all randomness from their
 * job seed and write only task-local state plus their own result slot,
 * so outputs are independent of worker count and start order (tested
 * property).
 */

#ifndef CHOCOQ_SERVICE_SCHEDULER_HPP
#define CHOCOQ_SERVICE_SCHEDULER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/executor.hpp"
#include "sim/statevector.hpp"

namespace chocoq::service
{

/** Per-worker execution state handed to every task the worker runs. */
struct WorkerContext
{
    /** Worker index in [0, workers). */
    int id = 0;
    /** The worker's private scratch state (reused across its jobs; the
     * engine re-dimensions it per run). */
    sim::StateVector scratch{1};
    /** The worker's noisy sampler: the clean and work states and the
     * draw storage of device-noise jobs, reused the same way. */
    sim::NoisySampler sampler;
};

/** Fixed-size thread pool over one FIFO task queue. */
class Scheduler
{
  public:
    using Task = std::function<void(WorkerContext &)>;

    /**
     * Liveness snapshot of one worker, for the service's stall
     * accounting and the health probe. busySinceMs is the
     * scheduler-relative start time of the task currently running (-1
     * when idle); it doubles as a task id — the service counts each
     * stuck task at most once by remembering the busySinceMs value it
     * already counted.
     */
    struct WorkerSnapshot
    {
        int id = 0;
        bool busy = false;
        /** Milliseconds the current task has been running (0 if idle). */
        double busyMs = 0.0;
        /** Raw busy-start timestamp (ms since scheduler start; -1 idle). */
        long long busySinceMs = -1;
        /** Tasks completed by this worker so far. */
        std::uint64_t tasksDone = 0;
    };

    /** Start @p workers threads (clamped to >= 1). */
    explicit Scheduler(int workers);

    /** Drains nothing: joins after finishing all submitted tasks. */
    ~Scheduler();

    int workers() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a task behind every task already queued. */
    void submit(Task task);

    /** Block until every submitted task has finished. */
    void wait();

    /** Tasks queued, not yet picked up by a worker. */
    std::size_t queuedTasks() const;

    /** Tasks submitted and not yet finished (queued + running). */
    std::size_t inflightTasks() const;

    /** Point-in-time liveness of worker @p id in [0, workers())
     * (lock-free reads, no allocation). */
    WorkerSnapshot workerSnapshot(int id) const;

    /** workerSnapshot() of every worker. */
    std::vector<WorkerSnapshot> workerSnapshots() const;

  private:
    struct Worker
    {
        std::thread thread;
        WorkerContext context;
        /** ms since scheduler start when the running task began; -1 idle. */
        std::atomic<long long> busySinceMs{-1};
        std::atomic<std::uint64_t> tasksDone{0};
    };

    void workerLoop(Worker &self);
    long long nowMs() const;

    std::vector<std::unique_ptr<Worker>> workers_;
    const std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    /** Tasks not yet picked up, oldest first. */
    std::deque<Task> queue_;
    /** Tasks submitted but not yet finished. */
    std::size_t inflight_ = 0;
    bool stop_ = false;
};

} // namespace chocoq::service

#endif // CHOCOQ_SERVICE_SCHEDULER_HPP
