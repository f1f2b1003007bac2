#include "service/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <iostream>

namespace chocoq::service
{

Scheduler::Scheduler(int workers)
{
    const int n = std::max(workers, 1);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto w = std::make_unique<Worker>();
        w->context.id = i;
        w->thread = std::thread([this, worker = w.get()] {
            workerLoop(*worker);
        });
        workers_.push_back(std::move(w));
    }
}

Scheduler::~Scheduler()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w->thread.join();
}

void
Scheduler::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
        ++inflight_;
    }
    work_cv_.notify_one();
}

void
Scheduler::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

long long
Scheduler::nowMs() const
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

std::size_t
Scheduler::queuedTasks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

std::size_t
Scheduler::inflightTasks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_;
}

Scheduler::WorkerSnapshot
Scheduler::workerSnapshot(int id) const
{
    const Worker &w = *workers_[static_cast<std::size_t>(id)];
    WorkerSnapshot s;
    s.id = id;
    s.busySinceMs = w.busySinceMs.load(std::memory_order_acquire);
    s.busy = s.busySinceMs >= 0;
    s.busyMs = s.busy ? static_cast<double>(nowMs() - s.busySinceMs) : 0.0;
    s.tasksDone = w.tasksDone.load(std::memory_order_relaxed);
    return s;
}

std::vector<Scheduler::WorkerSnapshot>
Scheduler::workerSnapshots() const
{
    std::vector<WorkerSnapshot> out;
    out.reserve(workers_.size());
    for (int id = 0; id < workers(); ++id)
        out.push_back(workerSnapshot(id));
    return out;
}

void
Scheduler::workerLoop(Worker &self)
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, and ~Scheduler waited the queue out
            task = std::move(queue_.front());
            queue_.pop_front();
        }

        // A throwing task (SolveService catches solver errors, but user
        // result callbacks are arbitrary code) must not escape the
        // thread body — that would std::terminate the whole pool — and
        // must still count as finished or wait() would hang forever.
        self.busySinceMs.store(nowMs(), std::memory_order_release);
        try {
            task(self.context);
        } catch (const std::exception &e) {
            std::cerr << "scheduler: task on worker " << self.context.id
                      << " threw: " << e.what() << "\n";
        } catch (...) {
            std::cerr << "scheduler: task on worker " << self.context.id
                      << " threw a non-std exception\n";
        }
        self.busySinceMs.store(-1, std::memory_order_release);
        self.tasksDone.fetch_add(1, std::memory_order_relaxed);

        {
            std::lock_guard<std::mutex> lock(mu_);
            --inflight_;
            if (inflight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

} // namespace chocoq::service
