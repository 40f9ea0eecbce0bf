#include "psim/worker_pool.hh"

#include "sim/logging.hh"

namespace famsim {

WorkerPool::WorkerPool(unsigned threads)
{
    FAMSIM_ASSERT(threads >= 1, "worker pool needs at least one thread");
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    epochStart_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

void
WorkerPool::claimTasks(std::size_t tasks)
{
    // Claim-and-run off the shared counter until every task index has
    // been handed out. Exiting this loop means every task this worker
    // claimed has completed. epochFn_ is stable for the whole epoch
    // (published before the generation bump, read after it).
    for (;;) {
        std::size_t task =
            nextTask_.fetch_add(1, std::memory_order_relaxed);
        if (task >= tasks)
            return;
        (*epochFn_)(task);
    }
}

void
WorkerPool::workerMain()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::size_t tasks;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            epochStart_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            tasks = epochTasks_;
        }
        claimTasks(tasks);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--busyWorkers_ == 0)
                epochDone_.notify_all();
        }
    }
}

void
WorkerPool::runEpoch(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn)
{
    if (tasks == 0)
        return;
    if (workers_.empty()) {
        for (std::size_t i = 0; i < tasks; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        epochFn_ = &fn;
        epochTasks_ = tasks;
        nextTask_.store(0, std::memory_order_relaxed);
        // Every worker joins every epoch (a full-acknowledgment
        // barrier): busyWorkers_ reaches zero only after each worker
        // has observed this generation, drained its claims and exited
        // the claim loop — so the next epoch can safely reuse the
        // counters, and all task effects are published through the
        // mutex before runEpoch returns.
        busyWorkers_ = workers_.size();
        ++generation_;
    }
    epochStart_.notify_all();
    claimTasks(tasks);
    std::unique_lock<std::mutex> lock(mutex_);
    epochDone_.wait(lock, [&] { return busyWorkers_ == 0; });
}

} // namespace famsim
