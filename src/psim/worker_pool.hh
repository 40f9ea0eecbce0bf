/**
 * @file
 * WorkerPool — a fixed pool of threads executing one epoch of
 * independent tasks at a time, with a full barrier between epochs.
 *
 * The parallel kernel runs one epoch per synchronization window: the
 * tasks are the partitions, claimed dynamically off a shared atomic
 * counter so an expensive partition (the fabric/FAM partition, or a
 * node whose cores are in a miss storm) does not leave the other
 * workers idle behind a static assignment.
 *
 * The calling thread participates as a worker, so a pool built for N
 * threads spawns N - 1; with N == 1 no thread is ever created and
 * runEpoch degenerates to a plain loop — the threads=1 kernel is the
 * same code path as threads=4 minus the concurrency.
 */

#ifndef FAMSIM_PSIM_WORKER_POOL_HH
#define FAMSIM_PSIM_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace famsim {

/** Fixed thread pool with epoch-barrier semantics. */
class WorkerPool
{
  public:
    /** @param threads total worker count including the caller (>= 1). */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Total workers, caller included. */
    [[nodiscard]] unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run fn(0) .. fn(tasks - 1), each exactly once, distributed over
     * the pool (the caller helps). Returns only after every call has
     * completed — a full barrier: everything the tasks wrote
     * happens-before the return.
     */
    void runEpoch(std::size_t tasks,
                  const std::function<void(std::size_t)>& fn);

  private:
    void workerMain();
    void claimTasks(std::size_t tasks);

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable epochStart_;
    std::condition_variable epochDone_;
    std::uint64_t generation_ = 0;
    bool shutdown_ = false;

    const std::function<void(std::size_t)>* epochFn_ = nullptr;
    std::size_t epochTasks_ = 0;
    std::size_t busyWorkers_ = 0;
    std::atomic<std::size_t> nextTask_{0};
};

} // namespace famsim

#endif // FAMSIM_PSIM_WORKER_POOL_HH
