/**
 * @file
 * WorkerPool — a fixed pool of threads executing one epoch of
 * independent tasks at a time, with a full barrier between epochs.
 *
 * The parallel kernel runs one epoch per synchronization window: the
 * tasks are the partitions, claimed dynamically off a shared atomic
 * counter so an expensive partition (a media module in a miss storm,
 * or a worker that lost its CPU to host steal) does not leave the
 * other workers idle behind a static assignment.
 *
 * The handoff is a spin-then-park barrier: an atomic generation
 * counter starts an epoch and an atomic busy count ends it. Waiters
 * (idle workers, and the caller waiting for the last task) poll for
 * kSpinBudget rounds — a pause instruction each, with a yield every
 * few dozen so an oversubscribed host can run the thread being waited
 * for — then park on C++20 atomic wait/notify. Windows are tens to
 * hundreds of microseconds apart, so the spin usually catches the next
 * epoch without a syscall; a pool left idle (between sweeps, or after
 * the run) stops burning CPU once the budget is spent.
 *
 * The calling thread participates as a worker, so a pool built for N
 * threads spawns N - 1; with N == 1 no thread is ever created and
 * runEpoch degenerates to a plain loop — the threads=1 kernel is the
 * same code path as threads=4 minus the concurrency.
 */

#ifndef FAMSIM_PSIM_WORKER_POOL_HH
#define FAMSIM_PSIM_WORKER_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace famsim {

/** Fixed thread pool with epoch-barrier semantics. */
class WorkerPool
{
  public:
    /** Polls a waiter spins before it parks (~0.5 ms on a 4-vCPU
     *  Xeon host, where a pause takes ~24 ns). */
    static constexpr unsigned kSpinBudget = 1u << 14;

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

    /** Epochs run so far (runEpoch calls with at least one task). */
    [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

    /**
     * Run fn(0) .. fn(tasks - 1), each exactly once, distributed over
     * the pool (the caller helps). Returns only after every worker has
     * acknowledged the epoch — a full barrier: everything the tasks
     * wrote happens-before the return. The workers call @p fn through
     * a reference, so an epoch costs no allocation.
     */
    template <typename F>
    void
    runEpoch(std::size_t tasks, const F& fn)
    {
        runTasks(tasks, std::addressof(fn),
                 [](const void* ctx, std::size_t task) {
                     (*static_cast<const F*>(ctx))(task);
                 });
    }

  private:
    /** Type-erased task: the epoch's callable and its invoker. */
    using TaskThunk = void (*)(const void*, std::size_t);

    void runTasks(std::size_t tasks, const void* ctx, TaskThunk thunk);
    void workerMain();
    void claimTasks();

    /** Bumped (release) to start an epoch or to shut down. */
    std::atomic<std::uint32_t> generation_{0};
    /** Workers still inside the current epoch; the last one out
     *  (acq_rel) releases the caller. */
    std::atomic<std::uint32_t> busy_{0};
    /** Written before a generation bump, read after it. */
    bool shutdown_ = false;
    const void* epochCtx_ = nullptr;
    TaskThunk epochThunk_ = nullptr;
    std::size_t epochTasks_ = 0;
    std::atomic<std::size_t> nextTask_{0};
    /** Caller-thread only. */
    std::uint64_t epochs_ = 0;
    /** Last: the threads use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace famsim

#endif // FAMSIM_PSIM_WORKER_POOL_HH
