#include "psim/worker_pool.hh"

#include "sim/logging.hh"

namespace famsim {
namespace {

/** One busy-wait poll: lets the sibling hyperthread run meanwhile. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Polls between yields while spinning: on an oversubscribed host
 * (parallel ctest, nested pools) the thread being waited for may be
 * queued behind the spinner on the same CPU.
 */
constexpr unsigned kYieldEvery = 64;

/**
 * Wait until @p word stops reading @p old and return its new value:
 * spin kSpinBudget polls, then park. The acquire load pairs with the
 * writer's release, so whatever it published before the change is
 * visible on return.
 */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t>& word, std::uint32_t old)
{
    for (unsigned spin = 1;; ++spin) {
        const std::uint32_t now = word.load(std::memory_order_acquire);
        if (now != old)
            return now;
        if (spin > WorkerPool::kSpinBudget)
            word.wait(old, std::memory_order_acquire);
        else if (spin % kYieldEvery == 0)
            std::this_thread::yield();
        else
            cpuRelax();
    }
}

} // namespace

WorkerPool::WorkerPool(unsigned threads)
{
    FAMSIM_ASSERT(threads >= 1, "worker pool needs at least one thread");
    cursors_ = std::make_unique<Cursor[]>(threads);
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
}

WorkerPool::~WorkerPool()
{
    shutdown_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

void
WorkerPool::claimTasks(unsigned worker)
{
    // Claim-and-run off this worker's own cursor (tasks worker,
    // worker + T, ...), then off every other worker's in turn, until
    // each cursor is past the last task. Exiting this loop means every
    // task this worker claimed has completed.
    const unsigned workers = threads();
    for (unsigned k = 0; k < workers; ++k) {
        const unsigned home = (worker + k) % workers;
        std::atomic<std::size_t>& next = cursors_[home].next;
        for (;;) {
            const std::size_t task =
                home + next.fetch_add(1, std::memory_order_relaxed) * workers;
            if (task >= epochTasks_)
                break;
            epochThunk_(epochCtx_, task);
        }
    }
}

void
WorkerPool::workerMain(unsigned worker)
{
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitChange(generation_, seen);
        if (shutdown_)
            return;
        claimTasks(worker);
        // The last worker out releases the caller; the notify is a
        // no-op unless the caller has parked.
        if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            busy_.notify_one();
    }
}

void
WorkerPool::runTasks(std::size_t tasks, const void* ctx, TaskThunk thunk)
{
    if (tasks == 0)
        return;
    ++epochs_;
    if (workers_.empty()) {
        for (std::size_t i = 0; i < tasks; ++i)
            thunk(ctx, i);
        return;
    }
    epochCtx_ = ctx;
    epochThunk_ = thunk;
    epochTasks_ = tasks;
    for (unsigned w = 0; w < threads(); ++w)
        cursors_[w].next.store(0, std::memory_order_relaxed);
    // Every worker joins every epoch (a full-acknowledgment barrier):
    // busy_ reaches zero only after each worker has observed this
    // generation, drained its claims and left the claim loop — so the
    // next epoch can safely reuse the fields above, and every task's
    // writes are published to the caller through busy_'s release
    // sequence before runEpoch returns.
    busy_.store(static_cast<std::uint32_t>(workers_.size()),
                std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    claimTasks(0);
    for (std::uint32_t left = busy_.load(std::memory_order_acquire);
         left != 0; left = awaitChange(busy_, left)) {
    }
}

} // namespace famsim
