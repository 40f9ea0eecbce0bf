#include "harness/executor.hh"

#include <exception>
#include <sstream>

#include "sim/profiler.hh"

namespace famsim {

SweepExecutor::SweepExecutor(unsigned jobs) : pool_(jobs == 0 ? 1 : jobs) {}

void
SweepExecutor::forEach(std::size_t tasks,
                       const std::function<void(std::size_t)>& fn)
{
    // The raw WorkerPool epoch has no exception story (a throw on a
    // worker thread terminates the process); capture per slot instead
    // and rethrow the lowest-slot failure on the caller once the
    // barrier has passed — every non-throwing task still completes,
    // and the rethrown error is deterministic in the face of
    // completion-order races.
    std::vector<std::exception_ptr> errors(tasks);
    pool_.runEpoch(tasks, [&](std::size_t task) {
        try {
            fn(task);
        } catch (...) {
            errors[task] = std::current_exception();
        }
    });
    for (std::exception_ptr& error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::vector<std::string>
SweepExecutor::runScenarioJsons(const std::vector<Scenario>& points,
                                unsigned threads)
{
    std::vector<std::string> out(points.size());
    pointSeconds_.assign(points.size(), 0.0);
    forEach(points.size(), [&](std::size_t task) {
        Profiler::Timer timer;
        std::ostringstream os;
        writeScenarioJson(os, points[task], threads);
        systemsBuilt_.fetch_add(1, std::memory_order_relaxed);
        out[task] = os.str();
        pointSeconds_[task] = timer.seconds();
    });
    return out;
}

std::vector<RunResult>
SweepExecutor::runResults(const std::vector<SystemConfig>& configs,
                          unsigned threads)
{
    std::vector<RunResult> out(configs.size());
    pointSeconds_.assign(configs.size(), 0.0);
    forEach(configs.size(), [&](std::size_t task) {
        Profiler::Timer timer;
        out[task] = runOne(configs[task], threads);
        systemsBuilt_.fetch_add(1, std::memory_order_relaxed);
        pointSeconds_[task] = timer.seconds();
    });
    return out;
}

} // namespace famsim
