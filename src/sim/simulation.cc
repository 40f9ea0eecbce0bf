#include "sim/simulation.hh"

#include "psim/parallel_sim.hh"

namespace famsim {

std::uint64_t
Simulation::run(Tick limit)
{
    if (!parallel_)
        return events_.run(limit);
    FAMSIM_ASSERT(limit == EventQueue::kForever,
                  "the parallel kernel runs until it drains");
    return parallel_->run();
}

void
Simulation::postArbitrated(Arbiter& arbiter, unsigned channel,
                           std::uint32_t dst, DeliverFn fn)
{
    parallel_->postArbitrated(arbiter, channel, dst, std::move(fn));
}

void
Simulation::postDelivery(std::uint32_t dst, Tick when, DeliverFn fn)
{
    parallel_->deliver(dst, when, std::move(fn));
}

void
Simulation::postGlobal(Tick due, std::function<void()> fn)
{
    parallel_->postGlobal(due, std::move(fn));
}

void
Simulation::runInPartition(std::uint32_t partition,
                           InlineFunction<void(), 16> fn)
{
    parallel_->withPartition(partition, fn);
}

} // namespace famsim
