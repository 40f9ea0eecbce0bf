#include "vm/walker.hh"

#include "sim/logging.hh"

namespace famsim {

NodePtWalker::NodePtWalker(Simulation& sim, const std::string& name,
                           HierarchicalPageTable& table,
                           PtwCache& ptw_cache, MemSink& mem, NodeId node,
                           CoreId core)
    : Component(sim, name),
      table_(table),
      ptwCache_(ptw_cache),
      mem_(mem),
      node_(node),
      core_(core),
      walks_(statCounter("walks", "page-table walks")),
      steps_(statCounter("steps", "walk memory accesses issued")),
      faults_(statCounter("faults", "walks ending in a page fault"))
{
}

void
NodePtWalker::walk(std::uint64_t va_page, DoneFn done)
{
    FAMSIM_ASSERT(done, "walker needs a completion callback");
    ++walks_;
    auto result = table_.walk(va_page);
    const std::size_t start = ptwCache_.firstStep(va_page, result.steps);
    step(va_page, std::move(result.steps), start, std::move(done));
}

void
NodePtWalker::step(std::uint64_t va_page,
                   HierarchicalPageTable::StepList steps,
                   std::size_t index, DoneFn done)
{
    if (index >= steps.size()) {
        ptwCache_.recordWalk(va_page, steps);
        auto leaf = table_.lookup(va_page);
        if (!leaf)
            ++faults_;
        done(leaf);
        return;
    }
    ++steps_;
    PktPtr pkt = makePacket(node_, core_, MemOp::Read,
                            PacketKind::NodePtw);
    pkt->npa = NPAddr(steps[index].addr).blockAddr();
    pkt->issued = sim_.curTick();
    pkt->onDone = [this, va_page, steps = std::move(steps), index,
                   done = std::move(done)](Packet&) mutable {
        step(va_page, std::move(steps), index + 1, std::move(done));
    };
    mem_.access(std::move(pkt));
}

} // namespace famsim
