#include "fabric/fabric_link.hh"

#include "psim/parallel_sim.hh"

namespace famsim {

FabricLink::FabricLink(Simulation& sim, const std::string& name,
                       const FabricParams& params)
    : Component(sim, name),
      params_(params),
      packets_(statCounter("packets", "packets transferred")),
      queueing_(statHistogram("queueing_ns",
                              "serialization queueing delay (ns)",
                              /*bucket_width=*/10, /*buckets=*/32))
{
}

Tick
FabricLink::departureAt(Channel channel, Tick now)
{
    Tick start = std::max(now, channelFree_[channel]);
    channelFree_[channel] = start + params_.serialization;
    ++packets_;
    queueing_.sample((start - now) / kNanosecond);
    return start + params_.latency;
}

Tick
FabricLink::departure(Channel channel)
{
    return departureAt(channel, sim_.curTick());
}

Tick
FabricLink::arbitrate(unsigned channel, Tick sent)
{
    return departureAt(static_cast<Channel>(channel), sent);
}

void
FabricLink::postRequestParallel(unsigned dst_module, DeliverFn fn)
{
    // No sender-kind check needed: postArbitrated rejects edgeless
    // pairs and the barrier checks each delivery against its edge.
    ParallelSim* psim = sim_.parallel();
    psim->postArbitrated(*this, Request, psim->mediaPartition(dst_module),
                         std::move(fn));
}

void
FabricLink::postResponseParallel(NodeId dst_node, DeliverFn fn)
{
    ParallelSim* psim = sim_.parallel();
    psim->postArbitrated(*this, Response, psim->nodePartition(dst_node),
                         std::move(fn));
}

} // namespace famsim
