#include "fabric/fabric_link.hh"

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
FabricLink::arbitrate(unsigned channel, Tick sent)
{
    Tick start = std::max(sent, channelFree_[channel]);
    channelFree_[channel] = start + params_.serialization;
    ++packets_;
    queueing_.sample((start - sent) / kNanosecond);
    return start + params_.latency;
}

} // namespace famsim
