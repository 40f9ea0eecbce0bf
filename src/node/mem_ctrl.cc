#include "node/mem_ctrl.hh"

#include "sim/logging.hh"

namespace famsim {

MemController::MemController(Simulation& sim, const std::string& name,
                             NodeOs& os, BankedMemory& dram,
                             MemSink& fam_path)
    : Component(sim, name),
      os_(os),
      dram_(dram),
      famPath_(fam_path),
      localAccesses_(statCounter("local_accesses",
                                 "accesses served by local DRAM")),
      famAccesses_(statCounter("fam_accesses",
                               "accesses routed to the FAM path"))
{
}

void
MemController::access(PktPtr pkt)
{
    if (NodeOs::isFamDirect(pkt->npa)) {
        // E-FAM: the node page table holds real FAM addresses.
        pkt->fam = NodeOs::famDirectAddr(pkt->npa);
        pkt->hasFam = true;
        ++famAccesses_;
        famPath_.access(std::move(pkt));
        return;
    }
    if (os_.isLocal(pkt->npa)) {
        ++localAccesses_;
        std::uint64_t addr = pkt->npa.value();
        dram_.access(std::move(pkt), addr);
        return;
    }
    ++famAccesses_;
    famPath_.access(std::move(pkt));
}

} // namespace famsim
