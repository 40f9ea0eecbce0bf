/**
 * @file
 * Node memory controller: steers LLC misses by NPA zone.
 *
 * Local-zone addresses go to the node's DRAM; FAM-zone addresses take
 * the architecture-specific FAM path (direct fabric access in E-FAM,
 * the STU in I-FAM, the FAM translator in DeACT). E-FAM "direct"
 * mappings (real FAM addresses installed by the patched OS) are
 * unwrapped here.
 */

#ifndef FAMSIM_NODE_MEM_CTRL_HH
#define FAMSIM_NODE_MEM_CTRL_HH

#include <string>

#include "mem/banked_memory.hh"
#include "mem/mem_sink.hh"
#include "sim/simulation.hh"
#include "vm/node_os.hh"

namespace famsim {

/** The node's memory controller (Fig. 6 host of the FAM translator). */
class MemController : public Component, public MemSink
{
  public:
    MemController(Simulation& sim, const std::string& name, NodeOs& os,
                  BankedMemory& dram, MemSink& fam_path);

    void access(PktPtr pkt) override;

  private:
    NodeOs& os_;
    BankedMemory& dram_;
    MemSink& famPath_;

    Counter& localAccesses_;
    Counter& famAccesses_;
};

} // namespace famsim

#endif // FAMSIM_NODE_MEM_CTRL_HH
