/**
 * @file
 * The MemSink interface: anything that can accept a memory packet.
 *
 * Cache levels, memory controllers, the FAM translator path and the
 * fabric endpoints all implement this, so the node hierarchy can be
 * composed out of interchangeable stages.
 */

#ifndef FAMSIM_MEM_MEM_SINK_HH
#define FAMSIM_MEM_MEM_SINK_HH

#include "mem/packet.hh"

namespace famsim {

/** Consumer of memory packets; completion is via complete(PktPtr). */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /**
     * Accept @p pkt for service. The packet's node-physical address
     * must be valid. The caller hands its handle over (move it in);
     * the sink moves it along and must eventually pass it to
     * complete().
     */
    virtual void access(PktPtr pkt) = 0;
};

} // namespace famsim

#endif // FAMSIM_MEM_MEM_SINK_HH
