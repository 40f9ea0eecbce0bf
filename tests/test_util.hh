/**
 * @file
 * Shared test utilities: a fixed-latency memory stub and packet
 * helpers used across the unit tests.
 */

#ifndef FAMSIM_TESTS_TEST_UTIL_HH
#define FAMSIM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "mem/mem_sink.hh"
#include "sim/simulation.hh"

namespace famsim::test {

/** A memory sink that completes every access after a fixed latency. */
class StubMemory : public MemSink
{
  public:
    StubMemory(Simulation& sim, Tick latency)
        : sim_(sim), latency_(latency)
    {
    }

    void
    access(PktPtr pkt) override
    {
        ++accesses;
        lastAddr = pkt->npa.value();
        kinds.push_back(pkt->kind);
        sim_.events().scheduleAfter(
            latency_,
            [pkt = std::move(pkt)]() mutable { complete(std::move(pkt)); });
    }

    std::uint64_t accesses = 0;
    std::uint64_t lastAddr = 0;
    std::vector<PacketKind> kinds;

  private:
    Simulation& sim_;
    Tick latency_;
};

/** Make a simple data read packet for the given NPA. */
inline PktPtr
dataRead(std::uint64_t npa, NodeId node = 0)
{
    PktPtr pkt = makePacket(node, 0, MemOp::Read, PacketKind::Data);
    pkt->npa = NPAddr(npa);
    return pkt;
}

/** Run the simulation until the event queue drains. */
inline void
drain(Simulation& sim)
{
    sim.run();
}

} // namespace famsim::test

#endif // FAMSIM_TESTS_TEST_UTIL_HH
