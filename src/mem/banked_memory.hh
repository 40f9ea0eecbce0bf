/**
 * @file
 * Banked memory timing model used for both local DRAM and the FAM NVM
 * media.
 *
 * Requests are block-interleaved across banks; each bank serves one
 * access at a time and stays busy for the access latency. A configurable
 * cap on simultaneously outstanding requests models the FAM controller's
 * 128-deep request window (Table II); excess requests queue FIFO at the
 * front door.
 */

#ifndef FAMSIM_MEM_BANKED_MEMORY_HH
#define FAMSIM_MEM_BANKED_MEMORY_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mem/packet.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace famsim {

/** Timing parameters for a BankedMemory. */
struct BankedMemoryParams {
    /** Number of independent banks. */
    unsigned banks = 16;
    /** Latency of a read access (also the bank busy time). */
    Tick readLatency = 45 * kNanosecond;
    /** Latency of a write access (also the bank busy time). */
    Tick writeLatency = 45 * kNanosecond;
    /** Fixed controller/front-end overhead added to every access. */
    Tick frontendLatency = 5 * kNanosecond;
    /** Maximum in-flight accesses; 0 means unlimited. */
    unsigned maxOutstanding = 0;
};

/**
 * A banked, latency/occupancy memory model.
 *
 * The model is address-space agnostic: callers supply the raw address
 * used for bank interleaving, so the same class backs DRAM (NPA space)
 * and FAM media (FAM space).
 */
class BankedMemory : public Component
{
  public:
    BankedMemory(Simulation& sim, const std::string& name,
                 const BankedMemoryParams& params);

    /**
     * Start an access for @p pkt, whose bank is derived from @p addr.
     * The packet's completion callback fires when the access finishes.
     */
    void access(PktPtr pkt, std::uint64_t addr);

    /** Number of requests currently inside the device (incl. queued). */
    [[nodiscard]] unsigned inFlight() const { return inFlight_; }

    [[nodiscard]] const BankedMemoryParams& params() const
    {
        return params_;
    }

  private:
    struct Waiting {
        PktPtr pkt;
        std::uint64_t addr;
    };

    void start(PktPtr pkt, std::uint64_t addr);
    void finish(PktPtr pkt);

    BankedMemoryParams params_;
    std::vector<Tick> bankFree_;
    std::deque<Waiting> waitQueue_;
    unsigned inFlight_ = 0;

    Counter& reads_;
    Counter& writes_;
    Counter& atReads_;
    Counter& queued_;
    Histogram& latency_;
    /**
     * Percentile-capable service-time histogram (observability); null
     * when off. Unlike latency_ it excludes the front-door wait, so it
     * isolates bank occupancy + device latency.
     */
    Histogram* obsService_ = nullptr;
};

} // namespace famsim

#endif // FAMSIM_MEM_BANKED_MEMORY_HH
