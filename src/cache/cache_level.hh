/**
 * @file
 * One level of the data cache hierarchy (L1 / L2 / L3 in Table II).
 *
 * Write-back, write-allocate, with MSHR-style merging of outstanding
 * misses to the same block. The tag store is a SetAssocCache keyed by
 * node-physical block number.
 */

#ifndef FAMSIM_CACHE_CACHE_LEVEL_HH
#define FAMSIM_CACHE_CACHE_LEVEL_HH

#include <cstdint>
#include <string>

#include "cache/set_assoc.hh"
#include "mem/mem_sink.hh"
#include "sim/flat_map.hh"
#include "sim/simulation.hh"

namespace famsim {

/** Configuration of a cache level. */
struct CacheParams {
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity (ways). */
    unsigned assoc = 8;
    /** Lookup (hit) latency. */
    Tick latency = 1 * kNanosecond;
    ReplPolicy policy = ReplPolicy::Lru;
};

/**
 * A single write-back cache level.
 *
 * Responses are delivered through the packet completion callback; fills
 * inherit the requesting packet's kind so translation traffic remains
 * classified correctly all the way to the FAM (Fig. 4 accounting).
 */
class CacheLevel : public Component, public MemSink
{
  public:
    CacheLevel(Simulation& sim, const std::string& name,
               const CacheParams& params, MemSink& next);

    void access(PktPtr pkt) override;

    /** Drop every line (used by tests and job migration). */
    void invalidateAll();

    /** Hit rate since the last stats reset (for tests). */
    [[nodiscard]] double hitRate() const;

    [[nodiscard]] const CacheParams& params() const { return params_; }

  private:
    struct LineMeta {
        bool dirty = false;
        PacketKind kind = PacketKind::Data;
    };

    void lookup(PktPtr pkt);
    void handleFill(std::uint64_t block_key);

    CacheParams params_;
    MemSink& next_;
    SetAssocCache<LineMeta> tags_;
    /** Outstanding misses: block -> waiting packets. */
    U64FlatMap<PktWaiters> mshrs_;

    Counter& hits_;
    Counter& misses_;
    Counter& writebacks_;
    Counter& mshrMerges_;
};

} // namespace famsim

#endif // FAMSIM_CACHE_CACHE_LEVEL_HH
