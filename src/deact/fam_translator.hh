/**
 * @file
 * The DeACT FAM translator (§III-C, Fig. 6/7) — hardware in the node's
 * memory controller that maps node addresses to FAM addresses using a
 * FAM translation cache resident in local DRAM.
 *
 * Key properties from the paper:
 *  - the translation cache is a 4-way array of 64 B lines (each line
 *    holds four 104-bit entries: 52-bit NPA-page tag + 52-bit FAM page);
 *  - every lookup costs one DRAM access followed by a one-cycle
 *    parallel tag match over the four fetched entries;
 *  - hits tag the request with the FAM address and set the 'V' flag —
 *    the translation is *unverified*; access control still happens at
 *    the system level (STU);
 *  - misses ride to the STU with V = 0; the STU walks the FAM page
 *    table and returns the mapping, which the translator installs with
 *    a 64 B read-modify-write of DRAM and a *random* way choice;
 *  - responses are converted back from FAM to node addresses via the
 *    outstanding mapping list (128 entries); when it is full, new
 *    response-expecting requests stall.
 */

#ifndef FAMSIM_DEACT_FAM_TRANSLATOR_HH
#define FAMSIM_DEACT_FAM_TRANSLATOR_HH

#include <cstdint>
#include <deque>
#include <string>

#include "cache/set_assoc.hh"
#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "mem/banked_memory.hh"
#include "mem/mem_sink.hh"
#include "sim/simulation.hh"
#include "stu/stu.hh"

namespace famsim {

/** FAM translator configuration. */
struct FamTranslatorParams {
    /** Size of the in-DRAM FAM translation cache (§IV: 1 MB). */
    std::uint64_t cacheBytes = std::uint64_t{1} << 20;
    /** Entries per 64 B line (4-way associative per the paper). */
    unsigned waysPerLine = 4;
    /** Tag-match latency (parallel comparators, one core cycle). */
    Tick tagMatchLatency = 500; // 0.5 ns at 2 GHz
    /** Outstanding mapping list capacity. */
    unsigned maxOutstanding = 128;
    /** Base address of the reserved DRAM region holding the cache. */
    std::uint64_t dramCacheBase = 0;
};

/**
 * Node-side unverified translation stage of DeACT.
 *
 * Sits between the memory controller's FAM-zone output and the STU.
 */
class FamTranslator : public Component, public MemSink
{
  public:
    FamTranslator(Simulation& sim, const std::string& name,
                  const FamTranslatorParams& params, BankedMemory& dram,
                  Stu& stu);

    /** Accept a FAM-zone request from the memory controller. */
    void access(PktPtr pkt) override;

    /**
     * Mapping response from the STU's FAM page-table walker (step 5 in
     * Fig. 6): installs the entry and replays coalesced requests.
     */
    void onMapping(std::uint64_t npa_page, std::uint64_t fam_page);

    /** Drop all cached translations (job migration shootdown, §VI). */
    void invalidateAll();

    /** Translation cache hit rate (Fig. 10, DeACT series). */
    [[nodiscard]] double hitRate() const;

    [[nodiscard]] const FamTranslatorParams& params() const
    {
        return params_;
    }

    /** Number of cache sets (lines) — for tests. */
    [[nodiscard]] std::size_t cacheSets() const { return cache_.sets(); }

  private:
    /** Continuation of one translation-cache DRAM access. */
    using DramDone = InlineFunction<void(), 24>;

    void startLookup(PktPtr pkt);
    void finishLookup(PktPtr pkt);
    void forward(PktPtr pkt);
    void readDram(std::uint64_t npa_page, MemOp op, DramDone done);

    FamTranslatorParams params_;
    BankedMemory& dram_;
    Stu& stu_;

    /** Functional cache contents: NPA page -> FAM page. */
    SetAssocCache<std::uint64_t> cache_;

    /** Misses coalesced per NPA page, waiting for the STU's mapping. */
    U64FlatMap<PktWaiters> pending_;

    /** Outstanding mapping list occupancy + stall queue. */
    unsigned outstanding_ = 0;
    std::deque<PktPtr> stallQueue_;

    Counter& lookups_;
    Counter& hits_;
    Counter& misses_;
    Counter& dramReads_;
    Counter& dramWrites_;
    Counter& coalesced_;
    Counter& stalls_;
    Counter& invalidations_;
    /** Lookup-latency histogram (observability); null when off. */
    Histogram* obsLookup_ = nullptr;
};

} // namespace famsim

#endif // FAMSIM_DEACT_FAM_TRANSLATOR_HH
