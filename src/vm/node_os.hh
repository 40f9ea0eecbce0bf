/**
 * @file
 * The node operating system's memory management view (§III-A).
 *
 * Each node's OS manages an *imaginary* flat node-physical space made
 * of two NUMA-like zones: low addresses map to the node's local DRAM
 * and high addresses to the FAM. The OS is oblivious to the real FAM
 * layout (in I-FAM/DeACT modes) — it simply hands out NPA pages on
 * first touch, 20 % local / 80 % FAM by default (§IV footnote).
 *
 * In E-FAM mode the OS is "patched" to talk to the memory broker and
 * maps real FAM pages directly (high bit of the value page marks a
 * FAM-direct mapping); this is the insecure baseline of Fig. 2(a).
 */

#ifndef FAMSIM_VM_NODE_OS_HH
#define FAMSIM_VM_NODE_OS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fam/broker.hh"
#include "sim/simulation.hh"
#include "vm/page_table.hh"

namespace famsim {

/** How FAM-zone pages materialize. */
enum class FamMode : std::uint8_t {
    Exposed,  //!< E-FAM: OS maps real FAM pages via the broker.
    Indirect, //!< I-FAM / DeACT: imaginary NPA zone, mapped at system level.
};

/** Bit set in a *page number* to mark an E-FAM direct FAM mapping. */
inline constexpr std::uint64_t kFamDirectPageBit = std::uint64_t{1} << 50;

/** Node OS configuration. */
struct NodeOsParams {
    /** Local DRAM capacity (Table II: 1 GB). */
    std::uint64_t localBytes = std::uint64_t{1} << 30;
    /** DRAM reserved at the top for the FAM translation cache. */
    std::uint64_t reservedLocalBytes = std::uint64_t{2} << 20;
    /**
     * Size of the FAM-backed NPA zone. The zone is *imaginary* (the OS
     * manages it obliviously, §III-A) and deliberately large: combined
     * with fragmentation (scatterFamZone) it makes the system-level
     * FAM page table sparse, so STU walks touch the PUD/PMD/PTE levels
     * for real (~3 accesses), as in Fig. 1(b).
     */
    std::uint64_t famZoneBytes = std::uint64_t{64} << 30;
    /** Fraction of pages allocated from the local zone (0.2 in §IV). */
    double localFraction = 0.2;
    /** OS page-fault handling latency (kernel entry + PT update). */
    Tick faultLatency = 1500 * kNanosecond;
    /**
     * Scatter FAM-zone allocations across the zone (a long-running
     * OS's free lists are fragmented). Scattered NPA pages make the
     * system-level (FAM) page table sparse, so STU walks really take
     * multiple steps — the effect Fig. 1(b) is about.
     */
    bool scatterFamZone = true;
};

/**
 * Per-node OS memory manager: first-touch allocation across the two
 * zones plus the node page table.
 */
class NodeOs : public Component
{
  public:
    NodeOs(Simulation& sim, const std::string& name,
           const NodeOsParams& params, FamMode mode, NodeId node,
           MemoryBroker* broker);

    /**
     * Handle a page fault for @p va_page: allocates an NPA page,
     * installs the mapping and returns the latency to charge
     * (including the broker round trip in Exposed mode).
     */
    Tick handleFault(std::uint64_t va_page);

    /**
     * Batched prefault: for every not-yet-mapped page of @p va_pages
     * (in order), run the normal first-touch fault path. Counter and
     * allocation-cursor side effects are bit-identical to calling
     * `if (!pageTable().lookup(p)) handleFault(p)` per page — only the
     * per-page double radix descend is fused and cached
     * (HierarchicalPageTable::BulkMapper), which is what makes
     * scenario construction cheap.
     */
    void prefaultPages(const std::vector<std::uint64_t>& va_pages);

    /** The node page table (VA page -> NPA page). */
    [[nodiscard]] HierarchicalPageTable& pageTable() { return table_; }

    /** Map a specific VA page to a specific NPA page (shared memory). */
    void mapExplicit(std::uint64_t va_page, std::uint64_t npa_page,
                     Perms perms);

    /** Allocate an NPA page in the FAM zone without mapping a VA. */
    std::uint64_t allocFamZonePage();

    /** Whether @p addr falls in the local-DRAM zone. */
    [[nodiscard]] bool
    isLocal(NPAddr addr) const
    {
        return addr.value() < params_.localBytes &&
               (addr.pageNumber() & kFamDirectPageBit) == 0;
    }

    /** Whether @p addr is an E-FAM direct FAM mapping. */
    [[nodiscard]] static bool
    isFamDirect(NPAddr addr)
    {
        return (addr.pageNumber() & kFamDirectPageBit) != 0;
    }

    /** Extract the FAM address from an E-FAM direct NPA. */
    [[nodiscard]] static FamAddr
    famDirectAddr(NPAddr addr)
    {
        return FamAddr((addr.pageNumber() & ~kFamDirectPageBit) *
                           kPageSize +
                       addr.pageOffset());
    }

    [[nodiscard]] const NodeOsParams& params() const { return params_; }
    [[nodiscard]] FamMode mode() const { return mode_; }

    /** Pages allocated so far in each zone (for tests). */
    [[nodiscard]] std::uint64_t localPagesAllocated() const
    {
        return localCursor_;
    }
    [[nodiscard]] std::uint64_t famPagesAllocated() const
    {
        return famCursor_;
    }

    /** NPA page numbers handed out in the FAM zone (for prefaulting). */
    [[nodiscard]] const std::vector<std::uint64_t>&
    famZonePages() const
    {
        return famZonePages_;
    }

  private:
    /**
     * The fault-time allocation shared by handleFault and
     * prefaultPages: counts the fault, allocates the NPA page (broker
     * round trip in Exposed mode, adding its latency to @p latency)
     * — one copy so the two paths can never drift.
     */
    std::uint64_t faultAllocate(Tick& latency);

    /** Pick a zone for the next allocation and bump its cursor. */
    std::uint64_t allocValuePage(bool& out_is_fam);
    /** Allocator for page-table pages (follows the same zone policy). */
    std::uint64_t allocTablePage();

    NodeOsParams params_;
    FamMode mode_;
    NodeId node_;
    MemoryBroker* broker_;

    std::uint64_t localCursor_ = 0;  //!< next free local page index
    std::uint64_t famCursor_ = 0;    //!< next free FAM-zone page index
    std::uint64_t allocCount_ = 0;   //!< total allocations (for ratio)
    std::uint64_t localCount_ = 0;   //!< local allocations (for ratio)
    std::uint64_t famStride_ = 1;    //!< scatter stride (coprime)
    std::vector<std::uint64_t> famZonePages_;

    // Note: the counters are declared before table_ because the page
    // table allocates its root page (through allocTablePage, which
    // updates these counters) during construction.
    Counter& faults_;
    Counter& localPages_;
    Counter& famPages_;

    HierarchicalPageTable table_;
};

} // namespace famsim

#endif // FAMSIM_VM_NODE_OS_HH
