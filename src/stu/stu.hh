/**
 * @file
 * System Translation Unit (STU) — the ZMMU-like hardware at the first
 * router/switch connecting a node to the fabric (§II-C, §III).
 *
 * The STU is the *trusted* side of DeACT. It supports three cache
 * organizations (Fig. 8):
 *
 *  - I-FAM: each way caches (NPA-page tag, FAM page, ACM) — combined
 *    translation + access control; misses walk the system-level FAM
 *    page table.
 *  - DeACT-W: translations live in the node's DRAM cache, so each way
 *    re-uses the freed space to cache the ACM of K contiguous FAM pages
 *    (K = floor(68 / acmBits): 4 for 16-bit ACM).
 *  - DeACT-N: each way is split into `pairsPerWay` (tag, ACM) sub-ways
 *    holding *non-contiguous* pages (2 for 16-bit ACM; 1–3 swept in
 *    Fig. 14).
 *
 * In DeACT mode the STU receives two kinds of packets, distinguished by
 * the 'V' flag: verified packets carry a FAM address and only need the
 * access-control check; unverified packets need a FAM page-table walk,
 * after which the mapping is returned to the node's FAM translator.
 */

#ifndef FAMSIM_STU_STU_HH
#define FAMSIM_STU_STU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cache/set_assoc.hh"
#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "fabric/fabric_link.hh"
#include "fam/acm.hh"
#include "fam/broker.hh"
#include "fam/fam_media.hh"
#include "mem/mem_sink.hh"
#include "sim/simulation.hh"
#include "vm/tlb.hh"

namespace famsim {

/** STU cache organization (Fig. 8). */
enum class StuOrg : std::uint8_t { IFam, DeactW, DeactN };

/** @return printable name of an STU organization. */
[[nodiscard]] constexpr const char*
toString(StuOrg org)
{
    switch (org) {
      case StuOrg::IFam: return "I-FAM";
      case StuOrg::DeactW: return "DeACT-W";
      case StuOrg::DeactN: return "DeACT-N";
    }
    return "?";
}

/** STU configuration (Table II defaults). */
struct StuParams {
    StuOrg org = StuOrg::IFam;
    /** Entry budget of the base (I-FAM) organization. */
    std::size_t entries = 1024;
    std::size_t assoc = 8;
    /** ACM entry width in bits (Fig. 14). */
    unsigned acmBits = 16;
    /** (tag, ACM) pairs per way for DeACT-N (Fig. 14: 1..3). */
    unsigned pairsPerWay = 2;
    /** SRAM lookup latency. */
    Tick lookupLatency = 2 * kNanosecond;
    /** Verification-unit latency (comparators). */
    Tick verifyLatency = 1 * kNanosecond;
    /** Entries in the STU's FAM page-table-walk cache [8]. */
    std::size_t ptwCacheEntries = 32;
    /** Entries in the shared-bitmap cache. */
    std::size_t bitmapCacheEntries = 16;
    /** Latency of the node <-> STU hop (part of the 500 ns fabric). */
    Tick nodeLinkLatency = 50 * kNanosecond;
    /** Outstanding-request limit (I-FAM keeps the mapping list here). */
    unsigned maxOutstanding = 128;
    /**
     * Tenant jobs sharing the system (SystemConfig::tenancy.jobs).
     * > 1 registers the per-job ACM contention tables.
     */
    unsigned jobs = 1;

    /** Contiguous pages whose ACM shares one DeACT-W way. */
    [[nodiscard]] unsigned
    wayGroupPages() const
    {
        // 68 payload bits per way (52-bit FAM addr + 16-bit ACM in the
        // I-FAM layout) divided by the ACM width (§III-D, §V-D2).
        return 68 / acmBits;
    }
};

/**
 * The per-node System Translation Unit.
 */
class Stu : public Component
{
  public:
    /** Mapping-response callback to the node's FAM translator. */
    using MappingFn =
        std::function<void(std::uint64_t npa_page, std::uint64_t fam_page)>;

    Stu(Simulation& sim, const std::string& name, const StuParams& params,
        NodeId node, FamLayout& layout, AcmStore& acm,
        MemoryBroker& broker, FabricLink& fabric, FamMedia& media);

    /**
     * Accept a packet from the node side. The node->STU hop latency is
     * applied internally. In I-FAM mode packets carry only an NPA; in
     * DeACT mode verified packets carry a FAM address.
     */
    void handleFromNode(PktPtr pkt);

    /** Register the DeACT mapping-response listener. */
    void setMappingListener(MappingFn fn) { mappingListener_ = std::move(fn); }

    /** Shoot down all cached state for @p node (job migration). */
    void invalidateNode(NodeId node);

    [[nodiscard]] const StuParams& params() const { return params_; }

    /** Physical node this STU serves (also its psim trace lane). */
    [[nodiscard]] NodeId node() const { return node_; }

    /** Translation hit rate at the STU (I-FAM; Fig. 10). */
    [[nodiscard]] double translationHitRate() const;
    /** ACM hit rate (Fig. 9). */
    [[nodiscard]] double acmHitRate() const;

  private:
    /** I-FAM combined entry. */
    struct IFamEntry {
        std::uint64_t famPage = 0;
    };

    // -- entry points after the node link ------------------------------
    void receive(PktPtr pkt);
    void handleIFam(PktPtr pkt);
    void handleDeactVerified(PktPtr pkt);
    void handleDeactUnverified(PktPtr pkt);

    // -- FAM page-table walking ----------------------------------------
    /** Receives the walked FAM page. */
    using WalkDone = InlineFunction<void(std::uint64_t fam_page), 16>;

    /**
     * One FAM page-table walk in flight. Its requests wait here; the
     * first one started the walk and is the origin of its FAM reads.
     */
    struct Walk {
        PktWaiters waiters;
        HierarchicalPageTable::StepList steps;
        WalkDone done;
    };

    Walk& walkOf(std::uint64_t npa_page);
    void startWalk(std::uint64_t npa_page, WalkDone done);
    void walkStep(std::uint64_t npa_page, std::size_t index);
    void finishWalk(std::uint64_t npa_page,
                    std::optional<HierarchicalPageTable::Leaf> leaf);
    void walked(std::uint64_t npa_page, std::uint64_t fam_page);
    /** Retire the walk of @p npa_page; @return its waiting requests. */
    PktWaiters takeWalkWaiters(std::uint64_t npa_page);

    // -- access control --------------------------------------------------
    /** Check the ACM (cached or fetched) and then grant/deny + forward. */
    void checkAccess(PktPtr pkt);
    void verifyAndForward(PktPtr pkt);
    void checkBitmap(PktPtr pkt);
    void finishVerify(PktPtr pkt, bool allowed);

    // -- FAM forwarding ---------------------------------------------------
    /** Continuation of one STU-issued FAM read (walk step, ACM, bitmap). */
    using FamDone = InlineFunction<void(), 40>;

    void forwardToFam(PktPtr pkt);
    void sendFamAccess(const Packet& origin, FamAddr addr, MemOp op,
                       PacketKind kind, FamDone done);
    void sendToMedia(PktPtr pkt);
    void deny(PktPtr pkt);
    void respondToNode(PktPtr pkt);

    StuParams params_;
    NodeId node_;
    FamLayout& layout_;
    AcmStore& acm_;
    MemoryBroker& broker_;
    FabricLink& fabric_;
    FamMedia& media_;
    MappingFn mappingListener_;

    /** I-FAM: combined translation+ACM cache keyed by NPA page. */
    std::unique_ptr<SetAssocCache<IFamEntry>> ifamCache_;
    /**
     * DeACT ACM cache (null on I-FAM, whose ACM rides in ifamCache_):
     * DeACT-W caches groups of wayGroupPages() contiguous pages, one
     * per way; DeACT-N caches single pages in pairsPerWay sub-ways.
     */
    std::unique_ptr<SetAssocCache<std::uint8_t>> acmCache_;
    /** FAM page / this = acmCache_ key: wayGroupPages() or 1. */
    std::uint64_t acmKeyDivisor_ = 1;
    /** Shared-bitmap presence cache. */
    SetAssocCache<std::uint8_t> bitmapCache_;
    /** PTW cache for the FAM page table. */
    PtwCache famPtwCache_;

    /** Outstanding walks merged per NPA page. */
    U64FlatMap<Walk> walkMshrs_;

    /** I-FAM outstanding-mapping-list occupancy + stall queue. */
    unsigned outstanding_ = 0;
    std::deque<PktPtr> stallQueue_;

    Counter& tlbLookups_;
    Counter& tlbHits_;
    Counter& acmLookups_;
    Counter& acmHits_;
    Counter& walks_;
    Counter& walkSteps_;
    Counter& acmFetches_;
    Counter& bitmapFetches_;
    Counter& brokerFaults_;
    Counter& verifications_;
    Counter& denials_;
    Counter& forwarded_;
    // Per-job attribution of the shared ACM-cache contention and the
    // access-control outcomes; null when single-tenant.
    JobStatTable* jobAcmLookups_ = nullptr;
    JobStatTable* jobAcmHits_ = nullptr;
    JobStatTable* jobDenials_ = nullptr;
    // Latency-breakdown histograms (SystemConfig::observability); null
    // when the observability layer is off so the hot path pays one
    // pointer test per sample site.
    Histogram* obsQueueWait_ = nullptr;
    Histogram* obsTranslation_ = nullptr;
};

} // namespace famsim

#endif // FAMSIM_STU_STU_HH
