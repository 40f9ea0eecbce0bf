/**
 * @file
 * TLBs and page-table-walker caches (the Samba MMU substrate).
 *
 * Table II: two TLB levels per core, 32 and 256 entries; 32-entry PTW
 * cache holding upper-level (PGD/PUD/PMD) page-table entries per
 * Bhargava et al. [8].
 */

#ifndef FAMSIM_VM_TLB_HH
#define FAMSIM_VM_TLB_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/set_assoc.hh"
#include "sim/simulation.hh"
#include "vm/page_table.hh"

namespace famsim {

/** A cached translation: VA page -> NPA page with permissions. */
struct TlbEntry {
    std::uint64_t valuePage = 0;
    Perms perms{};
};

/** One TLB level. */
class Tlb : public Component
{
  public:
    /**
     * @param entries total entries; @param ways associativity
     * (ways == entries gives a fully-associative TLB).
     */
    Tlb(Simulation& sim, const std::string& name, std::size_t entries,
        std::size_t ways, Tick latency);

    /** Look up a VA page number; updates recency and hit/miss stats. */
    std::optional<TlbEntry> lookup(std::uint64_t va_page);

    void insert(std::uint64_t va_page, const TlbEntry& entry);
    bool invalidate(std::uint64_t va_page);
    void invalidateAll();

    [[nodiscard]] Tick latency() const { return latency_; }
    [[nodiscard]] std::size_t entries() const { return cache_.capacity(); }
    [[nodiscard]] double hitRate() const;

  private:
    SetAssocCache<TlbEntry> cache_;
    Tick latency_;
    Counter& hits_;
    Counter& misses_;
};

/**
 * Two-level TLB: a small fast L1 backed by a larger L2. L1 misses that
 * hit in L2 are promoted into L1.
 */
class TwoLevelTlb : public Component
{
  public:
    struct Params {
        std::size_t l1Entries = 32;
        std::size_t l2Entries = 256;
        std::size_t l2Ways = 8;
        Tick l1Latency = 500;              // one 2 GHz cycle
        Tick l2Latency = 3500;             // seven cycles
    };

    TwoLevelTlb(Simulation& sim, const std::string& name,
                const Params& params);

    /** Result of a lookup: the entry (if any) plus the latency paid. */
    struct Result {
        std::optional<TlbEntry> entry;
        Tick latency = 0;
    };

    Result lookup(std::uint64_t va_page);
    /** Fill both levels after a walk. */
    void insert(std::uint64_t va_page, const TlbEntry& entry);
    void invalidate(std::uint64_t va_page);
    void invalidateAll();

    [[nodiscard]] Tlb& l1() { return l1_; }
    [[nodiscard]] Tlb& l2() { return l2_; }

  private:
    Tlb l1_;
    Tlb l2_;
};

/**
 * Page-table-walker cache: holds upper-level page-table entries so a
 * walk can skip directly to the deepest cached level [8].
 *
 * Keys combine the level and the level prefix of the key page; values
 * are the simulated base address of the next-level table.
 */
class PtwCache : public Component
{
  public:
    PtwCache(Simulation& sim, const std::string& name,
             std::size_t entries, std::size_t ways = 4);

    /**
     * Find the deepest level (0..2) whose entry for @p key_page is
     * cached. @return that level, or -1 if none is cached.
     */
    int deepestCachedLevel(std::uint64_t key_page);

    /** Record the level-@p level entry for @p key_page. */
    void insert(std::uint64_t key_page, unsigned level);

    /**
     * Index of the first of @p steps (a walk of @p key_page) a walker
     * must read: just past the deepest cached level, but never past
     * the last step — when the cache covers every level that exists,
     * the walk still reads the deepest entry. One cache lookup.
     */
    std::size_t firstStep(std::uint64_t key_page,
                          const HierarchicalPageTable::StepList& steps);

    /** Record the upper (non-PTE) levels of a finished walk. */
    void recordWalk(std::uint64_t key_page,
                    const HierarchicalPageTable::StepList& steps);

    void invalidateAll();

    [[nodiscard]] double hitRate() const;

  private:
    static std::uint64_t
    keyFor(std::uint64_t key_page, unsigned level)
    {
        return (static_cast<std::uint64_t>(level) << 56) ^
               HierarchicalPageTable::levelPrefix(key_page, level);
    }

    SetAssocCache<std::uint8_t> cache_;
    Counter& hits_;
    Counter& misses_;
};

} // namespace famsim

#endif // FAMSIM_VM_TLB_HH
