/**
 * @file
 * Four-level hierarchical page table (x86-64 style: PGD/PUD/PMD/PTE).
 *
 * The table is *functionally* stored in host memory but every table page
 * is allocated at a concrete simulated address (via an allocator
 * callback), so a walk yields the exact sequence of simulated memory
 * addresses touched — those become real NodePtw/FamPtw packets and show
 * up in the FAM AT-request accounting exactly as in the paper.
 *
 * The same class implements both tables in the system:
 *  - the node page table (VA page -> NPA page), table pages in node
 *    memory (allocated by NodeOs, 20/80 local/FAM zone split);
 *  - the system-level FAM page table (NPA page -> FAM page), table pages
 *    in FAM (allocated by the MemoryBroker).
 */

#ifndef FAMSIM_VM_PAGE_TABLE_HH
#define FAMSIM_VM_PAGE_TABLE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace famsim {

/** Page permissions carried in PTEs and in the FAM ACM. */
struct Perms {
    bool r = true;
    bool w = true;
    bool x = false;

    /** Encode to the paper's 2-bit permission field (§III-A). */
    [[nodiscard]] std::uint8_t
    encode2b() const
    {
        if (x) return 3;      // read+write+execute
        if (w) return 2;      // read+write
        if (r) return 1;      // read only
        return 0;             // no access
    }

    /** Decode from the 2-bit permission field. */
    static Perms
    decode2b(std::uint8_t bits)
    {
        switch (bits & 3) {
          case 0: return Perms{false, false, false};
          case 1: return Perms{true, false, false};
          case 2: return Perms{true, true, false};
          default: return Perms{true, true, true};
        }
    }

    /** @return true if an access of the given type is permitted. */
    [[nodiscard]] bool
    allows(bool is_write, bool is_exec = false) const
    {
        if (is_exec)
            return x;
        return is_write ? w : r;
    }

    bool operator==(const Perms&) const = default;
};

/**
 * A radix page table with four 9-bit levels over a 36-bit page number
 * (48-bit addresses, 4 KB pages).
 */
class HierarchicalPageTable
{
  public:
    /** Levels are numbered 0 (PGD, root) through 3 (PTE, leaf). */
    static constexpr unsigned kLevels = 4;
    /** Index bits per level. */
    static constexpr unsigned kIndexBits = 9;
    /** Entries per table page. */
    static constexpr unsigned kEntries = 1u << kIndexBits;
    /** Bytes per entry. */
    static constexpr unsigned kEntryBytes = 8;

    /** Allocator for table pages; returns the page's simulated address. */
    using AllocFn = std::function<std::uint64_t()>;

    /** Final translation: value page number plus permissions. */
    struct Leaf {
        std::uint64_t valuePage = 0;
        Perms perms{};
        bool operator==(const Leaf&) const = default;
    };

    /** One memory access performed during a walk. */
    struct WalkStep {
        std::uint64_t addr = 0;  //!< simulated address of the entry read
        unsigned level = 0;      //!< 0 = PGD .. 3 = PTE
    };

    /**
     * Fixed-capacity list of a walk's steps (at most one per level).
     * Replaces the per-walk std::vector so the hottest allocation in
     * the translation path is gone; walkers copy it by value through
     * their continuation chain for the same reason.
     */
    class StepList
    {
      public:
        void
        push_back(WalkStep step)
        {
            steps_[size_++] = step;
        }

        [[nodiscard]] std::size_t size() const { return size_; }
        [[nodiscard]] bool empty() const { return size_ == 0; }
        [[nodiscard]] const WalkStep&
        operator[](std::size_t i) const
        {
            return steps_[i];
        }
        [[nodiscard]] const WalkStep* begin() const
        {
            return steps_.data();
        }
        [[nodiscard]] const WalkStep* end() const
        {
            return steps_.data() + size_;
        }

      private:
        std::array<WalkStep, kLevels> steps_{};
        std::uint8_t size_ = 0;
    };

    /** Outcome of a functional walk. */
    struct WalkResult {
        /** Entry addresses touched, in order, until present levels end. */
        StepList steps;
        /** The translation, if the key is mapped. */
        std::optional<Leaf> leaf;
    };

    explicit HierarchicalPageTable(AllocFn alloc);

    /** Map @p key_page -> @p value_page, creating intermediate tables. */
    void map(std::uint64_t key_page, std::uint64_t value_page, Perms perms);

    /** Remove a mapping. @return true if it existed. */
    bool unmap(std::uint64_t key_page);

    /** Functional lookup without walk bookkeeping. */
    [[nodiscard]] std::optional<Leaf> lookup(std::uint64_t key_page) const;

    /** Walk, returning every entry address a hardware walker would read. */
    [[nodiscard]] WalkResult walk(std::uint64_t key_page) const;

    /**
     * Simulated address of the level-@p level entry covering
     * @p key_page, if the intermediate tables exist. Used by walkers
     * that skip levels via PTW caches.
     */
    [[nodiscard]] std::optional<std::uint64_t>
    entryAddr(std::uint64_t key_page, unsigned level) const;

    /** Number of table pages allocated so far. */
    [[nodiscard]] std::size_t tablePages() const { return tablePages_; }

    /** Number of leaf mappings currently present. */
    [[nodiscard]] std::size_t mappings() const { return mappings_; }

    /**
     * Host bytes held by the table: every table struct, every children
     * array and every leaf vector's capacity. Deterministic for a given
     * toolchain and mapping sequence (no allocator overhead counted).
     */
    [[nodiscard]] std::size_t hostBytes() const;

    /** Index into the level-@p level table for @p key_page. */
    [[nodiscard]] static unsigned
    levelIndex(std::uint64_t key_page, unsigned level)
    {
        return static_cast<unsigned>(
            (key_page >> (kIndexBits * (kLevels - 1 - level))) &
            (kEntries - 1));
    }

    /**
     * Prefix identifying the level-@p level entry (all index bits
     * consumed through that level). Used as PTW-cache keys.
     */
    [[nodiscard]] static std::uint64_t
    levelPrefix(std::uint64_t key_page, unsigned level)
    {
        return key_page >> (kIndexBits * (kLevels - 1 - level));
    }

    class BulkMapper;

  private:
    /**
     * One table page. Children are a direct-indexed array (allocated
     * lazily, on the first child), so a descend is three predictable
     * indexed loads with no hashing; an intermediate costs ~4 KB.
     * Leaves are packed: only present leaves are stored, in index
     * order, and an entry's slot is its rank — the number of present
     * bits below its index. A full leaf table still costs 8 KB, but a
     * lone leaf (the norm for the OS's scattered FAM-zone pages in the
     * broker's tables) costs one 16-byte element instead of 8 KB, so a
     * broker table holds ~1-1.5 MB per simulated node, not ~85 MB.
     */
    struct Table {
        std::uint64_t base = 0;
        /** Children for levels 0..2 (kEntries slots once allocated). */
        std::unique_ptr<std::unique_ptr<Table>[]> children;
        /** Present leaves for level 3, in index order. */
        std::vector<Leaf> leaves;
        /** Present bits for leaves. */
        std::array<std::uint64_t, kEntries / 64> leafPresent{};

        [[nodiscard]] bool
        leafAt(unsigned idx) const
        {
            return (leafPresent[idx >> 6] >> (idx & 63)) & 1;
        }

        /** Slot of @p idx in leaves: present leaves below it. */
        [[nodiscard]] std::size_t
        rank(unsigned idx) const
        {
            unsigned word = idx >> 6;
            std::uint64_t below = (std::uint64_t{1} << (idx & 63)) - 1;
            auto r = static_cast<std::size_t>(
                std::popcount(leafPresent[word] & below));
            for (unsigned w = 0; w < word; ++w)
                r += static_cast<std::size_t>(std::popcount(leafPresent[w]));
            return r;
        }

        /** Install or overwrite leaf @p idx. @return true if new. */
        bool
        setLeaf(unsigned idx, Leaf leaf)
        {
            auto slot =
                leaves.begin() + static_cast<std::ptrdiff_t>(rank(idx));
            if (leafAt(idx)) {
                *slot = leaf;
                return false;
            }
            leaves.insert(slot, leaf);
            leafPresent[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            return true;
        }
    };

    /** The leaf (PTE) table covering @p key_page, creating the path. */
    Table* descend(std::uint64_t key_page);
    /** The leaf table covering @p key_page, or null; never creates. */
    [[nodiscard]] Table* findLeafTable(std::uint64_t key_page) const;

    AllocFn alloc_;
    std::unique_ptr<Table> root_;
    std::size_t tablePages_ = 0;
    std::size_t mappings_ = 0;
};

/**
 * Batched map-if-absent for the prefault paths (System::prefaultNode):
 * fuses the lookup + map pair into a single descend and caches the
 * leaf (PTE) table between calls, so a dense run of keys touches the
 * upper levels once per 512-page leaf range instead of twice per page.
 *
 * Side-effect order per *new* key is exactly the classic
 * `if (!lookup(k)) { v = alloc(); map(k, v); }` sequence the goldens
 * are pinned to: the absence check performs no allocation, the value
 * callback runs before any intermediate table page is allocated, and
 * the table-page allocator fires in the same descend order — so
 * allocation cursors, stat counters and famZonePages orders are
 * bit-identical to the unbatched path.
 */
class HierarchicalPageTable::BulkMapper
{
  public:
    explicit BulkMapper(HierarchicalPageTable& table) : table_(table) {}

    /**
     * Install key_page -> value_fn() if @p key_page is unmapped.
     * @p value_fn is invoked only when a mapping is installed.
     * @return true if a new mapping was installed.
     */
    template <typename ValueFn>
    bool
    mapIfAbsent(std::uint64_t key_page, Perms perms, ValueFn&& value_fn)
    {
        // The PTE table covering key_page is identified by its
        // level-(kLevels-2) prefix; reuse it while keys stay inside
        // the same 512-page range.
        std::uint64_t prefix = levelPrefix(key_page, kLevels - 2);
        if (!leafTable_ || prefix != cachedPrefix_) {
            leafTable_ = table_.findLeafTable(key_page);
            cachedPrefix_ = prefix;
        }
        unsigned idx = levelIndex(key_page, kLevels - 1);
        if (leafTable_ && leafTable_->leafAt(idx))
            return false;
        std::uint64_t value = value_fn();
        if (!leafTable_)
            leafTable_ = table_.descend(key_page);
        leafTable_->setLeaf(idx, Leaf{value, perms});
        ++table_.mappings_;
        return true;
    }

  private:
    HierarchicalPageTable& table_;
    Table* leafTable_ = nullptr;
    std::uint64_t cachedPrefix_ = ~std::uint64_t{0};
};

} // namespace famsim

#endif // FAMSIM_VM_PAGE_TABLE_HH
