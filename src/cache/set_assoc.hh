/**
 * @file
 * Generic set-associative tag store with pluggable replacement.
 *
 * Used by the data caches, the TLBs, the PTW caches, the STU cache
 * organizations and the in-DRAM FAM translation cache — everything in
 * the paper that behaves like "a set-associative array of (tag, value)".
 *
 * Layout: structure-of-arrays. Tags live in one contiguous per-set
 * array probed with a branchless compare-into-bitmask loop, validity is
 * one bitmask word per set, and replacement metadata is split out per
 * policy (LRU timestamps only exist for LRU caches, Random keeps
 * none). Replacement decisions and the RNG draw order are identical to
 * the original array-of-structs store —
 * see DESIGN.md "SoA tag store" for the equivalence argument that keeps
 * the golden files stable.
 */

#ifndef FAMSIM_CACHE_SET_ASSOC_HH
#define FAMSIM_CACHE_SET_ASSOC_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace famsim {

/** Replacement policy selection for SetAssocCache. */
enum class ReplPolicy : std::uint8_t {
    Lru,   //!< Least recently used (exact, timestamp based).
    Random //!< Uniform random victim (the paper's translation cache).
};

/** @return printable name of a replacement policy. */
[[nodiscard]] constexpr const char*
toString(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::Lru: return "LRU";
      case ReplPolicy::Random: return "Random";
    }
    return "?";
}

/**
 * Set-associative cache of (key -> V).
 *
 * Keys are full 64-bit identifiers (block numbers, page numbers...);
 * the set index is key % sets and the stored tag is key / sets.
 */
template <typename V>
class SetAssocCache
{
  public:
    /** Result of an insertion that displaced a valid entry. */
    struct Evicted {
        std::uint64_t key;
        V value;
    };

    SetAssocCache(std::size_t sets, std::size_t ways,
                  ReplPolicy policy = ReplPolicy::Lru,
                  std::uint64_t seed = 1)
        : sets_(sets),
          ways_(ways),
          policy_(policy),
          setsPow2_(sets > 0 && (sets & (sets - 1)) == 0),
          setShift_(setsPow2_
                        ? static_cast<unsigned>(std::countr_zero(sets))
                        : 0),
          maskWords_(ways ? (ways + 63) / 64 : 1),
          lastWordMask_(ways % 64 ? (std::uint64_t{1} << (ways % 64)) - 1
                                  : ~std::uint64_t{0}),
          sentinelTags_(sets >= 2),
          tags_(sets * ways, kInvalidTag),
          values_(sets * ways),
          valid_(sets * maskWords_, 0),
          lastUse_(policy == ReplPolicy::Lru ? sets * ways : 0, 0),
          rng_(seed, 0x5e77)
    {
        FAMSIM_ASSERT(sets_ > 0 && ways_ > 0,
                      "cache must have >= 1 set and way");
    }

    /** Look up @p key, updating recency on hit. @return value or null. */
    V*
    lookup(std::uint64_t key)
    {
        std::size_t set = setIndex(key);
        // Overlap the payload (and LRU stamp) line fills with the tag
        // probe — they live in separate arrays in the SoA layout.
        __builtin_prefetch(&values_[set * ways_]);
        if (policy_ == ReplPolicy::Lru)
            __builtin_prefetch(&lastUse_[set * ways_], 1);
        std::size_t way = findWay(set, tagOf(key));
        if (way == kMiss)
            return nullptr;
        touch(set, way);
        return &values_[set * ways_ + way];
    }

    /** Look up without updating replacement state. */
    const V*
    probe(std::uint64_t key) const
    {
        std::size_t set = setIndex(key);
        std::size_t way = findWay(set, tagOf(key));
        return way == kMiss ? nullptr : &values_[set * ways_ + way];
    }

    /**
     * Insert (or overwrite) @p key. @return the displaced valid entry,
     * if the victim way held one and its key differs from @p key.
     */
    std::optional<Evicted>
    insert(std::uint64_t key, V value)
    {
        std::size_t set = setIndex(key);
        std::uint64_t tag = tagOf(key);
        std::size_t base = set * ways_;
        std::size_t way = findWay(set, tag);
        if (way != kMiss) {
            values_[base + way] = std::move(value);
            touch(set, way);
            return std::nullopt;
        }
        // The first invalid way (in way order) is filled before any
        // replacement decision — same priority as the AoS store.
        way = kMiss;
        for (std::size_t c = 0; c < maskWords_ && way == kMiss; ++c) {
            std::uint64_t free =
                ~valid_[set * maskWords_ + c] & wordMask(c);
            if (free)
                way = c * 64 +
                      static_cast<std::size_t>(std::countr_zero(free));
        }
        bool had_free = way != kMiss;
        if (!had_free)
            way = pickVictim(set);
        std::optional<Evicted> evicted;
        if (!had_free)
            evicted = Evicted{tags_[base + way] * sets_ + set,
                              std::move(values_[base + way])};
        valid_[set * maskWords_ + way / 64] |= std::uint64_t{1}
                                               << (way % 64);
        tags_[base + way] = tag;
        values_[base + way] = std::move(value);
        touch(set, way);
        return evicted;
    }

    /** Invalidate @p key if present. @return true if it was present. */
    bool
    invalidate(std::uint64_t key)
    {
        std::size_t set = setIndex(key);
        std::size_t way = findWay(set, tagOf(key));
        if (way == kMiss)
            return false;
        invalidateWay(set, way);
        return true;
    }

    /** Invalidate every entry. */
    void
    invalidateAll()
    {
        for (auto& word : valid_)
            word = 0;
        for (auto& tag : tags_)
            tag = kInvalidTag;
        for (auto& stamp : lastUse_)
            stamp = 0;
    }

    /** Invalidate entries whose value matches @p pred. @return count. */
    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t count = 0;
        for (std::size_t set = 0; set < sets_; ++set) {
            for (std::size_t w = 0; w < ways_; ++w) {
                if ((valid_[set * maskWords_ + w / 64] >> (w % 64)) & 1 &&
                    pred(values_[set * ways_ + w])) {
                    invalidateWay(set, w);
                    ++count;
                }
            }
        }
        return count;
    }

    /** Number of valid entries (bitmask popcount; for tests/stats). */
    [[nodiscard]] std::size_t
    countValid() const
    {
        std::size_t n = 0;
        for (std::uint64_t bits : valid_)
            n += static_cast<std::size_t>(std::popcount(bits));
        return n;
    }

    [[nodiscard]] std::size_t sets() const { return sets_; }
    [[nodiscard]] std::size_t ways() const { return ways_; }
    [[nodiscard]] std::size_t capacity() const { return sets_ * ways_; }
    [[nodiscard]] ReplPolicy policy() const { return policy_; }

  private:
    static constexpr std::size_t kMiss = ~std::size_t{0};
    /** Tag stored in invalid ways (unreachable when sets >= 2). */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    [[nodiscard]] std::size_t
    setIndex(std::uint64_t key) const
    {
        if (setsPow2_)
            return static_cast<std::size_t>(key & (sets_ - 1));
        return static_cast<std::size_t>(key % sets_);
    }

    [[nodiscard]] std::uint64_t
    tagOf(std::uint64_t key) const
    {
        return setsPow2_ ? key >> setShift_ : key / sets_;
    }

    /** Mask of in-range way bits for mask word @p word. */
    [[nodiscard]] std::uint64_t
    wordMask(std::size_t word) const
    {
        return word + 1 == maskWords_ ? lastWordMask_ : ~std::uint64_t{0};
    }

    /**
     * Probe one set for @p tag. The compare loop accumulates a match
     * bitmask over all ways without branching, so the compiler can
     * unroll/vectorize it; at most one bit survives. With >= 2 sets
     * the tag of a valid line is key / sets < kInvalidTag, so invalid
     * ways hold the sentinel and the probe needs no separate validity
     * word (one less cache line per lookup). A single-set cache could
     * legitimately store tag kInvalidTag (tag == key), so it keeps
     * masking with the valid word instead. Masks are one or more
     * 64-bit words per set (maskWords_ is 1 for every configuration
     * with <= 64 ways; DeACT-N's pairsPerWay expansion can exceed it).
     */
    [[nodiscard]] std::size_t
    findWay(std::size_t set, std::uint64_t tag) const
    {
        const std::uint64_t* tags = tags_.data() + set * ways_;
        for (std::size_t c = 0; c < maskWords_; ++c) {
            std::size_t begin = c * 64;
            std::size_t end = std::min(ways_, begin + 64);
            std::uint64_t match = 0;
            for (std::size_t w = begin; w < end; ++w)
                match |= static_cast<std::uint64_t>(tags[w] == tag)
                         << (w - begin);
            if (!sentinelTags_)
                match &= valid_[set * maskWords_ + c];
            if (match)
                return begin + static_cast<std::size_t>(
                                   std::countr_zero(match));
        }
        return kMiss;
    }

    /** Drop a way and its replacement state. */
    void
    invalidateWay(std::size_t set, std::size_t way)
    {
        std::uint64_t bit = std::uint64_t{1} << (way % 64);
        valid_[set * maskWords_ + way / 64] &= ~bit;
        tags_[set * ways_ + way] = kInvalidTag;
        if (policy_ == ReplPolicy::Lru)
            lastUse_[set * ways_ + way] = 0;
    }

    void
    touch(std::size_t set, std::size_t way)
    {
        switch (policy_) {
          case ReplPolicy::Lru:
            lastUse_[set * ways_ + way] = ++useClock_;
            break;
          case ReplPolicy::Random:
            break;
        }
    }

    [[nodiscard]] std::size_t
    pickVictim(std::size_t set)
    {
        switch (policy_) {
          case ReplPolicy::Random:
            return rng_.below(static_cast<std::uint32_t>(ways_));
          case ReplPolicy::Lru:
          default: {
            const std::uint64_t* stamps = lastUse_.data() + set * ways_;
            std::size_t victim = 0;
            for (std::size_t w = 1; w < ways_; ++w) {
                if (stamps[w] < stamps[victim])
                    victim = w;
            }
            return victim;
          }
        }
    }

    std::size_t sets_;
    std::size_t ways_;
    ReplPolicy policy_;
    bool setsPow2_;
    unsigned setShift_;
    /** 64-bit mask words per set (1 unless ways > 64). */
    std::size_t maskWords_;
    /** In-range way bits of the final mask word. */
    std::uint64_t lastWordMask_;
    /** Invalid ways hold kInvalidTag, so probes skip the valid word. */
    bool sentinelTags_;
    /** Per-line tag words, set-major ([set * ways + way]). */
    std::vector<std::uint64_t> tags_;
    /** Per-line payloads, same indexing as tags_. */
    std::vector<V> values_;
    /** One validity bitmask word per set (bit w = way w valid). */
    std::vector<std::uint64_t> valid_;
    /** LRU only: per-line recency stamps. */
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    Rng rng_;
};

} // namespace famsim

#endif // FAMSIM_CACHE_SET_ASSOC_HH
