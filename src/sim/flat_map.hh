/**
 * @file
 * Open-addressing hash map for 64-bit keys on simulator hot paths.
 *
 * std::unordered_map costs two dependent cache misses per find (bucket
 * array, then node chase); the ACM store and the MSHR tables sit on
 * the per-access path, so those misses are measurable. U64FlatMap is
 * a flat linear-probing table — one likely cache line per probe —
 * with Fibonacci hashing, backward-shift deletion and load-factor-0.7
 * growth. The API is the subset those call sites use (operator[],
 * try_emplace, find, erase, range iteration); iteration order is slot
 * order, which is deterministic for a given sequence of operations.
 *
 * An erase moves later entries of the same probe run back into the
 * hole, so it invalidates every iterator and reference into the map,
 * not just the erased entry's.
 */

#ifndef FAMSIM_SIM_FLAT_MAP_HH
#define FAMSIM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace famsim {

template <typename V>
class U64FlatMap
{
  public:
    using value_type = std::pair<std::uint64_t, V>;

    class iterator
    {
      public:
        iterator() = default;
        iterator(U64FlatMap* map, std::size_t idx) : map_(map), idx_(idx)
        {
        }

        value_type& operator*() const { return map_->slots_[idx_]; }
        value_type* operator->() const { return &map_->slots_[idx_]; }

        iterator&
        operator++()
        {
            ++idx_;
            skipToFull();
            return *this;
        }

        bool
        operator==(const iterator& other) const
        {
            return idx_ == other.idx_;
        }

      private:
        friend class U64FlatMap;
        void
        skipToFull()
        {
            while (idx_ < map_->state_.size() &&
                   map_->state_[idx_] != kFull)
                ++idx_;
        }

        U64FlatMap* map_ = nullptr;
        std::size_t idx_ = 0;
    };

    class const_iterator
    {
      public:
        const_iterator() = default;
        const_iterator(const U64FlatMap* map, std::size_t idx)
            : map_(map), idx_(idx)
        {
        }

        const value_type& operator*() const { return map_->slots_[idx_]; }
        const value_type* operator->() const
        {
            return &map_->slots_[idx_];
        }

        const_iterator&
        operator++()
        {
            ++idx_;
            skipToFull();
            return *this;
        }

        bool
        operator==(const const_iterator& other) const
        {
            return idx_ == other.idx_;
        }

      private:
        friend class U64FlatMap;
        void
        skipToFull()
        {
            while (idx_ < map_->state_.size() &&
                   map_->state_[idx_] != kFull)
                ++idx_;
        }

        const U64FlatMap* map_ = nullptr;
        std::size_t idx_ = 0;
    };

    U64FlatMap() { rehash(kMinCapacity); }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /** Slot-table capacity (bounded-growth checks in tests). */
    [[nodiscard]] std::size_t capacity() const { return state_.size(); }

    iterator
    begin()
    {
        iterator it(this, 0);
        it.skipToFull();
        return it;
    }

    iterator end() { return iterator(this, state_.size()); }

    const_iterator
    begin() const
    {
        const_iterator it(this, 0);
        it.skipToFull();
        return it;
    }

    const_iterator end() const
    {
        return const_iterator(this, state_.size());
    }

    iterator
    find(std::uint64_t key)
    {
        std::size_t idx = findIndex(key);
        return idx == state_.size() ? end() : iterator(this, idx);
    }

    const_iterator
    find(std::uint64_t key) const
    {
        std::size_t idx = findIndex(key);
        return idx == state_.size() ? end() : const_iterator(this, idx);
    }

    /** Insert a default-constructed value if @p key is absent. */
    std::pair<iterator, bool>
    try_emplace(std::uint64_t key)
    {
        // Grow only when live entries need the room: an erase leaves
        // no tombstone, so the MSHR churn (one insert + one erase per
        // miss) never fills the table.
        if ((size_ + 1) * 10 > state_.size() * 7)
            rehash(state_.size() * 2);
        std::size_t idx = indexOf(key);
        while (state_[idx] == kFull) {
            if (slots_[idx].first == key)
                return {iterator(this, idx), false};
            idx = (idx + 1) & mask_;
        }
        state_[idx] = kFull;
        slots_[idx].first = key;
        slots_[idx].second = V{};
        ++size_;
        return {iterator(this, idx), true};
    }

    V&
    operator[](std::uint64_t key)
    {
        return try_emplace(key).first->second;
    }

    /**
     * Backward-shift deletion (Knuth, TAOCP 6.4, Algorithm R): walk the
     * probe run after the hole and move back every entry whose home
     * slot does not lie cyclically in (hole, entry], so each remaining
     * key stays reachable from its home without tombstones.
     */
    void
    erase(iterator it)
    {
        std::size_t hole = it.idx_;
        for (std::size_t idx = (hole + 1) & mask_; state_[idx] == kFull;
             idx = (idx + 1) & mask_) {
            std::size_t home = indexOf(slots_[idx].first);
            bool stays = hole <= idx ? hole < home && home <= idx
                                     : hole < home || home <= idx;
            if (stays)
                continue;
            slots_[hole] = std::move(slots_[idx]);
            hole = idx;
        }
        state_[hole] = kEmpty;
        slots_[hole].second = V{}; // release the value's resources
        --size_;
    }

    /** @return 1 if @p key was present and erased, else 0. */
    std::size_t
    erase(std::uint64_t key)
    {
        iterator it = find(key);
        if (it == end())
            return 0;
        erase(it);
        return 1;
    }

  private:
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::size_t kMinCapacity = 16;

    /** Slot of @p key, or state_.size() when absent. */
    [[nodiscard]] std::size_t
    findIndex(std::uint64_t key) const
    {
        std::size_t idx = indexOf(key);
        for (; state_[idx] == kFull; idx = (idx + 1) & mask_) {
            if (slots_[idx].first == key)
                return idx;
        }
        return state_.size();
    }

    [[nodiscard]] std::size_t
    indexOf(std::uint64_t key) const
    {
        // Fibonacci hashing; take the top bits, which mix best.
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> shift_) &
               mask_;
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<value_type> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_state = std::move(state_);
        slots_ = std::vector<value_type>(capacity);
        state_.assign(capacity, kEmpty);
        mask_ = capacity - 1;
        shift_ = 1;
        while ((std::size_t{1} << (64 - shift_)) > capacity)
            ++shift_;
        size_ = 0;
        for (std::size_t i = 0; i < old_state.size(); ++i) {
            if (old_state[i] != kFull)
                continue;
            auto [it, inserted] = try_emplace(old_slots[i].first);
            it->second = std::move(old_slots[i].second);
        }
    }

    std::vector<value_type> slots_;
    std::vector<std::uint8_t> state_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace famsim

#endif // FAMSIM_SIM_FLAT_MAP_HH
