#include "vm/tlb.hh"

namespace famsim {

Tlb::Tlb(Simulation& sim, const std::string& name, std::size_t entries,
         std::size_t ways, Tick latency)
    : Component(sim, name),
      cache_(entries / ways, ways, ReplPolicy::Lru, sim.seed()),
      latency_(latency),
      hits_(statCounter("hits", "TLB hits")),
      misses_(statCounter("misses", "TLB misses"))
{
}

std::optional<TlbEntry>
Tlb::lookup(std::uint64_t va_page)
{
    if (TlbEntry* entry = cache_.lookup(va_page)) {
        ++hits_;
        return *entry;
    }
    ++misses_;
    return std::nullopt;
}

void
Tlb::insert(std::uint64_t va_page, const TlbEntry& entry)
{
    cache_.insert(va_page, entry);
}

bool
Tlb::invalidate(std::uint64_t va_page)
{
    return cache_.invalidate(va_page);
}

void
Tlb::invalidateAll()
{
    cache_.invalidateAll();
}

double
Tlb::hitRate() const
{
    double total = static_cast<double>(hits_.value() + misses_.value());
    return total == 0.0 ? 0.0
                        : static_cast<double>(hits_.value()) / total;
}

TwoLevelTlb::TwoLevelTlb(Simulation& sim, const std::string& name,
                         const Params& params)
    : Component(sim, name),
      l1_(sim, name + ".l1", params.l1Entries, params.l1Entries,
          params.l1Latency),
      l2_(sim, name + ".l2", params.l2Entries, params.l2Ways,
          params.l2Latency)
{
}

TwoLevelTlb::Result
TwoLevelTlb::lookup(std::uint64_t va_page)
{
    Result result;
    result.latency = l1_.latency();
    if (auto entry = l1_.lookup(va_page)) {
        result.entry = entry;
        return result;
    }
    result.latency += l2_.latency();
    if (auto entry = l2_.lookup(va_page)) {
        l1_.insert(va_page, *entry); // promote
        result.entry = entry;
        return result;
    }
    return result;
}

void
TwoLevelTlb::insert(std::uint64_t va_page, const TlbEntry& entry)
{
    l1_.insert(va_page, entry);
    l2_.insert(va_page, entry);
}

void
TwoLevelTlb::invalidate(std::uint64_t va_page)
{
    l1_.invalidate(va_page);
    l2_.invalidate(va_page);
}

void
TwoLevelTlb::invalidateAll()
{
    l1_.invalidateAll();
    l2_.invalidateAll();
}

PtwCache::PtwCache(Simulation& sim, const std::string& name,
                   std::size_t entries, std::size_t ways)
    : Component(sim, name),
      cache_(entries / ways, ways, ReplPolicy::Lru, sim.seed()),
      hits_(statCounter("hits", "PTW cache hits")),
      misses_(statCounter("misses", "PTW cache misses"))
{
}

int
PtwCache::deepestCachedLevel(std::uint64_t key_page)
{
    // Upper levels are 0..2 (the PTE level itself is cached by TLBs).
    for (int level = 2; level >= 0; --level) {
        if (cache_.lookup(keyFor(key_page, static_cast<unsigned>(level)))) {
            ++hits_;
            return level;
        }
    }
    ++misses_;
    return -1;
}

void
PtwCache::insert(std::uint64_t key_page, unsigned level)
{
    cache_.insert(keyFor(key_page, level), std::uint8_t{1});
}

std::size_t
PtwCache::firstStep(std::uint64_t key_page,
                    const HierarchicalPageTable::StepList& steps)
{
    const auto start =
        static_cast<std::size_t>(deepestCachedLevel(key_page) + 1);
    if (start < steps.size())
        return start;
    return steps.empty() ? 0 : steps.size() - 1;
}

void
PtwCache::recordWalk(std::uint64_t key_page,
                     const HierarchicalPageTable::StepList& steps)
{
    for (const auto& step : steps) {
        if (step.level < HierarchicalPageTable::kLevels - 1)
            insert(key_page, step.level);
    }
}

void
PtwCache::invalidateAll()
{
    cache_.invalidateAll();
}

double
PtwCache::hitRate() const
{
    double total = static_cast<double>(hits_.value() + misses_.value());
    return total == 0.0 ? 0.0
                        : static_cast<double>(hits_.value()) / total;
}

} // namespace famsim
