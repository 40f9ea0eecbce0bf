#include "cache/cache_level.hh"

#include "sim/logging.hh"

namespace famsim {

CacheLevel::CacheLevel(Simulation& sim, const std::string& name,
                       const CacheParams& params, MemSink& next)
    : Component(sim, name),
      params_(params),
      next_(next),
      tags_(params.sizeBytes / kBlockSize / params.assoc, params.assoc,
            params.policy, sim.seed()),
      hits_(statCounter("hits", "cache hits")),
      misses_(statCounter("misses", "cache misses")),
      writebacks_(statCounter("writebacks", "dirty evictions")),
      mshrMerges_(statCounter("mshr_merges",
                              "misses merged into an outstanding fill"))
{
    FAMSIM_ASSERT(params.sizeBytes % (kBlockSize * params.assoc) == 0,
                  "cache size not divisible into sets: ", name);
}

void
CacheLevel::access(PktPtr pkt)
{
    sim_.events().scheduleAfter(params_.latency,
                                [this, pkt = std::move(pkt)]() mutable {
                                    lookup(std::move(pkt));
                                });
}

void
CacheLevel::lookup(PktPtr pkt)
{
    std::uint64_t block_key = pkt->npa.value() / kBlockSize;
    if (LineMeta* meta = tags_.lookup(block_key)) {
        ++hits_;
        if (pkt->isWrite())
            meta->dirty = true;
        complete(std::move(pkt));
        return;
    }

    if (pkt->writeback) {
        // Dirty evictions never allocate here; pass them down toward
        // memory (they may still terminate in a lower cache level).
        next_.access(std::move(pkt));
        return;
    }

    ++misses_;
    auto [it, first] = mshrs_.try_emplace(block_key);
    if (!first) {
        ++mshrMerges_;
        it->second.push_back(std::move(pkt));
        return;
    }

    // Issue the fill to the next level. The fill inherits the kind and
    // origin of the packet that triggered it, which waits in the MSHR.
    PktPtr fill = makePacket(pkt->node, pkt->core, MemOp::Read, pkt->kind);
    fill->logicalNode = pkt->logicalNode;
    fill->job = pkt->job;
    fill->npa = NPAddr(pkt->npa.blockAddr().value());
    fill->vaddr = pkt->vaddr;
    fill->issued = sim_.curTick();
    fill->onDone = [this, block_key](Packet&) { handleFill(block_key); };
    it->second.push_back(std::move(pkt));
    next_.access(std::move(fill));
}

void
CacheLevel::handleFill(std::uint64_t block_key)
{
    auto it = mshrs_.find(block_key);
    FAMSIM_ASSERT(it != mshrs_.end(), "fill for unknown MSHR in ", name());
    PktWaiters waiters = std::move(it->second);
    mshrs_.erase(it);
    FAMSIM_ASSERT(!waiters.empty(), "MSHR with no waiters in ", name());

    LineMeta meta;
    meta.kind = waiters.front()->kind;
    waiters.forEach([&meta](const Packet& w) {
        if (w.isWrite())
            meta.dirty = true;
    });

    auto evicted = tags_.insert(block_key, meta);
    if (evicted && evicted->value.dirty) {
        ++writebacks_;
        const PktPtr& first = waiters.front();
        PktPtr wb = makePacket(first->node, first->core, MemOp::Write,
                               evicted->value.kind);
        wb->logicalNode = first->logicalNode;
        wb->job = first->job;
        wb->npa = NPAddr(evicted->key * kBlockSize);
        wb->writeback = true;
        wb->issued = sim_.curTick();
        wb->onDone = [](Packet&) {}; // fire and forget
        next_.access(std::move(wb));
    }

    waiters.drain([](PktPtr w) { complete(std::move(w)); });
}

void
CacheLevel::invalidateAll()
{
    tags_.invalidateAll();
}

double
CacheLevel::hitRate() const
{
    double total = static_cast<double>(hits_.value() + misses_.value());
    return total == 0.0 ? 0.0
                        : static_cast<double>(hits_.value()) / total;
}

} // namespace famsim
