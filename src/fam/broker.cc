#include "fam/broker.hh"

#include <numeric>

#include "sim/logging.hh"

namespace famsim {
namespace {

/** Greatest common divisor (for the scatter stride). */
std::uint64_t
gcd64(std::uint64_t a, std::uint64_t b)
{
    while (b != 0) {
        std::uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

} // namespace

MemoryBroker::MemoryBroker(Simulation& sim, const std::string& name,
                           const BrokerParams& params, FamLayout& layout,
                           AcmStore& acm, FamMedia* media)
    : Component(sim, name),
      params_(params),
      layout_(layout),
      acm_(acm),
      media_(media),
      faults_(statCounter("faults", "system-level page faults serviced")),
      pagesStat_(statCounter("pages_allocated", "FAM pages handed out")),
      acmWrites_(statCounter("acm_writes", "ACM entries written")),
      pteWrites_(statCounter("pte_writes", "FAM PTEs written")),
      migrations_(statCounter("migrations", "jobs migrated"))
{
    if (params_.jobs > 1) {
        jobFaults_ = &statJobTable(
            "job_faults", "system-level faults serviced per tenant job",
            params_.jobs);
    }
    std::uint64_t reserve = layout.sharedReservePages();
    std::uint64_t usable = layout.usablePages();
    FAMSIM_ASSERT(usable > reserve + 1,
                  "FAM too small for the shared reserve");
    allocatablePages_ = usable - reserve;
    nextSharedRegionBase_ = allocatablePages_;

    // A multiplicative stride coprime with the pool size visits every
    // page exactly once in a scattered order — a cheap stand-in for the
    // random interleaving produced by many tenants allocating at once.
    scatterStride_ = 999983; // prime
    while (gcd64(scatterStride_, allocatablePages_) != 1)
        ++scatterStride_;
}

void
MemoryBroker::registerNode(NodeId phys)
{
    if (logicalIds_.count(phys))
        return;
    logicalIds_[phys] = nextLogicalId_++;
    famTables_.emplace(
        phys, std::make_unique<HierarchicalPageTable>([this] {
            // FAM page-table pages themselves live in FAM usable space.
            std::uint64_t page = nextScatteredPage();
            return page * kPageSize;
        }));
}

NodeId
MemoryBroker::logicalIdOf(NodeId phys) const
{
    auto it = logicalIds_.find(phys);
    FAMSIM_ASSERT(it != logicalIds_.end(), "unregistered node ", phys);
    return it->second;
}

std::uint64_t
MemoryBroker::nextScatteredPage()
{
    FAMSIM_ASSERT(pagesAllocated_ < allocatablePages_,
                  "FAM pool exhausted");
    std::uint64_t idx = allocCursor_++;
    ++pagesAllocated_;
    if (!params_.scatterAllocation)
        return idx;
    // Bijective scatter: idx -> (idx * stride) mod pool.
    return (idx * scatterStride_) % allocatablePages_;
}

std::uint64_t
MemoryBroker::allocPage(NodeId logical_node, Perms perms)
{
    std::uint64_t page = nextScatteredPage();
    acm_.set(page, AcmEntry{logical_node, perms.encode2b()});
    ++pagesStat_;
    return page;
}

void
MemoryBroker::emitBrokerWrite(NodeId node, FamAddr block, Tick when)
{
    const unsigned module = media_->moduleOf(block.value());
    sim_.deliver(sim_.partitions().media(module), when, [this, node, block] {
        PktPtr pkt = makePacket(node, 0, MemOp::Write, PacketKind::Broker);
        pkt->fam = block;
        pkt->hasFam = true;
        pkt->issued = sim_.curTick();
        pkt->onDone = [](Packet&) {};
        media_->access(std::move(pkt));
    });
}

std::optional<FamAddr>
MemoryBroker::pteWriteBlock(NodeId node, std::uint64_t npa_page)
{
    auto addr = famTableOf(node).entryAddr(
        npa_page, HierarchicalPageTable::kLevels - 1);
    if (!addr)
        return std::nullopt;
    return FamAddr(*addr).blockAddr();
}

void
MemoryBroker::writeAcmTraffic(std::uint64_t fam_page, Tick when)
{
    ++acmWrites_;
    if (media_)
        emitBrokerWrite(0, layout_.acmBlockForPage(fam_page), when);
}

void
MemoryBroker::writePteTraffic(NodeId node, std::uint64_t npa_page,
                              Tick when)
{
    ++pteWrites_;
    if (!media_)
        return;
    if (auto block = pteWriteBlock(node, npa_page))
        emitBrokerWrite(node, *block, when);
}

void
MemoryBroker::handleUnmapped(NodeId phys_node, std::uint64_t npa_page,
                             std::function<void(std::uint64_t)> done,
                             JobId job)
{
    FAMSIM_ASSERT(done, "handleUnmapped needs a completion callback");
    const std::uint32_t origin = sim_.partitions().node(phys_node);
    FAMSIM_ASSERT(sim_.onPartition(origin), "system-level fault of node ",
                  phys_node, " raised off its partition");
    // Resolve the fault as a barrier op, so the pool allocator, the ACM
    // flat map and the node's FAM table mutate while no partition reads
    // them. The service latency is the node->broker lookahead floor, so
    // the due tick is conservative; the PTE/ACM writes then reach the
    // media partitions owning their target modules, and the completion
    // the faulting node, as ordinary events at the due tick.
    const Tick due = sim_.curTick() + params_.serviceLatency;
    sim_.atBarrier(due, [this, origin, phys_node, npa_page, due, job,
                         done = std::move(done)]() mutable {
        ++faults_;
        if (jobFaults_)
            jobFaults_->add(job);
        NodeId logical = logicalIdOf(phys_node);
        std::uint64_t fam_page = allocPage(logical, Perms{});
        famTableOf(phys_node).map(npa_page, fam_page, Perms{});
        writePteTraffic(phys_node, npa_page, due);
        writeAcmTraffic(fam_page, due);
        sim_.deliver(origin, due, [fam_page, done = std::move(done)] {
            done(fam_page);
        });
    });
}

HierarchicalPageTable&
MemoryBroker::famTableOf(NodeId phys_node)
{
    auto it = famTables_.find(phys_node);
    FAMSIM_ASSERT(it != famTables_.end(), "unregistered node ",
                  phys_node);
    return *it->second;
}

std::uint64_t
MemoryBroker::createSharedRegion(
    const std::vector<std::pair<NodeId, Perms>>& members)
{
    constexpr std::uint64_t pages_per_region =
        kLargePageSize / kPageSize;
    FAMSIM_ASSERT(nextSharedRegionBase_ + pages_per_region <=
                      layout_.usablePages(),
                  "no shared region space left");
    std::uint64_t base_page = nextSharedRegionBase_;
    nextSharedRegionBase_ += pages_per_region;
    std::uint64_t region = FamLayout::regionOf(base_page);
    sharedRegionCursor_[region] = base_page;
    for (const auto& [node, perms] : members)
        acm_.grantRegion(region, logicalIdOf(node), perms);
    return region;
}

std::uint64_t
MemoryBroker::mapSharedPage(std::uint64_t region, NodeId phys_node,
                            std::uint64_t npa_page)
{
    auto it = sharedRegionCursor_.find(region);
    FAMSIM_ASSERT(it != sharedRegionCursor_.end(),
                  "unknown shared region ", region);
    std::uint64_t fam_page = it->second++;
    acm_.markShared(fam_page, Perms{}.encode2b());
    writeAcmTraffic(fam_page, sim_.curTick());
    attachSharedPage(fam_page, phys_node, npa_page);
    return fam_page;
}

void
MemoryBroker::attachSharedPage(std::uint64_t fam_page, NodeId phys_node,
                               std::uint64_t npa_page)
{
    famTableOf(phys_node).map(npa_page, fam_page, Perms{});
    writePteTraffic(phys_node, npa_page, sim_.curTick());
}

void
MemoryBroker::addInvalidateListener(InvalidateFn fn)
{
    FAMSIM_ASSERT(fn, "null invalidate listener");
    invalidateListeners_.push_back(std::move(fn));
}

MemoryBroker::MigrationReport
MemoryBroker::migrateJob(NodeId from, NodeId to, bool use_logical_ids,
                         Tick emit_at)
{
    // The target may never have faulted (a freshly drained node is a
    // natural migration destination): give it a logical id and an
    // empty system-level table now, instead of letting the table swap
    // below default-construct a null entry that famTableOf would later
    // dereference.
    registerNode(to);
    ++migrations_;
    MigrationReport report;
    report.usedLogicalIds = use_logical_ids;

    NodeId from_logical = logicalIdOf(from);
    if (use_logical_ids) {
        // The logical id follows the job: ACM entries stay valid, only
        // the binding changes (§VI). The destination node inherits the
        // logical id; the source gets a fresh one.
        logicalIds_[to] = from_logical;
        logicalIds_[from] = nextLogicalId_++;
        report.pagesMoved = acm_.pagesOwnedBy(from_logical).size();
    } else {
        NodeId to_logical = logicalIdOf(to);
        auto pages = acm_.pagesOwnedBy(from_logical);
        report.pagesMoved = pages.size();
        report.acmWrites = acm_.reassignOwner(from_logical, to_logical);
        const Tick when = emit_at != 0 ? emit_at : sim_.curTick();
        for (std::uint64_t page : pages)
            writeAcmTraffic(page, when);
    }

    // Move the system-level NPA->FAM mappings with the job: the
    // destination node takes over the source's table (the job's NPA
    // layout moves wholesale, as when a job checkpoint/restores onto
    // the new node).
    report.mappingsMoved = famTableOf(from).mappings();
    std::swap(famTables_[from], famTables_[to]);

    for (const auto& fn : invalidateListeners_) {
        fn(from);
        fn(to);
    }
    return report;
}

} // namespace famsim
