#include "arch/system.hh"

#include <algorithm>
#include <atomic>
#include <optional>

#include "psim/parallel_sim.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

namespace famsim {
namespace {

/** E-FAM path: straight over the fabric, no system-level checks. */
class DirectFamPath : public Component, public MemSink
{
  public:
    DirectFamPath(Simulation& sim, const std::string& name, NodeId node,
                  FabricLink& fabric, FamMedia& media, Tick node_link)
        : Component(sim, name),
          node_(node),
          fabric_(fabric),
          media_(media),
          nodeLink_(node_link),
          accesses_(statCounter("accesses", "direct FAM accesses"))
    {
    }

    void
    access(PktPtr pkt) override
    {
        FAMSIM_ASSERT(pkt->hasFam,
                      "E-FAM path requires a direct FAM address");
        ++accesses_;
        // E-FAM performs no system-level vetting (Table I: insecure).
        pkt->accessGranted = true;
        // The media's completion pops this hop and hands it the
        // handle, which the response carries back.
        pkt->pushHop([this](PktPtr p) {
            fabric_.sendResponse(node_, [this, p = std::move(p)]() mutable {
                sim_.events().scheduleAfter(
                    nodeLink_,
                    [p = std::move(p)]() mutable { complete(std::move(p)); });
            });
        });
        sim_.events().scheduleAfter(nodeLink_,
                                    [this, pkt = std::move(pkt)]() mutable {
            unsigned module = media_.moduleOf(pkt->fam.value());
            fabric_.sendRequest(module,
                                [this, pkt = std::move(pkt)]() mutable {
                                    media_.access(std::move(pkt));
                                });
        });
    }

  private:
    NodeId node_;
    FabricLink& fabric_;
    FamMedia& media_;
    Tick nodeLink_;
    Counter& accesses_;
};

/** I-FAM path: everything goes through the STU. */
class StuFamPath : public MemSink
{
  public:
    explicit StuFamPath(Stu& stu) : stu_(stu) {}

    void
    access(PktPtr pkt) override
    {
        stu_.handleFromNode(std::move(pkt));
    }

  private:
    Stu& stu_;
};

} // namespace

void
SystemConfig::finalize()
{
    switch (arch) {
      case ArchKind::EFam:
        break;
      case ArchKind::IFam:
        stu.org = StuOrg::IFam;
        break;
      case ArchKind::DeactW:
        stu.org = StuOrg::DeactW;
        break;
      case ArchKind::DeactN:
        stu.org = StuOrg::DeactN;
        break;
    }

    // Geometry the components would otherwise trip over mid-build
    // (division by zero, set-assoc and ACM-width assertions).
    if (nodes == 0)
        FAMSIM_FATAL("nodes must be positive");
    if (coresPerNode == 0)
        FAMSIM_FATAL("coresPerNode must be positive");
    if (stu.acmBits != 8 && stu.acmBits != 16 && stu.acmBits != 32)
        FAMSIM_FATAL("stu.acmBits must be 8, 16 or 32, not ", stu.acmBits);
    if (arch != ArchKind::EFam) {
        if (stu.entries == 0)
            FAMSIM_FATAL("stu.entries must be positive");
        if (stu.assoc == 0)
            FAMSIM_FATAL("stu.assoc must be positive");
        if (stu.entries % stu.assoc != 0)
            FAMSIM_FATAL("stu.entries (", stu.entries,
                         ") must divide by stu.assoc (", stu.assoc, ")");
    }
    if (arch == ArchKind::DeactN &&
        (stu.pairsPerWay < 1 || stu.pairsPerWay > 3))
        FAMSIM_FATAL("stu.pairsPerWay must be 1 to 3 on DeACT-N, not ",
                     stu.pairsPerWay);

    FAMSIM_ASSERT(tenancy.jobs >= 1 && tenancy.jobs <= kMaxJobs,
                  "tenancy.jobs must be in [1, ", kMaxJobs, "]");
    // Per-job attribution tables across the stack share one slot count.
    fam.jobs = tenancy.jobs;
    stu.jobs = tenancy.jobs;
    broker.jobs = tenancy.jobs;

    // FAM capacity and module count scale with the node count (§V-D4:
    // memory pools proportional to nodes).
    fam.modules = nodes;
    fam.capacityBytes = std::uint64_t{16} << 30;
    fam.capacityBytes *= nodes;

    // The translator cache lives in the reserved top of local DRAM.
    translator.dramCacheBase = os.localBytes - os.reservedLocalBytes;
    FAMSIM_ASSERT(translator.cacheBytes <= os.reservedLocalBytes,
                  "translation cache exceeds the reserved DRAM region");
    broker.sharedReserveBytes =
        std::min<std::uint64_t>(broker.sharedReserveBytes,
                                fam.capacityBytes / 8);

    if (fabric.latency == 0)
        FAMSIM_FATAL("fabric.latency must be positive");
    if (broker.serviceLatency == 0)
        FAMSIM_FATAL("broker.serviceLatency must be positive");
}

System::System(SystemConfig config) : config_(std::move(config)),
                                      sim_(config_.seed)
{
    config_.finalize();
    // Before any component constructs: the latency-breakdown
    // histograms register (or don't) in component constructors.
    sim_.setObservability(config_.observability);

    for (const MigrationEvent& ev : config_.migrations) {
        FAMSIM_ASSERT(ev.from < config_.nodes && ev.to < config_.nodes,
                      "migration references a node outside the system");
        FAMSIM_ASSERT(ev.from != ev.to, "migration from a node to itself");
        FAMSIM_ASSERT(config_.arch != ArchKind::EFam,
                      "E-FAM nodes hold direct FAM mappings; broker "
                      "migration cannot rebind them");
    }
    if (config_.tenancy.jobs > 1) {
        jobOps_ = &sim_.stats().jobTable(
            "jobs.mem_ops", "memory operations issued per tenant job",
            config_.tenancy.jobs);
    }

    // One partition per node, one per FAM media module, the broker
    // last: psim's queues, the ownership stamps and the trace lanes.
    sim_.setPartitions(PartitionLayout(config_.nodes, config_.fam.modules));
    layout_ = std::make_unique<FamLayout>(config_.fam.capacityBytes,
                                          config_.stu.acmBits,
                                          config_.broker.sharedReserveBytes);
    acm_ = std::make_unique<AcmStore>(config_.stu.acmBits);
    media_ = std::make_unique<FamMedia>(sim_, "fam", config_.fam);
    fabric_ = std::make_unique<FabricLink>(sim_, "fabric",
                                           config_.fabric);
    {
        // The broker's stats belong to the broker partition; in
        // parallel runs they are only bumped by barrier ops, which the
        // checker's Barrier phase permits. The fabric stays unstamped:
        // its counters are bumped from the coordinator's arbitration
        // sections in both kernels.
        check::WiringScope wire(sim_.partitions().broker());
        broker_ = std::make_unique<MemoryBroker>(sim_, "broker",
                                                 config_.broker, *layout_,
                                                 *acm_, media_.get());
    }

    for (unsigned n = 0; n < config_.nodes; ++n)
        broker_->registerNode(static_cast<NodeId>(n));
    for (unsigned n = 0; n < config_.nodes; ++n)
        buildNode(n);
    if (config_.prefault) {
        for (unsigned n = 0; n < config_.nodes; ++n)
            prefaultNode(n);
    }
}

void
System::buildNode(unsigned index)
{
    // Everything registered while building node N is owned by its
    // partition.
    check::WiringScope wire(sim_.partitions().node(index));
    NodeParts* node = nodes_.emplace_back(std::make_unique<NodeParts>()).get();
    auto nid = static_cast<NodeId>(index);
    std::string prefix = "node" + std::to_string(index);

    FamMode mode = config_.arch == ArchKind::EFam ? FamMode::Exposed
                                                  : FamMode::Indirect;
    node->os = std::make_unique<NodeOs>(sim_, prefix + ".os", config_.os,
                                        mode, nid, broker_.get());
    node->dram = std::make_unique<BankedMemory>(sim_, prefix + ".dram",
                                                config_.dram);

    // FAM path, by architecture.
    if (config_.arch == ArchKind::EFam) {
        node->famPath = std::make_unique<DirectFamPath>(
            sim_, prefix + ".fampath", nid, *fabric_, *media_,
            config_.stu.nodeLinkLatency);
    } else {
        node->stu = std::make_unique<Stu>(sim_, prefix + ".stu",
                                          config_.stu, nid, *layout_,
                                          *acm_, *broker_, *fabric_,
                                          *media_);
        broker_->addInvalidateListener([stu = node->stu.get()](NodeId n) {
            stu->invalidateNode(n);
        });
        if (config_.arch == ArchKind::IFam) {
            node->famPath = std::make_unique<StuFamPath>(*node->stu);
        } else {
            node->translator = std::make_unique<FamTranslator>(
                sim_, prefix + ".translator", config_.translator,
                *node->dram, *node->stu);
            // Migration shootdown must also clear the node-side
            // unverified translation cache (§VI).
            broker_->addInvalidateListener(
                [tr = node->translator.get(), nid](NodeId n) {
                    if (n == nid)
                        tr->invalidateAll();
                });
        }
    }

    MemSink& fam_sink =
        node->translator
            ? static_cast<MemSink&>(*node->translator)
            : static_cast<MemSink&>(*node->famPath);
    node->memCtrl = std::make_unique<MemController>(
        sim_, prefix + ".memctrl", *node->os, *node->dram, fam_sink);
    node->l3 = std::make_unique<CacheLevel>(sim_, prefix + ".l3",
                                            config_.l3, *node->memCtrl);

    NodeId logical = broker_->logicalIdOf(nid);
    for (unsigned c = 0; c < config_.coresPerNode; ++c) {
        NodeParts::CoreParts parts;
        std::string cname = prefix + ".core" + std::to_string(c);
        // The cores of a node behave like the threads of one
        // multithreaded application (Table III suites): they share the
        // footprint and hot pages but follow independent access
        // sequences.
        if (config_.workloadFactory)
            parts.workload = config_.workloadFactory(index, c);
        if (!parts.workload) {
            if (config_.tenancy.jobs > 1) {
                parts.workload = std::make_unique<MultiTenantWorkload>(
                    config_.tenancy, config_.profile, config_.seed,
                    index, c);
            } else {
                parts.workload = std::make_unique<StreamGen>(
                    config_.profile, kWorkloadVaBase, config_.seed,
                    index * 64 + c);
            }
        }
        parts.tlb = std::make_unique<TwoLevelTlb>(sim_, cname + ".tlb",
                                                  config_.tlb);
        parts.ptwCache = std::make_unique<PtwCache>(
            sim_, cname + ".ptwcache", config_.ptwCacheEntries);
        parts.l2 = std::make_unique<CacheLevel>(sim_, cname + ".l2",
                                                config_.l2, *node->l3);
        parts.l1 = std::make_unique<CacheLevel>(sim_, cname + ".l1",
                                                config_.l1, *parts.l2);
        parts.walker = std::make_unique<NodePtWalker>(
            sim_, cname + ".walker", node->os->pageTable(),
            *parts.ptwCache, *parts.l2, nid,
            static_cast<CoreId>(c));
        parts.core = std::make_unique<Core>(
            sim_, cname, config_.core, nid, logical,
            static_cast<CoreId>(c), *parts.workload, *parts.tlb,
            *parts.walker, *parts.l1, *node->os);
        parts.core->setJobOpsTable(jobOps_);
        node->cores.push_back(std::move(parts));
    }
}

void
System::prefaultNode(unsigned index)
{
    NodeParts& node = *nodes_[index];
    auto nid = static_cast<NodeId>(index);

    // Touch every VA page of every core's footprint so the run starts
    // from a steady state (the paper simulates post-initialization HPC
    // kernels; first-touch costs are not part of the evaluation). The
    // batched pass fuses the old lookup + map double radix descend into
    // one and caches the leaf table across each dense 512-page range —
    // the absence check doubles as the cross-core dedup (the cores
    // share one footprint), at a cached-bitmask probe per page.
    for (auto& core : node.cores)
        node.os->prefaultPages(core.workload->footprintPages());

    if (config_.arch == ArchKind::EFam)
        return; // direct mappings were installed by the patched OS

    // Establish the system-level NPA -> FAM mappings for every FAM-zone
    // page the node allocated (data and page-table pages alike), again
    // through the fused map-if-absent path.
    auto& fam_table = broker_->famTableOf(nid);
    NodeId logical = broker_->logicalIdOf(nid);
    HierarchicalPageTable::BulkMapper mapper(fam_table);
    for (std::uint64_t npa_page : node.os->famZonePages()) {
        mapper.mapIfAbsent(npa_page, Perms{}, [&] {
            return broker_->allocPage(logical, Perms{});
        });
    }
}

void
System::attachTrace(TraceSink* trace)
{
    if (trace) {
        FAMSIM_ASSERT(trace->lanes() == traceLanes(),
                      "trace sink has ", trace->lanes(),
                      " lanes; this system needs ", traceLanes());
        const PartitionLayout& layout = sim_.partitions();
        for (unsigned n = 0; n < layout.nodes(); ++n)
            trace->setLaneName(layout.node(n), "node" + std::to_string(n));
        for (unsigned m = 0; m < layout.mediaModules(); ++m)
            trace->setLaneName(layout.media(m), "media" + std::to_string(m));
        trace->setLaneName(layout.broker(), "broker");
    }
    sim_.setTrace(trace);
}

std::uint32_t
System::traceLanes() const
{
    // One lane per partition; the serial kernel emits on the same lane
    // ids, so one sink layout serves both.
    return sim_.partitions().count();
}

void
System::attachProfiler(Profiler* profiler)
{
    sim_.setProfiler(profiler);
}

void
System::run(unsigned threads)
{
    FAMSIM_ASSERT(sim_.serialEvents().empty(),
                  "serial queue not empty at run start");
    Profiler::Timer wall;
    // The kernel choice. Everything below runs unchanged on either:
    // components reach other partitions only through Simulation's seam
    // (send, deliver, atBarrier), whose psim halves this binds.
    std::optional<ParallelSim> psim;
    if (threads > 0) {
        if (config_.arch == ArchKind::EFam && !config_.prefault)
            FAMSIM_FATAL("parallel E-FAM runs require prefaulting: "
                         "runtime OS faults call the broker "
                         "synchronously across partitions");
        // The per-edge lookahead floors (both positive, see finalize):
        // node<->STU traffic stays inside a node partition; what
        // crosses is fabric request/response traffic (one way >=
        // fabric.latency, the node<->media edge) and system-level fault
        // service at the broker (>= serviceLatency, every edge touching
        // the broker).
        psim.emplace(sim_,
                     ParallelSim::Topology{config_.fabric.latency,
                                           config_.broker.serviceLatency},
                     threads);
    }

    // Warmup: when core 0 of node 0 crosses the warmup mark, reset all
    // statistics and open every core's measurement window, as a
    // barrier op: in place on the serial kernel, at a window boundary
    // (deterministic for any thread count) under psim.
    Core& lead = *nodes_[0]->cores[0].core;
    if (config_.warmupFraction > 0.0) {
        lead.addPhaseCallback(warmupInstructions(), [this] {
            sim_.atBarrier(sim_.curTick(), [this] {
                sim_.stats().resetAll();
                for (auto& node : nodes_) {
                    for (auto& core : node->cores)
                        core.core->markWindow();
                }
            });
        });
    }
    // Scheduled migrations mutate state read lock-free from every
    // partition (ACM map, FAM tables, STU caches), so they run as
    // barrier ops, mid-run, with every node's traffic in flight. The
    // one difference between the two kernels' schedules is their due
    // tick: the serial kernel migrates at the threshold itself; psim
    // one broker service latency later, the node->broker lookahead
    // floor, which lets the op schedule its ACM rewrite traffic at the
    // due tick.
    const Tick migration_delay = psim ? config_.broker.serviceLatency : 0;
    for (const MigrationEvent& ev : config_.migrations) {
        lead.addPhaseCallback(ev.atInstruction, [this, ev, migration_delay] {
            const Tick due = sim_.curTick() + migration_delay;
            sim_.atBarrier(due,
                           [this, ev, due] { executeMigration(ev, due); });
        });
    }

    std::atomic<unsigned> finished{0};
    for (unsigned n = 0; n < config_.nodes; ++n) {
        sim_.withPartition(sim_.partitions().node(n), [&] {
            for (auto& core : nodes_[n]->cores) {
                core.core->start([&finished] {
                    finished.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    sim_.run(); // drains every queue (and psim's inboxes and barrier ops)

    // Cadence telemetry belongs to one run; a serial run reports zero
    // windows.
    parallelWindows_ = psim ? psim->epoch() : 0;
    parallelPoolEpochs_ = psim ? psim->poolEpochs() : 0;
    psim.reset();
    const unsigned total = config_.nodes * config_.coresPerNode;
    const unsigned done = finished.load(std::memory_order_relaxed);
    if (done < total)
        FAMSIM_PANIC("event queues drained with ", total - done,
                     " cores still running (deadlock)");
    FAMSIM_ASSERT(sim_.serialEvents().empty(),
                  "event leaked onto the serial queue during a parallel "
                  "run");
    if (Profiler* prof = sim_.profiler()) {
        prof->setThreads(threads);
        prof->setWall(wall.seconds());
        prof->setWindows(parallelWindows_);
    }
}

void
System::executeMigration(const MigrationEvent& event, Tick emit_at)
{
    broker_->migrateJob(event.from, event.to, event.useLogicalIds,
                        emit_at);
    // Cores stamp their cached logical id into every packet they
    // issue; rebind each to its node's post-migration binding.
    for (unsigned n = 0; n < config_.nodes; ++n) {
        NodeId logical = broker_->logicalIdOf(static_cast<NodeId>(n));
        for (auto& core : nodes_[n]->cores)
            core.core->setLogicalNode(logical);
    }
}

std::uint64_t
System::warmupInstructions() const
{
    return static_cast<std::uint64_t>(
        config_.warmupFraction *
        static_cast<double>(config_.core.instructionLimit));
}

double
System::ipc() const
{
    double sum = 0.0;
    for (const auto& node : nodes_) {
        for (const auto& core : node->cores)
            sum += core.core->ipc();
    }
    return sum;
}

Tick
System::elapsedTicks() const
{
    Tick latest = 0;
    for (const auto& node : nodes_) {
        for (const auto& core : node->cores)
            latest = std::max(latest, core.core->localTime());
    }
    return latest;
}

double
System::famAtPercent() const
{
    double total = static_cast<double>(media_->totalRequests());
    if (total == 0.0)
        return 0.0;
    return 100.0 * static_cast<double>(media_->atRequests()) / total;
}

double
System::translationHitRate() const
{
    const NodeParts& node = *nodes_[0];
    if (node.translator)
        return node.translator->hitRate();
    if (node.stu)
        return node.stu->translationHitRate();
    return 1.0; // E-FAM: no system-level translation at all
}

double
System::acmHitRate() const
{
    const NodeParts& node = *nodes_[0];
    if (node.stu)
        return node.stu->acmHitRate();
    return 1.0;
}

double
System::mpki() const
{
    const auto& stats = sim_.stats();
    double misses = stats.sumMatching(".l3.misses");
    double instructions = stats.sumMatching(".instructions");
    if (instructions == 0.0)
        return 0.0;
    return 1000.0 * misses / instructions;
}

} // namespace famsim
