#include "fam/fam_media.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace famsim {

FamMedia::FamMedia(Simulation& sim, const std::string& name,
                   const FamMediaParams& params)
    : Component(sim, name),
      params_(params),
      total_(statSharedCounter("requests", "total requests at FAM")),
      at_(statSharedCounter("at_requests",
                            "address-translation requests at FAM")),
      data_(statSharedCounter("data_requests",
                              "data (non-AT) requests at FAM")),
      famPtw_(statSharedCounter("fam_ptw_requests",
                                "FAM page-table walk requests")),
      acm_(statSharedCounter("acm_requests", "ACM fetch requests")),
      bitmap_(statSharedCounter("bitmap_requests",
                                "shared-page bitmap requests")),
      nodePtw_(statSharedCounter(
          "node_ptw_requests",
          "node page-table walk requests reaching FAM")),
      broker_(statSharedCounter("broker_requests",
                                "broker bookkeeping requests at FAM"))
{
    FAMSIM_ASSERT(params.modules > 0, "FAM needs at least one module");
    if (params_.jobs > 1) {
        jobRequests_ = &statJobTable(
            "job_requests", "requests at FAM per tenant job",
            params_.jobs);
        jobAt_ = &statJobTable("job_at_requests",
                               "address-translation requests at FAM "
                               "per tenant job",
                               params_.jobs);
    }
    const PartitionLayout& layout = sim.partitions();
    FAMSIM_ASSERT(layout.empty() || layout.mediaModules() == params.modules,
                  "FAM has ", params.modules, " modules; the partition "
                  "layout has ", layout.mediaModules());
    for (unsigned i = 0; i < params.modules; ++i) {
        // Module i's banked state and histograms run on (and are owned
        // by) its media partition; the aggregate SharedCounters above
        // span every module and stay untagged, and so does everything
        // when no layout is set (fixtures without a System).
        check::WiringScope wire(layout.empty() ? check::kUnowned
                                               : layout.media(i));
        modules_.push_back(std::make_unique<BankedMemory>(
            sim, name + ".module" + std::to_string(i), params.nvm));
        obsFabric_.push_back(obsHistogram(
            "module" + std::to_string(i) + ".obs_fabric_ns",
            "ns from STU fabric hand-off to module arrival "
            "(observability)", 16, 64));
    }
}

void
FamMedia::access(PktPtr pkt)
{
    FAMSIM_ASSERT(pkt->hasFam || pkt->kind != PacketKind::Data,
                  "data packet reached FAM without a FAM address");
    std::uint64_t addr = pkt->fam.value();
    unsigned module = moduleOf(addr);
    // Each module's banked state belongs to one partition; under psim
    // a mis-routed access would race with its owner.
    FAMSIM_ASSERT(sim_.onPartition(sim_.partitions().media(module)),
                  "FAM access executed off the owning media partition");
    ++total_;
    if (jobRequests_) {
        jobRequests_->add(pkt->job);
        if (pkt->isTranslation())
            jobAt_->add(pkt->job);
    }
    switch (pkt->kind) {
      case PacketKind::Data: ++data_; break;
      case PacketKind::FamPtw: ++at_; ++famPtw_; break;
      case PacketKind::Acm: ++at_; ++acm_; break;
      case PacketKind::Bitmap: ++at_; ++bitmap_; break;
      case PacketKind::NodePtw: ++at_; ++nodePtw_; break;
      case PacketKind::Broker: ++at_; ++broker_; break;
    }

    // tsFabricReq is only stamped on the STU paths; broker bookkeeping
    // and node-PTW packets reach the media without crossing that hop
    // and are excluded from the fabric-stage breakdown.
    Tick now = sim_.curTick();
    if (pkt->tsFabricReq != 0 && obsFabric_[module])
        obsFabric_[module]->sample((now - pkt->tsFabricReq) /
                                   kNanosecond);
    if (TraceSink* trace = sim_.trace();
        trace && trace->wants(TraceSink::kPacket)) {
        std::uint32_t lane = sim_.partitions().media(module);
        if (pkt->tsFabricReq != 0)
            trace->span(TraceSink::kPacket, lane, "fabric.req",
                        pkt->tsFabricReq, now);
        // Service span: a completion hop closes it when the module
        // finishes. The completion runs on this module's partition, so
        // the lane stays writer-exclusive.
        pkt->pushHop([this, lane, now](PktPtr p) {
            sim_.trace()->span(TraceSink::kPacket, lane, "media.access",
                               now, sim_.curTick());
            complete(std::move(p));
        });
    }

    modules_[module]->access(std::move(pkt), addr);
}

} // namespace famsim
