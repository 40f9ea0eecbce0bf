#include "stu/stu.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace famsim {

Stu::Stu(Simulation& sim, const std::string& name, const StuParams& params,
         NodeId node, FamLayout& layout, AcmStore& acm,
         MemoryBroker& broker, FabricLink& fabric, FamMedia& media)
    : Component(sim, name),
      params_(params),
      node_(node),
      layout_(layout),
      acm_(acm),
      broker_(broker),
      fabric_(fabric),
      media_(media),
      bitmapCache_(params.bitmapCacheEntries, params.bitmapCacheEntries,
                   ReplPolicy::Lru, sim.seed()),
      famPtwCache_(sim, name + ".famptwcache", params.ptwCacheEntries),
      tlbLookups_(statCounter("translation_lookups",
                              "STU translation lookups (I-FAM)")),
      tlbHits_(statCounter("translation_hits",
                           "STU translation hits (I-FAM)")),
      acmLookups_(statCounter("acm_lookups", "ACM cache lookups")),
      acmHits_(statCounter("acm_hits", "ACM cache hits")),
      walks_(statCounter("walks", "FAM page-table walks started")),
      walkSteps_(statCounter("walk_steps",
                             "FAM page-table walk memory accesses")),
      acmFetches_(statCounter("acm_fetches", "ACM blocks fetched from FAM")),
      bitmapFetches_(statCounter("bitmap_fetches",
                                 "bitmap blocks fetched from FAM")),
      brokerFaults_(statCounter("broker_faults",
                                "system-level faults sent to the broker")),
      verifications_(statCounter("verifications",
                                 "access-control checks performed")),
      denials_(statCounter("denials", "accesses denied")),
      forwarded_(statCounter("forwarded", "requests forwarded to FAM"))
{
    obsQueueWait_ = obsHistogram(
        "obs_queue_wait_ns",
        "ns from core issue to STU arrival (observability)", 16, 32);
    obsTranslation_ = obsHistogram(
        "obs_translation_ns",
        "ns from STU arrival to FAM forward: translation + access "
        "control (observability)", 16, 64);
    if (params_.jobs > 1) {
        jobAcmLookups_ = &statJobTable(
            "job_acm_lookups", "ACM cache lookups per tenant job",
            params_.jobs);
        jobAcmHits_ = &statJobTable(
            "job_acm_hits", "ACM cache hits per tenant job", params_.jobs);
        jobDenials_ = &statJobTable(
            "job_denials", "accesses denied per tenant job", params_.jobs);
    }
    FAMSIM_ASSERT(params.entries % params.assoc == 0,
                  "STU entries must divide by associativity");
    std::size_t sets = params.entries / params.assoc;
    switch (params.org) {
      case StuOrg::IFam:
        ifamCache_ = std::make_unique<SetAssocCache<IFamEntry>>(
            sets, params.assoc, ReplPolicy::Lru, sim.seed());
        break;
      case StuOrg::DeactW:
        // One way holds the ACM of wayGroupPages() *contiguous* pages.
        acmKeyDivisor_ = params.wayGroupPages();
        acmCache_ = std::make_unique<SetAssocCache<std::uint8_t>>(
            sets, params.assoc, ReplPolicy::Lru, sim.seed());
        break;
      case StuOrg::DeactN:
        FAMSIM_ASSERT(params.pairsPerWay >= 1 && params.pairsPerWay <= 3,
                      "DeACT-N supports 1..3 (tag, ACM) pairs per way");
        // Sub-way pairs hold individual pages.
        acmCache_ = std::make_unique<SetAssocCache<std::uint8_t>>(
            sets, params.assoc * params.pairsPerWay, ReplPolicy::Lru,
            sim.seed());
        break;
    }
}

void
Stu::handleFromNode(PktPtr pkt)
{
    FAMSIM_ASSERT(pkt, "null packet at STU");
    sim_.events().scheduleAfter(params_.nodeLinkLatency,
                                [this, pkt = std::move(pkt)]() mutable {
                                    receive(std::move(pkt));
                                });
}

void
Stu::receive(PktPtr pkt)
{
    // Stage stamp: arrival at the STU (unconditional store — see
    // Packet). The queue-wait histogram covers core issue -> here.
    pkt->tsStu = sim_.curTick();
    if (obsQueueWait_)
        obsQueueWait_->sample((pkt->tsStu - pkt->issued) / kNanosecond);
    if (params_.org == StuOrg::IFam) {
        handleIFam(std::move(pkt));
    } else if (pkt->verified) {
        handleDeactVerified(std::move(pkt));
    } else {
        handleDeactUnverified(std::move(pkt));
    }
}

// ---------------------------------------------------------------------
// I-FAM: combined translation + access control at the STU.
// ---------------------------------------------------------------------

void
Stu::handleIFam(PktPtr pkt)
{
    sim_.events().scheduleAfter(params_.lookupLatency,
                                [this, pkt = std::move(pkt)]() mutable {
        std::uint64_t npa_page = pkt->npa.pageNumber();
        ++tlbLookups_;
        ++acmLookups_; // ACM rides in the same entry (Fig. 8a)
        if (jobAcmLookups_)
            jobAcmLookups_->add(pkt->job);
        if (IFamEntry* entry = ifamCache_->lookup(npa_page)) {
            ++tlbHits_;
            ++acmHits_;
            if (jobAcmHits_)
                jobAcmHits_->add(pkt->job);
            pkt->fam = FamAddr(entry->famPage * kPageSize +
                               pkt->npa.pageOffset());
            pkt->hasFam = true;
            verifyAndForward(std::move(pkt));
            return;
        }
        // Merge concurrent walks to the same page.
        auto [it, first] = walkMshrs_.try_emplace(npa_page);
        it->second.waiters.push_back(std::move(pkt));
        if (!first)
            return;
        startWalk(npa_page, [this, npa_page](std::uint64_t fam_page) {
            // The walked PTE supplies the translation; the 16-bit ACM
            // is fetched from the metadata region and cached in the
            // same entry (Fig. 8a: way = tag + famp + ac).
            ++acmFetches_;
            sendFamAccess(*walkOf(npa_page).waiters.front(),
                          layout_.acmBlockForPage(fam_page), MemOp::Read,
                          PacketKind::Acm, [this, npa_page, fam_page] {
                ifamCache_->insert(npa_page, IFamEntry{fam_page});
                takeWalkWaiters(npa_page).drain(
                    [this, fam_page](PktPtr w) {
                        w->fam = FamAddr(fam_page * kPageSize +
                                         w->npa.pageOffset());
                        w->hasFam = true;
                        verifyAndForward(std::move(w));
                    });
            });
        });
    });
}

// ---------------------------------------------------------------------
// DeACT: decoupled paths.
// ---------------------------------------------------------------------

void
Stu::handleDeactVerified(PktPtr pkt)
{
    FAMSIM_ASSERT(pkt->hasFam,
                  "verified packet without FAM address at STU");
    sim_.events().scheduleAfter(params_.lookupLatency,
                                [this, pkt = std::move(pkt)]() mutable {
                                    checkAccess(std::move(pkt));
                                });
}

void
Stu::handleDeactUnverified(PktPtr pkt)
{
    sim_.events().scheduleAfter(params_.lookupLatency,
                                [this, pkt = std::move(pkt)]() mutable {
        std::uint64_t npa_page = pkt->npa.pageNumber();
        auto [it, first] = walkMshrs_.try_emplace(npa_page);
        it->second.waiters.push_back(std::move(pkt));
        if (!first)
            return;
        startWalk(npa_page, [this, npa_page](std::uint64_t fam_page) {
            // Return the mapping to the node's FAM translator so it can
            // update the in-DRAM translation cache (step 5, Fig. 6).
            if (mappingListener_)
                mappingListener_(npa_page, fam_page);
            takeWalkWaiters(npa_page).drain([this, fam_page](PktPtr w) {
                w->fam = FamAddr(fam_page * kPageSize +
                                 w->npa.pageOffset());
                w->hasFam = true;
                w->verified = true;
                checkAccess(std::move(w));
            });
        });
    });
}

void
Stu::checkAccess(PktPtr pkt)
{
    FAMSIM_ASSERT(acmCache_, "ACM check in the I-FAM organization");
    std::uint64_t fam_page = pkt->fam.pageNumber();
    std::uint64_t acm_key = fam_page / acmKeyDivisor_;
    ++acmLookups_;
    if (jobAcmLookups_)
        jobAcmLookups_->add(pkt->job);
    if (acmCache_->lookup(acm_key)) {
        ++acmHits_;
        if (jobAcmHits_)
            jobAcmHits_->add(pkt->job);
        verifyAndForward(std::move(pkt));
        return;
    }
    // Fetch the 64 B ACM block covering this page from FAM. Bind the
    // origin before the continuation below takes the handle.
    ++acmFetches_;
    const Packet& origin = *pkt;
    sendFamAccess(origin, layout_.acmBlockForPage(fam_page), MemOp::Read,
                  PacketKind::Acm,
                  [this, pkt = std::move(pkt), acm_key]() mutable {
                      acmCache_->insert(acm_key, 1);
                      verifyAndForward(std::move(pkt));
                  });
}

// ---------------------------------------------------------------------
// FAM page-table walk (performed by the STU in all organizations).
// ---------------------------------------------------------------------

Stu::Walk&
Stu::walkOf(std::uint64_t npa_page)
{
    auto it = walkMshrs_.find(npa_page);
    FAMSIM_ASSERT(it != walkMshrs_.end(), "lost walk MSHR");
    return it->second;
}

void
Stu::startWalk(std::uint64_t npa_page, WalkDone done)
{
    ++walks_;
    Walk& walk = walkOf(npa_page);
    auto result =
        broker_.famTableOf(walk.waiters.front()->node).walk(npa_page);
    const std::size_t start = famPtwCache_.firstStep(npa_page, result.steps);
    walk.steps = result.steps;
    walk.done = std::move(done);
    walkStep(npa_page, start);
}

void
Stu::walkStep(std::uint64_t npa_page, std::size_t index)
{
    Walk& walk = walkOf(npa_page);
    if (index >= walk.steps.size()) {
        famPtwCache_.recordWalk(npa_page, walk.steps);
        auto leaf = broker_.famTableOf(walk.waiters.front()->node)
                        .lookup(npa_page);
        finishWalk(npa_page, leaf);
        return;
    }
    ++walkSteps_;
    FamAddr addr = FamAddr(walk.steps[index].addr).blockAddr();
    sendFamAccess(*walk.waiters.front(), addr, MemOp::Read,
                  PacketKind::FamPtw, [this, npa_page, index] {
                      walkStep(npa_page, index + 1);
                  });
}

void
Stu::finishWalk(std::uint64_t npa_page,
                std::optional<HierarchicalPageTable::Leaf> leaf)
{
    if (leaf) {
        walked(npa_page, leaf->valuePage);
        return;
    }
    // Unmapped at system level: ask the broker for a page.
    ++brokerFaults_;
    if (TraceSink* trace = sim_.trace();
        trace && trace->wants(TraceSink::kPacket)) {
        trace->instant(TraceSink::kPacket, node_, "stu.broker_fault",
                       sim_.curTick());
    }
    const Packet& origin = *walkOf(npa_page).waiters.front();
    broker_.handleUnmapped(origin.node, npa_page,
                           [this, npa_page](std::uint64_t fam) {
                               walked(npa_page, fam);
                           },
                           origin.job);
}

void
Stu::walked(std::uint64_t npa_page, std::uint64_t fam_page)
{
    WalkDone done = std::move(walkOf(npa_page).done);
    done(fam_page);
}

PktWaiters
Stu::takeWalkWaiters(std::uint64_t npa_page)
{
    auto it = walkMshrs_.find(npa_page);
    FAMSIM_ASSERT(it != walkMshrs_.end(), "lost walk MSHR");
    PktWaiters waiters = std::move(it->second.waiters);
    walkMshrs_.erase(it);
    return waiters;
}

// ---------------------------------------------------------------------
// Verification unit.
// ---------------------------------------------------------------------

void
Stu::verifyAndForward(PktPtr pkt)
{
    sim_.events().scheduleAfter(params_.verifyLatency,
                                [this, pkt = std::move(pkt)]() mutable {
        ++verifications_;
        std::uint64_t fam_page = pkt->fam.pageNumber();
        AcmEntry entry = acm_.get(fam_page);
        if (entry.owner == acm_.sharedMarker()) {
            checkBitmap(std::move(pkt));
            return;
        }
        bool allowed =
            entry.owner == pkt->logicalNode &&
            Perms::decode2b(entry.permBits).allows(pkt->isWrite());
        finishVerify(std::move(pkt), allowed);
    });
}

void
Stu::checkBitmap(PktPtr pkt)
{
    std::uint64_t fam_page = pkt->fam.pageNumber();
    std::uint64_t region = FamLayout::regionOf(fam_page);
    // One 64 B bitmap block covers 512 node bits.
    std::uint64_t key = region * 128 + pkt->logicalNode / 512;

    auto check = [this, region](PktPtr p) {
        bool allowed =
            acm_.regionAllows(region, p->logicalNode) &&
            acm_.regionPerms(region, p->logicalNode)
                .allows(p->isWrite());
        finishVerify(std::move(p), allowed);
    };

    if (bitmapCache_.lookup(key)) {
        check(std::move(pkt));
        return;
    }
    ++bitmapFetches_;
    FamAddr addr =
        layout_.bitmapAddrFor(region, pkt->logicalNode).blockAddr();
    const Packet& origin = *pkt; // before the continuation takes pkt
    sendFamAccess(origin, addr, MemOp::Read, PacketKind::Bitmap,
                  [this, key, check, pkt = std::move(pkt)]() mutable {
                      bitmapCache_.insert(key, 1);
                      check(std::move(pkt));
                  });
}

void
Stu::finishVerify(PktPtr pkt, bool allowed)
{
    if (!allowed) {
        deny(std::move(pkt));
        return;
    }
    pkt->accessGranted = true;
    forwardToFam(std::move(pkt));
}

// ---------------------------------------------------------------------
// Forwarding and responses.
// ---------------------------------------------------------------------

void
Stu::forwardToFam(PktPtr pkt)
{
    FAMSIM_ASSERT(pkt->accessGranted,
                  "unverified packet about to reach FAM usable space");
    if (params_.org == StuOrg::IFam && !pkt->isWrite() &&
        params_.maxOutstanding != 0 &&
        outstanding_ >= params_.maxOutstanding) {
        // Outstanding-mapping list full (I-FAM keeps it at the STU).
        stallQueue_.push_back(std::move(pkt));
        return;
    }
    ++forwarded_;
    // One sample/span per forwarded packet: the stall path above
    // re-enters, so the stalled wait is folded into the translation
    // stage (it is STU occupancy, not fabric time).
    Tick now = sim_.curTick();
    if (obsTranslation_)
        obsTranslation_->sample((now - pkt->tsStu) / kNanosecond);
    if (TraceSink* trace = sim_.trace();
        trace && trace->wants(TraceSink::kPacket)) {
        trace->span(TraceSink::kPacket, node_, "stu.translate",
                    pkt->tsStu, now);
    }
    pkt->tsFabricReq = now;
    bool tracked = params_.org == StuOrg::IFam && !pkt->isWrite();
    if (tracked)
        ++outstanding_;

    // The media's completion pops this hop and hands it the handle,
    // which the response carries back over the fabric and the node
    // link.
    pkt->pushHop([this, tracked](PktPtr p) {
        fabric_.sendResponse(node_, [this, p = std::move(p),
                                     tracked]() mutable {
            sim_.events().scheduleAfter(
                params_.nodeLinkLatency,
                [this, p = std::move(p), tracked]() mutable {
                    if (tracked) {
                        FAMSIM_ASSERT(outstanding_ > 0,
                                      "outstanding underflow");
                        --outstanding_;
                        if (!stallQueue_.empty()) {
                            PktPtr next = std::move(stallQueue_.front());
                            stallQueue_.pop_front();
                            forwardToFam(std::move(next));
                        }
                    }
                    complete(std::move(p));
                });
        });
    });
    sendToMedia(std::move(pkt));
}

void
Stu::sendFamAccess(const Packet& origin, FamAddr addr, MemOp op,
                   PacketKind kind, FamDone done)
{
    PktPtr pkt = makePacket(origin.node, origin.core, op, kind);
    pkt->logicalNode = origin.logicalNode;
    pkt->job = origin.job;
    pkt->fam = addr;
    pkt->hasFam = true;
    pkt->issued = sim_.curTick();
    pkt->tsFabricReq = pkt->issued;
    pkt->onDone = [this, done = std::move(done)](Packet&) mutable {
        fabric_.sendResponse(node_, std::move(done));
    };
    sendToMedia(std::move(pkt));
}

void
Stu::sendToMedia(PktPtr pkt)
{
    unsigned module = media_.moduleOf(pkt->fam.value());
    fabric_.sendRequest(module, [this, pkt = std::move(pkt)]() mutable {
        media_.access(std::move(pkt));
    });
}

void
Stu::deny(PktPtr pkt)
{
    ++denials_;
    if (jobDenials_)
        jobDenials_->add(pkt->job);
    pkt->accessGranted = false;
    respondToNode(std::move(pkt));
}

void
Stu::respondToNode(PktPtr pkt)
{
    sim_.events().scheduleAfter(params_.nodeLinkLatency,
                                [pkt = std::move(pkt)]() mutable {
                                    complete(std::move(pkt));
                                });
}

void
Stu::invalidateNode(NodeId node)
{
    if (node != node_)
        return;
    if (ifamCache_)
        ifamCache_->invalidateAll();
    if (acmCache_)
        acmCache_->invalidateAll();
    bitmapCache_.invalidateAll();
    famPtwCache_.invalidateAll();
}

double
Stu::translationHitRate() const
{
    double total = static_cast<double>(tlbLookups_.value());
    return total == 0.0 ? 0.0 : tlbHits_.value() / total;
}

double
Stu::acmHitRate() const
{
    double total = static_cast<double>(acmLookups_.value());
    return total == 0.0 ? 0.0 : acmHits_.value() / total;
}

} // namespace famsim
