#include "deact/fam_translator.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace famsim {

FamTranslator::FamTranslator(Simulation& sim, const std::string& name,
                             const FamTranslatorParams& params,
                             BankedMemory& dram, Stu& stu)
    : Component(sim, name),
      params_(params),
      dram_(dram),
      stu_(stu),
      cache_(params.cacheBytes / kBlockSize, params.waysPerLine,
             ReplPolicy::Random, sim.seed()),
      lookups_(statCounter("lookups", "FAM translation cache lookups")),
      hits_(statCounter("hits", "FAM translation cache hits")),
      misses_(statCounter("misses", "FAM translation cache misses")),
      dramReads_(statCounter("dram_reads",
                             "DRAM reads for translation lookups")),
      dramWrites_(statCounter("dram_writes",
                              "DRAM writes for translation updates")),
      coalesced_(statCounter("coalesced",
                             "misses merged into a pending walk")),
      stalls_(statCounter("stalls",
                          "requests stalled on a full mapping list")),
      invalidations_(statCounter("invalidations",
                                 "cache shootdowns (migration)"))
{
    obsLookup_ = obsHistogram(
        "obs_lookup_ns",
        "ns per translation-cache lookup: DRAM line fetch + tag match "
        "(observability)", 16, 32);
    // The STU sends mapping responses here (step 5, Fig. 6).
    stu_.setMappingListener(
        [this](std::uint64_t npa_page, std::uint64_t fam_page) {
            onMapping(npa_page, fam_page);
        });
}

void
FamTranslator::access(PktPtr pkt)
{
    FAMSIM_ASSERT(pkt, "null packet at FAM translator");
    if (!pkt->isWrite() && params_.maxOutstanding != 0 &&
        outstanding_ >= params_.maxOutstanding) {
        ++stalls_;
        stallQueue_.push_back(std::move(pkt));
        return;
    }
    startLookup(std::move(pkt));
}

void
FamTranslator::startLookup(PktPtr pkt)
{
    // A read holds an outstanding-list slot until its response; the
    // completion hop frees it and wakes a stalled request.
    if (!pkt->isWrite()) {
        ++outstanding_;
        pkt->pushHop([this](PktPtr p) {
            FAMSIM_ASSERT(outstanding_ > 0,
                          "outstanding mapping list underflow");
            --outstanding_;
            if (!stallQueue_.empty() &&
                outstanding_ < params_.maxOutstanding) {
                PktPtr next = std::move(stallQueue_.front());
                stallQueue_.pop_front();
                startLookup(std::move(next));
            }
            complete(std::move(p));
        });
    }

    // Fetch the 64 B translation-cache line from local DRAM (step 2).
    ++lookups_;
    ++dramReads_;
    Tick start = sim_.curTick();
    std::uint64_t npa_page = pkt->npa.pageNumber();
    readDram(npa_page, MemOp::Read,
             [this, pkt = std::move(pkt), start]() mutable {
        sim_.events().scheduleAfter(
            params_.tagMatchLatency,
            [this, pkt = std::move(pkt), start]() mutable {
                Tick now = sim_.curTick();
                if (obsLookup_)
                    obsLookup_->sample((now - start) / kNanosecond);
                if (TraceSink* trace = sim_.trace();
                    trace && trace->wants(TraceSink::kPacket)) {
                    trace->span(TraceSink::kPacket, stu_.node(),
                                "translator.lookup", start, now);
                }
                finishLookup(std::move(pkt));
            });
    });
}

void
FamTranslator::finishLookup(PktPtr pkt)
{
    std::uint64_t npa_page = pkt->npa.pageNumber();
    if (std::uint64_t* fam_page = cache_.lookup(npa_page)) {
        ++hits_;
        pkt->fam = FamAddr(*fam_page * kPageSize + pkt->npa.pageOffset());
        pkt->hasFam = true;
        pkt->verified = true; // 'V' flag set: STU skips the walk
        forward(std::move(pkt));
        return;
    }

    ++misses_;
    auto [it, first] = pending_.try_emplace(npa_page);
    if (!first) {
        // A walk for this page is already in flight at the STU.
        ++coalesced_;
        it->second.push_back(std::move(pkt));
        return;
    }
    // First miss rides to the STU with V = 0; the STU walks the FAM
    // page table, forwards this very request after verification, and
    // returns the mapping via onMapping().
    pkt->verified = false;
    pkt->hasFam = false;
    forward(std::move(pkt));
}

void
FamTranslator::forward(PktPtr pkt)
{
    stu_.handleFromNode(std::move(pkt));
}

void
FamTranslator::onMapping(std::uint64_t npa_page, std::uint64_t fam_page)
{
    // Update the in-DRAM cache: read-modify-write of the 64 B line with
    // a random way choice (§III-C "Updating FAM Translation Cache").
    ++dramReads_;
    ++dramWrites_;
    readDram(npa_page, MemOp::Read, [this, npa_page, fam_page] {
        readDram(npa_page, MemOp::Write, [this, npa_page, fam_page] {
            cache_.insert(npa_page, fam_page);
            auto it = pending_.find(npa_page);
            if (it == pending_.end())
                return;
            PktWaiters waiters = std::move(it->second);
            pending_.erase(it);
            waiters.drain([this, fam_page](PktPtr w) {
                w->fam = FamAddr(fam_page * kPageSize +
                                 w->npa.pageOffset());
                w->hasFam = true;
                w->verified = true;
                forward(std::move(w));
            });
        });
    });
}

void
FamTranslator::readDram(std::uint64_t npa_page, MemOp op, DramDone done)
{
    std::uint64_t set = npa_page % cache_.sets();
    std::uint64_t addr = params_.dramCacheBase + set * kBlockSize;
    PktPtr pkt = makePacket(0, 0, op, PacketKind::FamPtw);
    pkt->npa = NPAddr(addr);
    pkt->issued = sim_.curTick();
    pkt->onDone = [done = std::move(done)](Packet&) { done(); };
    dram_.access(std::move(pkt), addr);
}

void
FamTranslator::invalidateAll()
{
    ++invalidations_;
    // Shooting down the in-memory cache costs one DRAM write per line
    // (§VI "Page Migration"); count the traffic without serializing it.
    dramWrites_ += cache_.sets();
    cache_.invalidateAll();
}

double
FamTranslator::hitRate() const
{
    double total = static_cast<double>(lookups_.value());
    return total == 0.0 ? 0.0 : hits_.value() / total;
}

} // namespace famsim
