#include "node/core.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace famsim {

Core::Core(Simulation& sim, const std::string& name,
           const CoreParams& params, NodeId node, NodeId logical_node,
           CoreId core_id, WorkloadGen& workload, TwoLevelTlb& tlb,
           NodePtWalker& walker, MemSink& l1, NodeOs& os)
    : Component(sim, name),
      params_(params),
      node_(node),
      logicalNode_(logical_node),
      coreId_(core_id),
      workload_(workload),
      tlb_(tlb),
      walker_(walker),
      l1_(l1),
      os_(os),
      instructions_(statCounter("instructions", "instructions retired")),
      memOps_(statCounter("mem_ops", "memory operations issued")),
      tlbWalks_(statCounter("tlb_walks", "TLB-miss page-table walks")),
      pageFaults_(statCounter("page_faults", "OS page faults taken")),
      windowStalls_(statCounter("window_stalls",
                                "stalls on a full outstanding window")),
      blockingStalls_(statCounter("blocking_stalls",
                                  "stalls on dependence-chain loads"))
{
    FAMSIM_ASSERT(params.issueWidth > 0, "issue width must be positive");
    FAMSIM_ASSERT(params.maxOutstanding > 0,
                  "outstanding window must be positive");
}

void
Core::start(std::function<void()> on_finish)
{
    FAMSIM_ASSERT(state_ == WaitState::Finished,
                  "core started while running");
    onFinish_ = std::move(on_finish);
    state_ = WaitState::Running;
    localTime_ = sim_.curTick();
    windowStartInst_ = instRetired_;
    windowStartTime_ = localTime_;
    scheduleResume();
}

void
Core::addPhaseCallback(std::uint64_t instructions, std::function<void()> fn)
{
    auto pos = std::upper_bound(
        phaseHooks_.begin(), phaseHooks_.end(), instructions,
        [](std::uint64_t at, const PhaseHook& hook) { return at < hook.at; });
    phaseHooks_.insert(pos, PhaseHook{instructions, std::move(fn)});
    nextPhaseAt_ = phaseHooks_.front().at;
}

void
Core::firePhaseCallbacks()
{
    while (!phaseHooks_.empty() && instRetired_ >= phaseHooks_.front().at) {
        auto fn = std::move(phaseHooks_.front().fn);
        phaseHooks_.erase(phaseHooks_.begin());
        nextPhaseAt_ =
            phaseHooks_.empty() ? kNoPhase : phaseHooks_.front().at;
        fn();
    }
}

void
Core::markWindow()
{
    windowStartInst_ = instRetired_;
    windowStartTime_ = localTime_;
}

double
Core::ipc() const
{
    Tick elapsed = localTime_ - windowStartTime_;
    if (elapsed == 0)
        return 0.0;
    double cycles = static_cast<double>(elapsed) /
                    static_cast<double>(params_.period);
    return static_cast<double>(instRetired_ - windowStartInst_) / cycles;
}

void
Core::scheduleResume()
{
    if (resumeScheduled_)
        return;
    resumeScheduled_ = true;
    Tick when = std::max(localTime_, sim_.curTick());
    sim_.events().schedule(when, [this] { resume(); });
}

void
Core::resume()
{
    resumeScheduled_ = false;
    if (state_ == WaitState::Finished)
        return;
    state_ = WaitState::Running;
    localTime_ = std::max(localTime_, sim_.curTick());

    unsigned processed = 0;
    while (instRetired_ < params_.instructionLimit) {
        if (++processed > params_.batchSize) {
            scheduleResume();
            return;
        }

        if (!pendingOp_) {
            MemOpDesc op = workload_.next();
            // Retire the non-memory gap at the issue width.
            std::uint64_t gap = std::min<std::uint64_t>(
                op.gap, params_.instructionLimit - instRetired_);
            instRetired_ += gap;
            instructions_ += gap;
            localTime_ += gap * params_.period / params_.issueWidth;
            if (instRetired_ >= nextPhaseAt_)
                firePhaseCallbacks();
            if (instRetired_ >= params_.instructionLimit)
                break;
            pendingOp_ = op;
        }

        auto npa = translate(*pendingOp_);
        if (!npa)
            return; // waiting on a walk / fault (state_ == Walk)

        if (outstanding_ >= params_.maxOutstanding) {
            ++windowStalls_;
            state_ = WaitState::Window;
            return;
        }

        MemOpDesc op = *pendingOp_;
        pendingOp_.reset();
        issueMemOp(op, *npa);
        ++instRetired_;
        ++instructions_;
        localTime_ += params_.period / params_.issueWidth;
        if (instRetired_ >= nextPhaseAt_)
            firePhaseCallbacks();

        if (op.blocking) {
            ++blockingStalls_;
            state_ = WaitState::Blocking;
            return;
        }
    }
    finish();
}

std::optional<NPAddr>
Core::translate(const MemOpDesc& op)
{
    std::uint64_t va_page = op.vaddr / kPageSize;
    auto result = tlb_.lookup(va_page);
    localTime_ += result.latency;
    if (result.entry) {
        return NPAddr(result.entry->valuePage * kPageSize +
                      op.vaddr % kPageSize);
    }
    // TLB miss: hand over to the hardware walker.
    ++tlbWalks_;
    state_ = WaitState::Walk;
    Tick when = std::max(localTime_, sim_.curTick());
    sim_.events().schedule(when, [this, va_page] {
        walker_.walk(va_page, [this, va_page](auto leaf) {
            onWalkDone(va_page, leaf);
        });
    });
    return std::nullopt;
}

void
Core::onWalkDone(std::uint64_t va_page,
                 std::optional<HierarchicalPageTable::Leaf> leaf)
{
    localTime_ = std::max(localTime_, sim_.curTick());
    if (!leaf) {
        // Page fault: the OS maps the page, then the walk is redone
        // (the retry performs real page-table accesses again).
        ++pageFaults_;
        localTime_ += os_.handleFault(va_page);
        Tick when = std::max(localTime_, sim_.curTick());
        sim_.events().schedule(when, [this, va_page] {
            walker_.walk(va_page, [this, va_page](auto l) {
                onWalkDone(va_page, l);
            });
        });
        return;
    }
    tlb_.insert(va_page, TlbEntry{leaf->valuePage, leaf->perms});
    resume();
}

void
Core::issueMemOp(const MemOpDesc& op, NPAddr npa)
{
    ++memOps_;
    if (jobOps_)
        jobOps_->add(op.job);
    PktPtr pkt = makePacket(node_, coreId_,
                            op.write ? MemOp::Write : MemOp::Read,
                            PacketKind::Data);
    pkt->logicalNode = logicalNode_;
    pkt->job = op.job;
    pkt->vaddr = VAddr(op.vaddr);
    pkt->npa = npa;
    pkt->issued = localTime_;
    bool blocking = op.blocking;
    pkt->onDone = [this, blocking](Packet& p) {
        // Packet lifecycle span: issue -> completion, on the owning
        // node's trace lane (the handler runs on that partition).
        if (TraceSink* trace = sim_.trace();
            trace && trace->wants(TraceSink::kPacket)) {
            trace->span(TraceSink::kPacket, node_, "core.op", p.issued,
                        sim_.curTick());
        }
        onMemComplete(blocking, sim_.curTick());
    };
    ++outstanding_;
    Tick when = std::max(localTime_, sim_.curTick());
    sim_.events().schedule(when, [this, pkt = std::move(pkt)]() mutable {
        l1_.access(std::move(pkt));
    });
}

void
Core::onMemComplete(bool was_blocking, Tick)
{
    FAMSIM_ASSERT(outstanding_ > 0, "memory completion underflow");
    --outstanding_;
    if (state_ == WaitState::Window ||
        (state_ == WaitState::Blocking && was_blocking)) {
        resume();
    }
}

void
Core::finish()
{
    state_ = WaitState::Finished;
    if (onFinish_) {
        auto fn = std::move(onFinish_);
        onFinish_ = nullptr;
        fn();
    }
}

} // namespace famsim
