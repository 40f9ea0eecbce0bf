#include "psim/parallel_sim.hh"

#include <algorithm>

#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

namespace famsim {
namespace {

/** Smallest finite entry of a lookahead matrix row. */
Tick
rowMin(const std::array<Tick, 3>& row)
{
    Tick min = ParallelSim::kNever;
    for (Tick la : row)
        min = std::min(min, la);
    return min;
}

} // namespace

ParallelSim::ParallelSim(Simulation& sim, const Topology& topo,
                         unsigned threads)
    : sim_(sim),
      window_(std::min(topo.fabricLookahead, topo.brokerLookahead)),
      // More workers than partitions can never help: every worker
      // acknowledges every epoch, so the surplus would be pure
      // barrier overhead.
      pool_(std::max(1u, std::min(threads, topo.nodes + topo.mediaModules
                                               + 1))),
      nodes_(topo.nodes),
      media_(topo.mediaModules)
{
    FAMSIM_ASSERT(topo.nodes >= 1 && topo.mediaModules >= 1,
                  "sharded topology needs nodes and media modules");
    FAMSIM_ASSERT(topo.fabricLookahead > 0 && topo.brokerLookahead > 0,
                  "per-edge lookaheads must be positive");
    auto node = static_cast<std::size_t>(Kind::Node);
    auto mediaKind = static_cast<std::size_t>(Kind::Media);
    auto broker = static_cast<std::size_t>(Kind::Broker);
    for (auto& row : edge_)
        row.fill(kNever);
    edge_[node][mediaKind] = topo.fabricLookahead;
    edge_[mediaKind][node] = topo.fabricLookahead;
    edge_[node][broker] = topo.brokerLookahead;
    edge_[broker][node] = topo.brokerLookahead;
    edge_[mediaKind][broker] = topo.brokerLookahead;
    edge_[broker][mediaKind] = topo.brokerLookahead;
    init(topo.nodes + topo.mediaModules + 1);
}

ParallelSim::ParallelSim(Simulation& sim, std::uint32_t partitions,
                         Tick lookahead, unsigned threads)
    : sim_(sim),
      window_(lookahead),
      pool_(std::max(1u, std::min(threads, partitions))),
      nodes_(partitions),
      media_(0)
{
    FAMSIM_ASSERT(partitions >= 1, "parallel kernel needs a partition");
    // Uniform peers: every pair may exchange messages at the same
    // floor, reproducing the pre-sharding single-lookahead kernel.
    for (auto& row : edge_)
        row.fill(lookahead);
    init(partitions);
}

void
ParallelSim::init(std::uint32_t partitions)
{
    FAMSIM_ASSERT(!sim_.parallel(),
                  "a parallel kernel is already bound to this simulation");
    parts_.reserve(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p)
        parts_.push_back(std::make_unique<NodeQueue>(p));
    outBound_.reserve(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p)
        outBound_.push_back(
            rowMin(edge_[static_cast<std::size_t>(kindOf(p))]));
    arbIn_.resize(partitions);
    globalIn_.resize(partitions + 1);
    globalSeq_.assign(partitions + 1, 0);
    sim_.setParallel(this);
}

ParallelSim::~ParallelSim()
{
    sim_.setParallel(nullptr);
}

std::uint32_t
ParallelSim::sourceLane() const
{
    std::uint32_t current = currentPartition();
    return current == kNoPartition ? partitions() : current;
}

void
ParallelSim::postArbitrated(Arbiter& arbiter, unsigned channel,
                            std::uint32_t dst, DeliverFn fn)
{
    std::uint32_t src = currentPartition();
    FAMSIM_ASSERT(src != kNoPartition,
                  "arbitrated post from outside a partition");
    FAMSIM_ASSERT(dst < partitions(), "post to unknown partition ", dst);
    FAMSIM_ASSERT(lookaheadBetween(src, dst) != kNever,
                  "arbitrated send on the edgeless partition pair ", src,
                  " -> ", dst);
    Tick sent = parts_[src]->queue().curTick();
    arbIn_[src].push_back(
        ArbSend{sent, dst, channel, &arbiter, std::move(fn)});
}

void
ParallelSim::arbitrate()
{
    arbScratch_.clear();
    for (std::uint32_t src = 0; src < arbIn_.size(); ++src) {
        const auto& sends = arbIn_[src];
        for (std::uint32_t i = 0; i < sends.size(); ++i)
            arbScratch_.push_back({{sends[i].sent, src}, i});
    }
    // Merged (sent, srcPartition, seq) order across every source and
    // destination: the arbiters' shared state is touched by exactly
    // one thread (the coordinator), deterministically. Arbiters only
    // return ticks, so nothing can append to the lanes meanwhile.
    std::sort(arbScratch_.begin(), arbScratch_.end());
    for (const auto& [key, idx] : arbScratch_) {
        const std::uint32_t src = key.second;
        ArbSend& send = arbIn_[src][idx];
        const Tick when = send.arbiter->arbitrate(send.channel, send.sent);
        const Tick earliest = SyncWindow::satAdd(
            send.sent, lookaheadBetween(src, send.dst));
        FAMSIM_ASSERT(when >= earliest, "arbitrated delivery at ", when,
                      " undercuts the ", src, " -> ", send.dst,
                      " edge lookahead (sent at ", send.sent, ")");
        parts_[send.dst]->deliver(when, std::move(send.fn));
    }
    for (auto& sends : arbIn_)
        sends.clear();
}

void
ParallelSim::postGlobal(Tick due, std::function<void()> fn)
{
    std::uint32_t lane = sourceLane();
    if (lane < partitions()) {
        FAMSIM_ASSERT(due >= parts_[lane]->queue().curTick(),
                      "global op due in the past");
    }
    globalIn_[lane].push_back(
        GlobalOp{due, lane, globalSeq_[lane]++, std::move(fn)});
}

void
ParallelSim::collectGlobalOps()
{
    bool added = false;
    for (auto& lane : globalIn_) {
        if (lane.empty())
            continue;
        added = true;
        pendingGlobal_.insert(pendingGlobal_.end(),
                              std::make_move_iterator(lane.begin()),
                              std::make_move_iterator(lane.end()));
        lane.clear();
    }
    if (added) {
        std::sort(pendingGlobal_.begin(), pendingGlobal_.end(),
                  [](const GlobalOp& a, const GlobalOp& b) {
                      if (a.due != b.due)
                          return a.due < b.due;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
    }
}

void
ParallelSim::runGlobalOpsThrough(Tick start)
{
    if (pendingGlobal_.empty() || pendingGlobal_.front().due > start)
        return;
    // Barrier ops run with the broker partition as scheduling context:
    // system-level bookkeeping belongs there, and the workers are
    // quiescent so touching any partition's state is safe.
    std::size_t taken = 0;
    {
        Scope scope(*this, brokerPartition(), check::Phase::Barrier);
        while (taken < pendingGlobal_.size() &&
               pendingGlobal_[taken].due <= start) {
            auto fn = std::move(pendingGlobal_[taken].fn);
            ++taken;
            fn();
        }
    }
    pendingGlobal_.erase(pendingGlobal_.begin(),
                         pendingGlobal_.begin() +
                             static_cast<std::ptrdiff_t>(taken));
}

SyncWindow::Bounds
ParallelSim::windowBounds() const
{
    // One pass over the partitions computes both the window anchor
    // (the global minimum pending tick) and the adaptive end (the
    // earliest cross-partition commitment: a partition's earliest
    // pending event plus its smallest outgoing edge; partitions that
    // never send place no bound at all, their events drain in
    // whatever window covers them). The per-partition scans read each
    // queue's next tick and its inbox minimum (this barrier's
    // arbitrated deliveries) — the arbitration lanes are empty here,
    // arbitrate() ran right before.
    Tick next = EventQueue::kForever;
    Tick horizon = SyncWindow::kTickMax;
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
        Tick mp = parts_[p]->minPendingTick();
        if (mp == EventQueue::kForever)
            continue;
        next = std::min(next, mp);
        horizon = std::min(horizon, SyncWindow::satAdd(mp, outBound_[p]));
    }
    // pendingGlobal_ is sorted by (due, src, seq), so its minimum is
    // the first element.
    if (!pendingGlobal_.empty())
        next = std::min(next, pendingGlobal_.front().due);
    if (next == EventQueue::kForever)
        return SyncWindow::Bounds{next, SyncWindow::kTickMax};
    // Global ops (sorted by due, so ops due <= next form a prefix —
    // and, fault dues being conservative, every such due is `next`
    // itself or a stale must-not-schedule warmup mark): a prefix op
    // runs at this barrier and may schedule events from `next` onward
    // on any partition, committing no earlier than next + the
    // smallest edge anywhere. The first op due *after* the start caps
    // the window so it runs exactly at its own barrier, never
    // mid-window — readers of the state it mutates stay causally
    // ordered.
    if (!pendingGlobal_.empty() && pendingGlobal_.front().due <= next) {
        horizon = std::min(horizon,
                           SyncWindow::satAdd(next, window_.lookahead()));
    }
    for (const GlobalOp& op : pendingGlobal_) {
        if (op.due > next) {
            horizon = std::min(horizon, op.due);
            break;
        }
    }
    FAMSIM_ASSERT(horizon > next, "no commit horizon past the window "
                                  "start");
    return SyncWindow::Bounds{next, horizon};
}

std::uint64_t
ParallelSim::run()
{
    // Observability hooks, hoisted out of the loop: both resolve to
    // null pointers in the (near-universal) untraced/unprofiled case,
    // so the per-window cost when off is a handful of predictable
    // branches.
    TraceSink* trace = sim_.trace();
    if (trace && !trace->wants(TraceSink::kPsim))
        trace = nullptr;
    Profiler* prof = sim_.profiler();
    if (prof)
        prof->setPartitions(partitions());
    // Last emitted per-partition cumulative executed count, so the
    // counter track only gets a point when the value moved.
    std::vector<std::uint64_t> executedSeen;
    if (trace)
        executedSeen.assign(parts_.size(), 0);

    for (;;) {
        Profiler::Timer coord;
        collectGlobalOps();
        // Arbitrate all queued fabric sends first: the deliveries land
        // in their destination inboxes, so the window scan below sees
        // real delivery ticks instead of conservative floors.
        arbitrate();
        SyncWindow::Bounds bounds = windowBounds();
        if (bounds.start == EventQueue::kForever) {
            if (prof)
                prof->addCoordinator(coord.seconds());
            break;
        }
        auto [start, end] = window_.open(bounds.start, bounds.end);
        runGlobalOpsThrough(start);
        if (prof)
            prof->addCoordinator(coord.seconds());
        if (trace) {
            // One span per window on the broker lane (the
            // coordinator's home); arg = 1 when the adaptive horizon
            // widened past the base lookahead.
            const bool widened =
                end > SyncWindow::satAdd(start, window_.lookahead());
            trace->span(TraceSink::kPsim, brokerPartition(),
                        "psim.window", start, end, widened ? 1 : 0);
        }
        // One epoch per window: each task flushes its partition's
        // inbox, then executes the window. The coordinator, the only
        // inbox producer, waits at the barrier meanwhile, so a flush
        // never races an append; and a partition's execution only
        // reaches other partitions through postArbitrated/postGlobal,
        // which the next barrier consumes.
        pool_.runEpoch(parts_.size(), [&](std::size_t p) {
            const auto part = static_cast<std::uint32_t>(p);
            {
                Scope scope(*this, part, check::Phase::Drain);
                std::uint64_t drained;
                if (prof) {
                    Profiler::Timer t;
                    drained = parts_[p]->flushInbox();
                    prof->addDrain(part, t.seconds());
                } else {
                    drained = parts_[p]->flushInbox();
                }
                // Partition-exclusive lane: only this worker, this
                // epoch.
                if (trace && drained > 0) {
                    trace->counter(TraceSink::kPsim, part,
                                   "psim.drained", start, drained);
                }
            }
            Scope scope(*this, part, check::Phase::Exec);
            if (prof) {
                Profiler::Timer t;
                parts_[p]->queue().run(end - 1);
                prof->addExec(part, t.seconds());
            } else {
                parts_[p]->queue().run(end - 1);
            }
            if (trace) {
                const std::uint64_t total = parts_[p]->queue().executed();
                if (total > executedSeen[p]) {
                    trace->counter(TraceSink::kPsim, part,
                                   "psim.executed", end - 1, total);
                    executedSeen[p] = total;
                }
            }
        });
    }
    std::uint64_t executed = 0;
    for (const auto& part : parts_)
        executed += part->queue().executed();
    return executed;
}

} // namespace famsim
