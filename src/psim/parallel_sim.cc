#include "psim/parallel_sim.hh"

#include <algorithm>

#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

namespace famsim {

ParallelSim::ParallelSim(Simulation& sim, const Topology& topo,
                         unsigned threads)
    : sim_(sim),
      window_(std::min(topo.fabricLookahead, topo.brokerLookahead)),
      // More workers than partitions can never help: every worker
      // acknowledges every epoch, so the surplus would be pure
      // barrier overhead.
      pool_(std::max(1u, std::min(threads, sim.partitions().count())))
{
    FAMSIM_ASSERT(!sim_.partitions().empty(),
                  "the parallel kernel needs the simulation's partition "
                  "layout");
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
    FAMSIM_ASSERT(!sim_.parallel(),
                  "a parallel kernel is already bound to this simulation");
    const std::uint32_t partitions = sim_.partitions().count();
    parts_.reserve(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p)
        parts_.push_back(std::make_unique<NodeQueue>(p));
    arbIn_.resize(partitions);
    globalIn_.resize(partitions);
    globalSeq_.assign(partitions, 0);
    sim_.setParallel(this);
}

ParallelSim::~ParallelSim()
{
    sim_.setParallel(nullptr);
}

void
ParallelSim::postArbitrated(Arbiter& arbiter, unsigned channel,
                            std::uint32_t dst, DeliverFn fn)
{
    std::uint32_t src = currentPartition();
    FAMSIM_ASSERT(src != kNoPartition,
                  "arbitrated post from outside a partition");
    FAMSIM_ASSERT(dst < parts_.size(), "post to unknown partition ", dst);
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
ParallelSim::deliver(std::uint32_t dst, Tick when, DeliverFn fn)
{
    FAMSIM_ASSERT(dst < parts_.size(), "delivery to unknown partition ",
                  dst);
    parts_[dst]->deliver(when, std::move(fn));
}

void
ParallelSim::postGlobal(Tick due, std::function<void()> fn)
{
    const std::uint32_t src = currentPartition();
    FAMSIM_ASSERT(src != kNoPartition,
                  "global op posted from outside a partition");
    FAMSIM_ASSERT(due >= parts_[src]->queue().curTick(),
                  "global op due in the past");
    globalIn_[src].push_back(
        GlobalOp{due, src, globalSeq_[src]++, std::move(fn)});
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
        Scope scope(*this, sim_.partitions().broker(), check::Phase::Barrier);
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

Tick
ParallelSim::minPendingTick() const
{
    // Each partition's scan covers its queue and its inbox minimum
    // (this barrier's deliveries: arbitrate() ran right before, so the
    // arbitration lanes are empty). pendingGlobal_ is sorted by (due,
    // src, seq), so its minimum is the first element.
    Tick next = EventQueue::kForever;
    for (const auto& part : parts_)
        next = std::min(next, part->minPendingTick());
    if (!pendingGlobal_.empty())
        next = std::min(next, pendingGlobal_.front().due);
    return next;
}

Tick
ParallelSim::nextGlobalDueAfter(Tick start) const
{
    // Ops due at or before the start form a prefix (the list is sorted
    // by due) and run at this barrier; the first op due after it caps
    // the window so it runs exactly at its own barrier, never
    // mid-window — readers of the state it mutates stay causally
    // ordered.
    for (const GlobalOp& op : pendingGlobal_) {
        if (op.due > start)
            return op.due;
    }
    return SyncWindow::kTickMax;
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
        prof->setPartitions(static_cast<std::uint32_t>(parts_.size()));
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
        const Tick next = minPendingTick();
        if (next == EventQueue::kForever) {
            if (prof)
                prof->addCoordinator(coord.seconds());
            break;
        }
        auto [start, end] = window_.open(next, nextGlobalDueAfter(next));
        runGlobalOpsThrough(start);
        if (prof)
            prof->addCoordinator(coord.seconds());
        if (trace) {
            // One span per window on the broker lane (the
            // coordinator's home).
            trace->span(TraceSink::kPsim, sim_.partitions().broker(),
                        "psim.window", start, end);
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
