#include "mem/packet.hh"

#include <vector>

#include "sim/check.hh"

namespace famsim {

namespace {

/** Cleared when the pool is torn down at thread exit, so any packet
 *  that outlives it is deleted instead of pushed into a dead vector. */
thread_local bool packetPoolAlive = false;

/**
 * Recycling pool for Packet objects. Packets are the highest-frequency
 * allocation in the simulator — one per cache fill, walk step,
 * writeback and FAM request — and they churn, so a free list serves
 * nearly every makePacket() without touching the heap. The pool is
 * thread-local: each parallel-kernel worker (src/psim/) recycles into
 * its own free list, so no locking is needed and the serial fast path
 * is unchanged. A packet released on a different thread than the one
 * that allocated it simply migrates pools.
 */
struct PacketPool {
    std::vector<Packet*> free;
    PacketPool() { packetPoolAlive = true; }
    ~PacketPool()
    {
        packetPoolAlive = false;
        for (Packet* pkt : free)
            delete pkt;
    }
};

PacketPool&
packetPool()
{
    thread_local PacketPool pool;
    return pool;
}

} // namespace

namespace detail {

void
recyclePacket(Packet* pkt) noexcept
{
    // A recycle during the drain phase means a merged message payload
    // was destroyed (or run) instead of moved — see check.hh.
    FAMSIM_CHECK_PACKET_POOL();
    // Clearing onDone first drops the handles its closure owns; those
    // may recycle further packets (the pool tolerates reentrant
    // pushes), as does dropping the waiter link of an MSHR list that
    // never drained. The remaining fields are reset in makePacket.
    pkt->onDone = nullptr;
    pkt->nextWaiter_.reset();
    if (!packetPoolAlive) {
        delete pkt;
        return;
    }
    try {
        packetPool().free.push_back(pkt);
    } catch (...) {
        delete pkt;
    }
}

} // namespace detail

const char*
toString(PacketKind kind)
{
    switch (kind) {
      case PacketKind::Data: return "Data";
      case PacketKind::NodePtw: return "NodePtw";
      case PacketKind::FamPtw: return "FamPtw";
      case PacketKind::Acm: return "Acm";
      case PacketKind::Bitmap: return "Bitmap";
      case PacketKind::Broker: return "Broker";
    }
    return "?";
}

PktPtr
makePacket(NodeId node, CoreId core, MemOp op, PacketKind kind)
{
    // An allocation during the drain phase means a merged message
    // payload executed simulation work — see check.hh.
    FAMSIM_CHECK_PACKET_POOL();
    auto& pool = packetPool().free;
    Packet* pkt;
    if (pool.empty()) {
        pkt = new Packet();
    } else {
        pkt = pool.back();
        pool.pop_back();
        // Reset to a freshly-constructed state (onDone was already
        // cleared on recycle).
        pkt->vaddr = VAddr{};
        pkt->npa = NPAddr{};
        pkt->fam = FamAddr{};
        pkt->hasFam = false;
        pkt->verified = false;
        pkt->accessGranted = false;
        pkt->writeback = false;
        pkt->issued = 0;
        pkt->tsStu = 0;
        pkt->tsFabricReq = 0;
        pkt->hopCount_ = 0;
    }
    pkt->node = node;
    pkt->logicalNode = node;
    pkt->core = core;
    pkt->job = 0;
    pkt->op = op;
    pkt->kind = kind;
    return PktPtr(pkt);
}

} // namespace famsim
