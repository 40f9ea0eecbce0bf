/**
 * @file
 * Memory request packets.
 *
 * A Packet represents one 64-byte memory access flowing through the
 * hierarchy. It carries all three address forms it may acquire along
 * the way (virtual, node-physical, FAM), the request kind used for the
 * paper's AT / non-AT accounting (Fig. 4, Fig. 11), and the DeACT 'V'
 * verification flag that tells the STU whether the node's FAM translator
 * already attached a FAM address (§III-C).
 */

#ifndef FAMSIM_MEM_PACKET_HH
#define FAMSIM_MEM_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace famsim {

/** Read/write direction of an access. */
enum class MemOp : std::uint8_t { Read, Write };

/**
 * What a packet is fetching. Everything except Data counts as an
 * address-translation (AT) request in the paper's breakdowns.
 */
enum class PacketKind : std::uint8_t {
    Data,     //!< Application data (non-AT).
    NodePtw,  //!< Node page-table walk step (VA -> NPA).
    FamPtw,   //!< System-level FAM page-table walk step (NPA -> FAM).
    Acm,      //!< Access-control-metadata fetch.
    Bitmap,   //!< Shared-page bitmap fetch.
    Broker,   //!< Memory-broker bookkeeping traffic (PT/ACM setup writes).
};

/** @return true if @p kind is address-translation traffic. */
[[nodiscard]] constexpr bool
isTranslationKind(PacketKind kind)
{
    return kind != PacketKind::Data;
}

/** @return a short printable name for a packet kind. */
[[nodiscard]] const char* toString(PacketKind kind);

struct Packet;

namespace detail {
/** Return an unowned packet to the recycling pool (packet.cc). */
void recyclePacket(Packet* pkt) noexcept;
} // namespace detail

/**
 * The one owner of a pooled Packet. Move-only: the datapath passes it
 * by value and moves it hop to hop, so a packet has exactly one owner
 * at any time, and that owner alone may touch it. When the owner dies
 * (or reset()s) the packet returns to the pool in packet.cc rather
 * than to the heap.
 */
class PktPtr
{
  public:
    PktPtr() = default;

    PktPtr(const PktPtr&) = delete;
    PktPtr& operator=(const PktPtr&) = delete;

    PktPtr(PktPtr&& other) noexcept : pkt_(std::exchange(other.pkt_, nullptr))
    {
    }

    PktPtr&
    operator=(PktPtr&& other) noexcept
    {
        if (this != &other) {
            reset();
            pkt_ = std::exchange(other.pkt_, nullptr);
        }
        return *this;
    }

    ~PktPtr() { reset(); }

    /** Recycle the packet now, if this handle owns one. */
    void
    reset()
    {
        if (Packet* pkt = std::exchange(pkt_, nullptr))
            detail::recyclePacket(pkt);
    }

    [[nodiscard]] Packet* get() const { return pkt_; }
    [[nodiscard]] Packet& operator*() const { return *pkt_; }
    [[nodiscard]] Packet* operator->() const { return pkt_; }
    [[nodiscard]] explicit operator bool() const { return pkt_ != nullptr; }

  private:
    friend PktPtr makePacket(NodeId, CoreId, MemOp, PacketKind);

    /** Adopt a pool-fresh packet (makePacket only). */
    explicit PktPtr(Packet* pkt) : pkt_(pkt) {}

    Packet* pkt_ = nullptr;
};

/**
 * Continue @p pkt's completion chain: pop the top hop and hand it the
 * handle, or, with no hop left, run onDone and recycle the packet
 * when it returns.
 */
inline void complete(PktPtr pkt);

/** One in-flight memory access. */
struct Packet {
    /** Physical node the request originates from. */
    NodeId node = 0;
    /** Logical node id used for access-control checks (migration). */
    NodeId logicalNode = 0;
    /** Core within the node (for per-core stats). */
    CoreId core = 0;
    /** Tenant job that generated this request (0 when single-tenant). */
    JobId job = 0;

    MemOp op = MemOp::Read;
    PacketKind kind = PacketKind::Data;

  private:
    friend void complete(PktPtr pkt);
    friend PktPtr makePacket(NodeId, CoreId, MemOp, PacketKind);

    /**
     * Hops pushed and not yet popped. Declared here, in the padding
     * after kind, so the hop depth shares the header's cache line,
     * which every hop reads.
     */
    std::uint8_t hopCount_ = 0;

  public:
    /** Virtual address (valid for core-issued requests). */
    VAddr vaddr{};
    /** Node physical address (valid after node-level translation). */
    NPAddr npa{};
    /** FAM address (valid once hasFam is set). */
    FamAddr fam{};
    /** Whether @c fam holds a meaningful translation. */
    bool hasFam = false;

    /**
     * DeACT 'V' flag: set by the FAM translator when the node-side
     * translation cache supplied the FAM address; the STU then only
     * verifies access control instead of walking the FAM page table.
     */
    bool verified = false;

    /** Set by the STU verification unit when access control passes. */
    bool accessGranted = false;

    /**
     * True for dirty-eviction writebacks: lower cache levels update in
     * place on a hit and forward on a miss, but never allocate or fill.
     */
    bool writeback = false;

    /** Tick the packet was created (for latency histograms). */
    Tick issued = 0;

    /**
     * Observability stage stamps (sim-time, deterministic): arrival at
     * the STU and hand-off to the fabric toward FAM. Stamped
     * unconditionally (a branch-free store is cheaper than a
     * well-predicted branch here) but only *read* when a TraceSink or
     * the observability histograms are attached — they feed the
     * per-stage latency breakdown and the packet-lifecycle trace
     * spans, never simulated behavior.
     */
    Tick tsStu = 0;
    Tick tsFabricReq = 0;

    /**
     * Base completion callback, run once when the access ends, after
     * every hop above it. The issuer's continuation (a core, a cache
     * fill, a walker step) lives here inline.
     */
    InlineFunction<void(Packet&)> onDone;

    /** Deepest completion chain a packet can carry above onDone. */
    static constexpr unsigned kMaxHops = 4;

    /** @return true if this packet is AT traffic. */
    [[nodiscard]] bool isTranslation() const
    {
        return isTranslationKind(kind);
    }

    [[nodiscard]] bool isWrite() const { return op == MemOp::Write; }

    /**
     * Stack a completion hop above onDone and every hop pushed before
     * it. A component on the way out (FAM translator, STU, E-FAM path,
     * media trace span) pushes itself instead of wrapping onDone, so a
     * chain costs no heap block. complete() hands @p hop the packet's
     * handle; the hop carries the chain on by passing it to
     * complete() — at once, or from a later event it moved the handle
     * into — and ends the chain by dropping it. The capture must be
     * plain values that fit one 24-byte hop slot.
     */
    template <typename F>
    void
    pushHop(F hop)
    {
        static_assert(std::is_trivially_copyable_v<F> &&
                          std::is_trivially_destructible_v<F>,
                      "a hop captures plain values only");
        static_assert(sizeof(F) <= Hop::kCaptureBytes &&
                          alignof(F) <= alignof(Hop),
                      "hop capture exceeds its slot");
        static_assert(std::is_invocable_r_v<void, const F&, PktPtr>,
                      "a hop is invocable as void(PktPtr)");
        if (hopCount_ == kMaxHops)
            FAMSIM_PANIC("completion chain deeper than ", kMaxHops,
                         " hops on a ", toString(kind), " packet of node ",
                         node, " core ", core);
        Hop& slot = hops_[hopCount_++];
        ::new (static_cast<void*>(slot.capture)) F(hop);
        slot.run = [](const Hop& self, PktPtr p) {
            (*std::launder(reinterpret_cast<const F*>(self.capture)))(
                std::move(p));
        };
    }

  private:
    friend class PktWaiters;

    /** One stacked completion hop: a thunk plus its plain capture. */
    struct Hop {
        static constexpr std::size_t kCaptureBytes = 24;
        void (*run)(const Hop&, PktPtr) = nullptr;
        alignas(std::uint64_t) unsigned char capture[kCaptureBytes];
    };
    static_assert(sizeof(Hop) == 32, "a hop entry is 32 bytes");

    Hop hops_[kMaxHops];

    friend void detail::recyclePacket(Packet* pkt) noexcept;

    /**
     * The waiter that arrived after this packet on the same MSHR, owned
     * by this packet while both wait (PktWaiters). A recycle drops it.
     */
    PktPtr nextWaiter_;
};

inline void
complete(PktPtr pkt)
{
    Packet& p = *pkt;
    if (p.hopCount_ != 0) {
        // Run a copy: the hop may push onto the slot it was popped from.
        const Packet::Hop hop = p.hops_[--p.hopCount_];
        hop.run(hop, std::move(pkt));
        return;
    }
    if (p.onDone)
        p.onDone(p);
}

/**
 * Packets waiting on one outstanding miss (an MSHR's waiter list), in
 * arrival order. The list is chained through the packets themselves:
 * each waiter owns the one that arrived after it, so a merge costs no
 * heap block however deep the list grows. A list dropped before it
 * drains releases its chain as its first packet recycles.
 */
class PktWaiters
{
  public:
    void
    push_back(PktPtr pkt)
    {
        Packet* const pkt_raw = pkt.get();
        if (!first_)
            first_ = std::move(pkt);
        else
            last_->nextWaiter_ = std::move(pkt);
        last_ = pkt_raw;
    }

    [[nodiscard]] bool empty() const { return !first_; }
    [[nodiscard]] const PktPtr& front() const { return first_; }

    /** Call @p fn on each waiter, in arrival order, leaving it queued. */
    template <typename F>
    void
    forEach(F&& fn) const
    {
        for (const Packet* pkt = first_.get(); pkt;
             pkt = pkt->nextWaiter_.get())
            fn(*pkt);
    }

    /**
     * Hand each waiter's handle to @p fn, in arrival order, unlinked
     * from the list before @p fn sees it; the list ends empty.
     */
    template <typename F>
    void
    drain(F&& fn)
    {
        PktPtr pkt = std::move(first_);
        last_ = nullptr;
        while (pkt) {
            PktPtr next = std::move(pkt->nextWaiter_);
            fn(std::move(pkt));
            pkt = std::move(next);
        }
    }

  private:
    PktPtr first_;
    /** The newest waiter, owned through the chain from first_; read
     *  only while first_ is set. */
    Packet* last_ = nullptr;
};

/** Take a packet from the pool, owned by the returned handle. */
PktPtr makePacket(NodeId node, CoreId core, MemOp op, PacketKind kind);

} // namespace famsim

#endif // FAMSIM_MEM_PACKET_HH
