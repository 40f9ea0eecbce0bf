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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

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
class PktPtr;

/** One in-flight memory access. */
struct Packet {
    /**
     * Tracing id, unique per allocating thread only (the counters are
     * thread-local; ids can collide across parallel workers). Never
     * key simulated behavior or cross-thread maps on it.
     */
    std::uint64_t id = 0;
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
    friend class PktPtr;
    friend PktPtr makePacket(NodeId, CoreId, MemOp, PacketKind);

    // Declared here, in the padding after kind, so the count and the
    // hop depth share the header's cache line, which every hop reads.

    /** Hops pushed and not yet popped. */
    std::uint8_t hopCount_ = 0;

    /**
     * Intrusive reference count, relaxed-atomic. Handles move hop to
     * hop (DESIGN.md "Packet handoff"), so after creation the count
     * rises only for a response hop's self-reference. That
     * self-reference is taken on the media partition, which still
     * holds the handle the module finished with, and dies on the node
     * partition after the fabric response: two worker threads release
     * the same packet, so the count stays atomic. Increments are
     * relaxed (an increment always happens on a thread that already
     * owns a reference); the decrement that hits zero acquires, so
     * the recycling thread observes all prior releases.
     */
    std::atomic<std::uint32_t> refs_{0};

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
     * Base completion callback, run exactly once when the access ends,
     * after every hop above it. The issuer's continuation (a core, a
     * cache fill, a walker step) lives here inline.
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
     * chain costs no heap block. @p hop runs on complete() and carries
     * the chain on by calling p.complete() — at once, or from a later
     * event that holds its own handle to the packet. The capture must
     * be plain values that fit one 24-byte hop slot; a handle inside
     * it would keep the packet alive from its own stack.
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
        static_assert(std::is_invocable_r_v<void, const F&, Packet&>,
                      "a hop is invocable as void(Packet&)");
        if (hopCount_ == kMaxHops)
            FAMSIM_PANIC("completion chain deeper than ", kMaxHops,
                         " hops on packet ", id);
        Hop& slot = hops_[hopCount_++];
        ::new (static_cast<void*>(slot.capture)) F(hop);
        slot.run = [](const Hop& self, Packet& p) {
            (*std::launder(reinterpret_cast<const F*>(self.capture)))(p);
        };
    }

    /**
     * Continue the completion chain: pop and run the top hop, or, with
     * none left, invoke and clear onDone.
     */
    void
    complete()
    {
        if (hopCount_ != 0) {
            const Hop hop = hops_[--hopCount_];
            hop.run(hop, *this);
            return;
        }
        if (onDone) {
            auto cb = std::move(onDone);
            onDone = nullptr;
            cb(*this);
        }
    }

  private:
    /** One stacked completion hop: a thunk plus its plain capture. */
    struct Hop {
        static constexpr std::size_t kCaptureBytes = 24;
        void (*run)(const Hop&, Packet&) = nullptr;
        alignas(std::uint64_t) unsigned char capture[kCaptureBytes];
    };
    static_assert(sizeof(Hop) == 32, "a hop entry is 32 bytes");

    Hop hops_[kMaxHops];
};

namespace detail {
/** Return a zero-ref packet to the recycling pool (packet.cc). */
void recyclePacket(Packet* pkt) noexcept;
} // namespace detail

/**
 * Intrusive refcounted handle to a pooled Packet; when the last handle
 * dies the packet returns to the pool in packet.cc rather than to the
 * heap. The datapath passes handles by value and moves them hop to
 * hop, so a hand-off costs no atomic; copy one only for a real second
 * owner.
 */
class PktPtr
{
  public:
    PktPtr() = default;
    PktPtr(std::nullptr_t) {}

    /**
     * Take a new reference to @p pkt, which another handle keeps
     * alive: a running hop was handed the packet by reference and
     * must keep it past its return (the response path's
     * self-reference).
     */
    explicit PktPtr(Packet* pkt) : pkt_(pkt)
    {
        if (pkt_)
            pkt_->refs_.fetch_add(1, std::memory_order_relaxed);
    }

    PktPtr(const PktPtr& other) : pkt_(other.pkt_)
    {
        if (pkt_)
            pkt_->refs_.fetch_add(1, std::memory_order_relaxed);
    }

    PktPtr(PktPtr&& other) noexcept : pkt_(other.pkt_)
    {
        other.pkt_ = nullptr;
    }

    PktPtr&
    operator=(const PktPtr& other)
    {
        PktPtr copy(other);
        swap(copy);
        return *this;
    }

    PktPtr&
    operator=(PktPtr&& other) noexcept
    {
        if (this != &other) {
            release();
            pkt_ = other.pkt_;
            other.pkt_ = nullptr;
        }
        return *this;
    }

    PktPtr&
    operator=(std::nullptr_t)
    {
        release();
        return *this;
    }

    ~PktPtr() { release(); }

    void
    swap(PktPtr& other) noexcept
    {
        Packet* tmp = pkt_;
        pkt_ = other.pkt_;
        other.pkt_ = tmp;
    }

    void reset() { release(); }

    [[nodiscard]] Packet* get() const { return pkt_; }
    [[nodiscard]] Packet& operator*() const { return *pkt_; }
    [[nodiscard]] Packet* operator->() const { return pkt_; }
    [[nodiscard]] explicit operator bool() const { return pkt_ != nullptr; }

    friend bool
    operator==(const PktPtr& a, const PktPtr& b)
    {
        return a.pkt_ == b.pkt_;
    }
    friend bool
    operator==(const PktPtr& a, std::nullptr_t)
    {
        return a.pkt_ == nullptr;
    }

  private:
    friend PktPtr makePacket(NodeId, CoreId, MemOp, PacketKind);

    struct Fresh {};
    /** Adopt a pool-fresh packet: no other handle exists, so store. */
    PktPtr(Packet* pkt, Fresh) : pkt_(pkt)
    {
        pkt_->refs_.store(1, std::memory_order_relaxed);
    }

    void
    release()
    {
        if (pkt_ &&
            pkt_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            detail::recyclePacket(pkt_);
        pkt_ = nullptr;
    }

    Packet* pkt_ = nullptr;
};

/**
 * Packets waiting on one outstanding miss (an MSHR's waiter list), in
 * arrival order. The first waiter is held inline, so a miss nobody
 * merges into costs no heap block; only merged waiters spill into the
 * vector.
 */
class PktWaiters
{
  public:
    void
    push_back(PktPtr pkt)
    {
        if (!first_)
            first_ = std::move(pkt);
        else
            rest_.push_back(std::move(pkt));
    }

    [[nodiscard]] bool empty() const { return !first_; }
    [[nodiscard]] const PktPtr& front() const { return first_; }

    /** Call @p fn on each waiter's handle, in arrival order. */
    template <typename F>
    void
    forEach(F&& fn)
    {
        if (first_)
            fn(first_);
        for (PktPtr& pkt : rest_)
            fn(pkt);
    }

  private:
    PktPtr first_;
    std::vector<PktPtr> rest_;
};

/** Create a packet with a fresh id. */
PktPtr makePacket(NodeId node, CoreId core, MemOp op, PacketKind kind);

} // namespace famsim

#endif // FAMSIM_MEM_PACKET_HH
