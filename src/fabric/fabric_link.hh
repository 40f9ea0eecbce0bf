/**
 * @file
 * Memory-semantic fabric model (Gen-Z/CXL-style).
 *
 * The fabric is modelled as a full-duplex channel pair with a one-way
 * propagation latency (Table II: 500 ns end to end; we default the
 * STU->FAM segment to 450 ns with 50 ns for the node->STU hop) and a
 * per-packet serialization time that produces contention when several
 * nodes share the fabric (Fig. 16).
 *
 * The fabric is also the parallel kernel's partition boundary
 * (src/psim/): requests travel from a node partition to the partition
 * of the FAM media module that owns the target address, and responses
 * back, each with at least the one-way latency — the node<->media
 * edge of the kernel's lookahead matrix. Under a bound ParallelSim,
 * both channels' serialization state spans every media partition, so
 * *all* sends become arbitrated posts: the kernel merges them in
 * deterministic (sendTick, srcPartition, seq) order and, at the window
 * barrier, single-threaded, calls this link's Arbiter::arbitrate with
 * the sender's tick. That accounts the packet on its channel
 * (channelFree, packets, queueing_ns) and returns the delivery tick;
 * the kernel queues the continuation in the destination partition's
 * inbox, and the destination's own worker schedules it. Serial mode
 * (no ParallelSim bound) is exactly the original single-queue
 * behavior.
 */

#ifndef FAMSIM_FABRIC_FABRIC_LINK_HH
#define FAMSIM_FABRIC_FABRIC_LINK_HH

#include <array>
#include <string>
#include <type_traits>
#include <utility>

#include "psim/mailbox.hh" // leaf header: Arbiter and DeliverFn only
#include "sim/simulation.hh"

namespace famsim {

/** Fabric timing parameters. */
struct FabricParams {
    /** One-way propagation latency. */
    Tick latency = 450 * kNanosecond;
    /** Channel occupancy per 64 B packet (bandwidth model). */
    Tick serialization = 2 * kNanosecond;
};

/** A shared, full-duplex fabric channel. */
class FabricLink : public Component, public Arbiter
{
  public:
    /** Direction of travel on the link. */
    enum Channel : unsigned { Request = 0, Response = 1 };

    FabricLink(Simulation& sim, const std::string& name,
               const FabricParams& params);

    /**
     * Transmit one request-packet-worth of data toward FAM media
     * module @p dst_module (the parallel kernel partition to deliver
     * into; ignored on the serial path); @p deliver runs when it
     * reaches the far end. Queueing delay due to serialization is
     * applied before propagation. Templated so big completion captures
     * go straight into the event queue's pooled slots instead of
     * through a type-erasing indirection on the serial path.
     */
    template <typename F>
    void
    sendRequest(unsigned dst_module, F&& deliver)
    {
        checkDeliver(deliver);
        if (!sim_.parallel()) {
            sim_.events().schedule(departure(Request),
                                   std::forward<F>(deliver));
            return;
        }
        // Request deliveries are small ([component, PktPtr] captures);
        // one heap allocation per fabric crossing would dominate the
        // inbox cost, so pin them to the inline payload budget.
        static_assert(sizeof(std::decay_t<F>) <= kMailboxInlineBytes,
                      "fabric request continuation no longer fits the "
                      "mailbox inline payload");
        postRequestParallel(dst_module,
                            makeDelivery(std::forward<F>(deliver)));
    }

    /**
     * Transmit one response-packet-worth of data toward compute node
     * @p dst_node (its parallel kernel partition; ignored on the
     * serial path). Response continuations may wrap whole completion
     * chains and are allowed to exceed the inline payload budget (one
     * heap block, as std::function always paid).
     */
    template <typename F>
    void
    sendResponse(NodeId dst_node, F&& deliver)
    {
        checkDeliver(deliver);
        if (!sim_.parallel()) {
            sim_.events().schedule(departure(Response),
                                   std::forward<F>(deliver));
            return;
        }
        postResponseParallel(dst_node,
                             makeDelivery(std::forward<F>(deliver)));
    }

    [[nodiscard]] Tick latency() const { return params_.latency; }
    [[nodiscard]] const FabricParams& params() const { return params_; }

  private:
    template <typename F>
    static void
    checkDeliver(const F& deliver)
    {
        if constexpr (std::is_constructible_v<bool, const F&>)
            FAMSIM_ASSERT(static_cast<bool>(deliver),
                          "fabric delivery callback must be non-null");
    }

    /**
     * Account one transmission departing at @p now; @return the
     * delivery tick.
     */
    [[nodiscard]] Tick departureAt(Channel channel, Tick now);

    /** Account one transmission departing now; @return delivery tick. */
    [[nodiscard]] Tick departure(Channel channel);

    /** Arbiter: departureAt() on behalf of the parallel kernel. */
    Tick arbitrate(unsigned channel, Tick sent) override;

    // Out-of-line parallel-kernel plumbing (fabric_link.cc), so this
    // header — and every component TU including it — stays independent
    // of the kernel proper (psim/mailbox.hh is a leaf payload-type
    // header): the kernel orchestrates the fabric, not the other way
    // around.

    /** Post @p fn to the kernel's arbitration lane, destination the
     *  partition of media module @p dst_module. */
    void postRequestParallel(unsigned dst_module, DeliverFn fn);

    /** Post @p fn to the kernel's arbitration lane, destination the
     *  partition of node @p dst_node. */
    void postResponseParallel(NodeId dst_node, DeliverFn fn);

    FabricParams params_;
    std::array<Tick, 2> channelFree_{0, 0};
    Counter& packets_;
    Histogram& queueing_;
};

} // namespace famsim

#endif // FAMSIM_FABRIC_FABRIC_LINK_HH
