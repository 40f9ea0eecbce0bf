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
 * The fabric is also a partition boundary: requests travel from a
 * node partition to the partition of the FAM media module that owns
 * the target address, and responses back, each with at least the
 * one-way latency (the node<->media edge of psim's lookahead matrix).
 * Every transmission is one Simulation::send with this link as the
 * Arbiter: arbitrate() accounts the packet on its channel
 * (channelFree, packets, queueing_ns) and returns the delivery tick.
 * The serial kernel calls it at the send; psim calls it at the next
 * window barrier, single-threaded, with the sender's tick, because
 * both channels' serialization state spans every media partition. The
 * link never asks which kernel runs it.
 */

#ifndef FAMSIM_FABRIC_FABRIC_LINK_HH
#define FAMSIM_FABRIC_FABRIC_LINK_HH

#include <array>
#include <string>
#include <type_traits>
#include <utility>

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
class FabricLink final : public Component, public Arbiter
{
  public:
    /** Direction of travel on the link. */
    enum Channel : unsigned { Request = 0, Response = 1 };

    FabricLink(Simulation& sim, const std::string& name,
               const FabricParams& params);

    /**
     * Transmit one request-packet-worth of data toward FAM media
     * module @p dst_module; @p deliver runs on the module's partition
     * when it reaches the far end. Queueing delay due to serialization
     * is applied before propagation. Templated so big completion
     * captures go straight into the event queue's pooled slots; like
     * responses, they must fit the mailbox payload (DeliverFn) or the
     * send does not compile.
     */
    template <typename F>
    void
    sendRequest(unsigned dst_module, F&& deliver)
    {
        checkDeliver(deliver);
        sim_.send(*this, Request, sim_.partitions().media(dst_module),
                  std::forward<F>(deliver));
    }

    /**
     * Transmit one response-packet-worth of data toward compute node
     * @p dst_node; @p deliver runs on the node's partition. Datapath
     * responses carry a packet handle or an STU continuation.
     */
    template <typename F>
    void
    sendResponse(NodeId dst_node, F&& deliver)
    {
        checkDeliver(deliver);
        sim_.send(*this, Response, sim_.partitions().node(dst_node),
                  std::forward<F>(deliver));
    }

    /**
     * Arbiter: account one transmission on @p channel that left its
     * source at @p sent; @return its delivery tick.
     */
    Tick arbitrate(unsigned channel, Tick sent) override;

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

    FabricParams params_;
    std::array<Tick, 2> channelFree_{0, 0};
    Counter& packets_;
    Histogram& queueing_;
};

} // namespace famsim

#endif // FAMSIM_FABRIC_FABRIC_LINK_HH
