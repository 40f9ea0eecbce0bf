/**
 * @file
 * Shared-pages example (§III-A, §VI "Shared Pages").
 *
 * Two nodes share a 1 GB region in the FAM with *mixed* permissions:
 * node 0 may read and write, node 1 may only read. The example drives
 * accesses through the STU and shows the bitmap checks doing their
 * job: node 0's writes succeed, node 1's reads succeed, node 1's
 * writes are denied, and an unrelated node 2 is denied entirely.
 */

#include <iostream>

#include "arch/system.hh"

using namespace famsim;

namespace {

/** Send one access through a node's STU and report the verdict. */
bool
tryAccess(System& system, unsigned node, std::uint64_t npa_page,
          MemOp op)
{
    bool granted = false;
    auto pkt = makePacket(static_cast<NodeId>(node), 0, op,
                          PacketKind::Data);
    pkt->logicalNode =
        system.broker().logicalIdOf(static_cast<NodeId>(node));
    pkt->npa = NPAddr(npa_page * kPageSize);
    pkt->onDone = [&](Packet& p) { granted = p.accessGranted; };
    system.node(node).stu->handleFromNode(std::move(pkt));
    system.sim().run();
    return granted;
}

} // namespace

int
main()
{
    ScopedQuietLogs quiet;

    SystemConfig config;
    config.arch = ArchKind::IFam; // bitmap checks exist in I-FAM too
    config.nodes = 3;
    config.coresPerNode = 1;
    config.prefault = false;
    System system(config);

    // The broker reserves a shared 1 GB region: node 0 gets RW,
    // node 1 read-only; node 2 gets nothing.
    std::uint64_t region = system.broker().createSharedRegion(
        {{0, Perms{true, true, false}}, {1, Perms{true, false, false}}});
    std::cout << "shared 1 GB region index: " << region << "\n";

    // Node 0 maps a page of it at NPA page 0x100000; node 1 attaches
    // the same FAM page at its own NPA page 0x200000.
    std::uint64_t fam_page =
        system.broker().mapSharedPage(region, 0, 0x100000);
    system.broker().attachSharedPage(fam_page, 1, 0x200000);
    // Node 2 even *maps* it (e.g. via a malicious broker request
    // replay) — the bitmap still denies it.
    system.broker().attachSharedPage(fam_page, 2, 0x300000);

    std::cout << "shared FAM page: " << fam_page << " (ACM owner bits = "
              << system.acm().get(fam_page).owner << " = shared marker "
              << system.acm().sharedMarker() << ")\n\n";

    struct Case {
        const char* what;
        unsigned node;
        std::uint64_t npa_page;
        MemOp op;
        bool expect;
    } cases[] = {
        {"node0 write (RW grant)   ", 0, 0x100000, MemOp::Write, true},
        {"node0 read  (RW grant)   ", 0, 0x100000, MemOp::Read, true},
        {"node1 read  (RO grant)   ", 1, 0x200000, MemOp::Read, true},
        {"node1 write (RO grant)   ", 1, 0x200000, MemOp::Write, false},
        {"node2 read  (no grant)   ", 2, 0x300000, MemOp::Read, false},
        {"node2 write (no grant)   ", 2, 0x300000, MemOp::Write, false},
    };

    bool all_ok = true;
    for (const auto& c : cases) {
        bool granted = tryAccess(system, c.node, c.npa_page, c.op);
        bool ok = granted == c.expect;
        all_ok = all_ok && ok;
        std::cout << c.what << (granted ? "GRANTED" : "DENIED ")
                  << (ok ? "  [as expected]" : "  [UNEXPECTED!]")
                  << "\n";
    }

    std::cout << "\nbitmap fetches at STU (node1): "
              << system.sim().stats().get("node1.stu.bitmap_fetches")
              << "\n";
    std::cout << (all_ok ? "all access-control checks behaved correctly"
                         : "ACCESS CONTROL VIOLATION")
              << "\n";
    return all_ok ? 0 : 1;
}
