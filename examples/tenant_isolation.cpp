/**
 * @file
 * Multi-tenant isolation example (§II-A threat model).
 *
 * Node 1 is "malicious": its (buggy or compromised) OS maps arbitrary
 * FAM pages — including node 0's data — into its own address space,
 * and its FAM translator even presents pre-translated, V=1 requests.
 * The example shows that system-level verification at the STU denies
 * every such access in both I-FAM and DeACT, while node 0's own
 * accesses keep working: exactly the Table I security column.
 */

#include <iostream>

#include "arch/system.hh"

using namespace famsim;

namespace {

struct Attempt {
    const char* what;
    bool granted;
};

bool
sendRaw(System& system, unsigned node, std::uint64_t fam_page,
        bool verified, std::uint64_t npa_page, MemOp op)
{
    bool granted = false;
    auto pkt = makePacket(static_cast<NodeId>(node), 0, op,
                          PacketKind::Data);
    pkt->logicalNode =
        system.broker().logicalIdOf(static_cast<NodeId>(node));
    pkt->npa = NPAddr(npa_page * kPageSize);
    if (verified) {
        // Forged "already translated" request (DeACT V flag set).
        pkt->fam = FamAddr(fam_page * kPageSize);
        pkt->hasFam = true;
        pkt->verified = true;
    }
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

    for (ArchKind arch : {ArchKind::IFam, ArchKind::DeactN}) {
        SystemConfig config;
        config.arch = arch;
        config.nodes = 2;
        config.coresPerNode = 1;
        config.prefault = false;
        System system(config);
        auto& broker = system.broker();

        // Victim data: a page owned by node 0.
        std::uint64_t victim_fam =
            broker.allocPage(broker.logicalIdOf(0), Perms{});
        broker.famTableOf(0).map(0x100000, victim_fam, Perms{});

        // Attack 1: node 1's OS maps the victim page into its own
        // system-level table (a compromised mapping).
        broker.famTableOf(1).map(0x200000, victim_fam, Perms{});

        std::cout << "=== " << toString(arch) << " ===\n";

        Attempt attempts[] = {
            {"victim reads own page        ",
             sendRaw(system, 0, victim_fam, arch != ArchKind::IFam,
                     0x100000, MemOp::Read)},
            {"attacker read via mapping    ",
             sendRaw(system, 1, victim_fam, false, 0x200000,
                     MemOp::Read)},
            {"attacker write via mapping   ",
             sendRaw(system, 1, victim_fam, false, 0x200000,
                     MemOp::Write)},
        };
        bool forged_granted = false;
        if (arch == ArchKind::DeactN) {
            // Attack 2 (DeACT only): forge a V=1 packet with the
            // victim's FAM address — unverified caching must not
            // bypass access control.
            forged_granted = sendRaw(system, 1, victim_fam, true,
                                     0x200000, MemOp::Read);
        }

        bool ok = attempts[0].granted && !attempts[1].granted &&
                  !attempts[2].granted && !forged_granted;
        for (const auto& a : attempts) {
            std::cout << "  " << a.what
                      << (a.granted ? "GRANTED" : "DENIED") << "\n";
        }
        if (arch == ArchKind::DeactN) {
            std::cout << "  attacker forged V=1 request  "
                      << (forged_granted ? "GRANTED" : "DENIED") << "\n";
        }
        std::cout << "  denials recorded at attacker STU: "
                  << system.sim().stats().get("node1.stu.denials")
                  << "\n";
        std::cout << (ok ? "  isolation holds\n"
                         : "  ISOLATION VIOLATED\n");
        if (!ok)
            return 1;
    }

    std::cout << "\nE-FAM, by contrast, performs no system-level "
                 "vetting: the same compromised mapping would reach "
                 "the victim's data (Table I: E-FAM insecure).\n";
    return 0;
}
