/**
 * @file
 * Host-independent cost gates: heap allocations on the datapath, and
 * schedules that miss the event queue's timing wheel.
 *
 * This binary replaces the global operator new/delete with a counting
 * pair, armed only around System::run, so construction, stats export
 * and GoogleTest's own bookkeeping stay out of the count. On the serial
 * kernel the count is exact for a given toolchain: it does not depend
 * on the host or its load. On the partitioned kernel every worker's
 * allocations count, and the total moves by a few per 1k instructions
 * with which worker runs which partition (a packet freed on another
 * worker refills that worker's pool, not its allocator's).
 *
 * Packets move hop to hop, MSHR waiters chain through the packets
 * they own, completion chains stack in the packet, flat-map erases
 * leave no tombstone to rehash away and a psim window hands its task
 * to the workers by reference, so a simulated access needs no heap
 * block. What remains on the serial kernel is growth to a high-water
 * mark (pooled packets, event slots, MSHR tables), and its gate sits
 * about twice above the highest row; the partitioned kernel's is
 * looser because its packets still migrate between workers' pools.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "arch/system.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

void*
countedAlloc(std::size_t size)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* ptr = std::malloc(size == 0 ? 1 : size))
        return ptr;
    throw std::bad_alloc();
}

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (void* ptr = std::aligned_alloc(alignment,
                                       rounded == 0 ? alignment : rounded))
        return ptr;
    throw std::bad_alloc();
}

} // namespace

// The nothrow forms forward to these in libstdc++, so they count too.
void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void
operator delete[](void* ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void* ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace famsim {
namespace {

struct DatapathRun {
    const char* scenario;
    unsigned threads;
    /** Ceiling on operator-new calls per 1,000 instructions. */
    double maxPerKiloInstruction;
};

/** A registered scenario or sweep point. */
const Scenario&
scenarioByName(const char* name)
{
    const ScenarioRegistry& paper = ScenarioRegistry::paper();
    return paper.has(name) ? paper.byName(name)
                           : SweepRegistry::paperPoints().byName(name);
}

/** @return operator-new calls per 1,000 instructions of one run. */
double
allocationsPerKiloInstruction(const DatapathRun& run)
{
    const Scenario& scenario = scenarioByName(run.scenario);
    System system(scenario.config);
    gAllocations.store(0);
    gCounting.store(true);
    system.run(run.threads);
    gCounting.store(false);

    std::uint64_t instructions = 0;
    for (unsigned n = 0; n < scenario.config.nodes; ++n) {
        for (auto& core : system.node(n).cores)
            instructions += core.core->instructionsRetired();
    }
    EXPECT_GT(instructions, 0u);
    const std::uint64_t allocations = gAllocations.load();
    const double per_kinstr =
        instructions == 0 ? 0.0
                          : static_cast<double>(allocations) * 1000.0 /
                                static_cast<double>(instructions);
    std::printf("%-30s threads %u: %llu allocations in %llu "
                "instructions, %.2f per 1k\n",
                run.scenario, run.threads,
                static_cast<unsigned long long>(allocations),
                static_cast<unsigned long long>(instructions), per_kinstr);
    return per_kinstr;
}

TEST(Datapath, HeapAllocationsPerKiloInstruction)
{
    // The four Fig. 12 architectures on the serial kernel, and a
    // 4-node run on the partitioned kernel, whose packets cross
    // partitions (and worker threads) at every fabric hop.
    const DatapathRun runs[] = {
        {"fig12_performance.mcf.efam", 0, 1.0},
        {"fig12_performance.mcf.ifam", 0, 1.0},
        {"fig12_performance.mcf.deactw", 0, 1.0},
        {"fig12_performance.mcf.deactn", 0, 1.0},
        {"fig16_num_nodes.n4", 2, 100.0},
    };
    for (const DatapathRun& run : runs) {
        EXPECT_LE(allocationsPerKiloInstruction(run),
                  run.maxPerKiloInstruction)
            << run.scenario << " at threads " << run.threads;
    }
}

TEST(Datapath, NearFutureEventsStayInTheWheel)
{
    // The event queue files an event more than EventQueue::kHorizon
    // ahead in its heap, which costs a sift on the way in and out.
    // Every latency on fig12 mcf DeACT-N's datapath is far shorter, so
    // none of its schedules may go there: a latency or horizon change
    // that sends the hot path back to the heap fails here without
    // reading a clock. fig15's 3 us fabric hops are past the horizon by
    // design, so that row is only reported.
    struct Row {
        const char* scenario;
        bool gated;
    };
    const Row rows[] = {
        {"fig12_performance.mcf.deactn", true},
        {"fig15_fabric_latency.ns3000", false},
    };
    for (const Row& row : rows) {
        System system(scenarioByName(row.scenario).config);
        system.run(0);
        const EventQueue& queue = system.sim().serialEvents();
        // The serial run drains its queue, so every schedule executed.
        ASSERT_TRUE(queue.empty());
        ASSERT_GT(queue.executed(), 0u);
        std::printf("%-30s serial: %llu of %llu schedules past the "
                    "horizon, %.1f%%\n",
                    row.scenario,
                    static_cast<unsigned long long>(queue.pastHorizon()),
                    static_cast<unsigned long long>(queue.executed()),
                    100.0 * static_cast<double>(queue.pastHorizon()) /
                        static_cast<double>(queue.executed()));
        if (row.gated) {
            EXPECT_EQ(queue.pastHorizon(), 0u) << row.scenario;
        }
    }
}

} // namespace
} // namespace famsim
