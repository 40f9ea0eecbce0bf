/**
 * @file
 * Node-side hardware page-table walker (the Samba MMU's walk engine).
 *
 * On a TLB miss the walker reads the node page table level by level.
 * Each step is a real memory access sent into the cache hierarchy —
 * and since ~80 % of page-table pages live in the FAM zone, walk steps
 * routinely become FAM traffic (this is the second-order effect that
 * makes I-FAM collapse: node PTW steps themselves need system-level
 * translation, up to 24 accesses end to end, §I).
 *
 * A 32-entry PTW cache [8] lets walks skip upper levels.
 */

#ifndef FAMSIM_VM_WALKER_HH
#define FAMSIM_VM_WALKER_HH

#include <cstdint>
#include <optional>
#include <string>

#include "mem/mem_sink.hh"
#include "sim/inline_function.hh"
#include "sim/simulation.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace famsim {

/** Asynchronous walker over a node page table. */
class NodePtWalker : public Component
{
  public:
    using Leaf = HierarchicalPageTable::Leaf;
    using DoneFn = InlineFunction<void(std::optional<Leaf>), 16>;

    NodePtWalker(Simulation& sim, const std::string& name,
                 HierarchicalPageTable& table, PtwCache& ptw_cache,
                 MemSink& mem, NodeId node, CoreId core);

    /**
     * Walk the table for @p va_page. Steps are issued serially through
     * the memory hierarchy; @p done receives the leaf (or nullopt for
     * an unmapped page, i.e. a page fault).
     */
    void walk(std::uint64_t va_page, DoneFn done);

  private:
    void step(std::uint64_t va_page,
              HierarchicalPageTable::StepList steps,
              std::size_t index, DoneFn done);

    HierarchicalPageTable& table_;
    PtwCache& ptwCache_;
    MemSink& mem_;
    NodeId node_;
    CoreId core_;

    Counter& walks_;
    Counter& steps_;
    Counter& faults_;
};

} // namespace famsim

#endif // FAMSIM_VM_WALKER_HH
