/**
 * @file
 * SyncWindow — conservative-window bookkeeping for the parallel
 * kernel.
 *
 * The kernel advances in fixed-width windows: the classic
 * null-message-free windowed conservative PDES scheme. The width is
 * the base lookahead, the smallest latency any cross-partition
 * interaction can have (the smallest edge of the per-edge lookahead
 * matrix: the fabric's one-way latency for request/response traffic,
 * or the broker's fault service latency for system-level faults). A
 * partition executing events in [start, start + lookahead) can only
 * generate cross-partition work at or after start + lookahead, i.e. in
 * a later window, whichever edge it takes — so all partitions can
 * execute one window concurrently with no locks, and cross-partition
 * messages only need delivering at the window barriers.
 *
 * A window opens at the global minimum pending tick, so fully idle
 * stretches of simulated time are skipped in one hop. It may be cut
 * short by a cap (the kernel passes the due tick of the next global
 * barrier op, which must run at its own barrier), never widened.
 *
 * Arithmetic near the Tick horizon saturates: next_pending + lookahead
 * must never wrap (a wrapped end would open a backwards window), so
 * satAdd() clamps at the maximum representable tick.
 */

#ifndef FAMSIM_PSIM_SYNC_WINDOW_HH
#define FAMSIM_PSIM_SYNC_WINDOW_HH

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace famsim {

/** Window/epoch bookkeeping for the conservative kernel. */
class SyncWindow
{
  public:
    /** The largest representable tick (saturation ceiling). */
    static constexpr Tick kTickMax = kTickForever;

    explicit SyncWindow(Tick lookahead) : lookahead_(lookahead)
    {
        FAMSIM_ASSERT(lookahead > 0,
                      "conservative window needs positive lookahead");
    }

    /** Saturating tick addition: clamps at kTickMax instead of wrapping. */
    [[nodiscard]] static constexpr Tick
    satAdd(Tick a, Tick b)
    {
        return a > kTickMax - b ? kTickMax : a + b;
    }

    /** The base (smallest cross-partition edge) lookahead. */
    [[nodiscard]] Tick lookahead() const { return lookahead_; }

    /** Completed windows so far (the epoch counter). */
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

    /** Half-open tick range of one window. */
    struct Bounds {
        Tick start;
        Tick end; //!< exclusive
    };

    /**
     * Open the next window at the global minimum pending tick
     * @p next_pending and bump the epoch. The window is one base
     * lookahead wide (saturated at the tick horizon), cut short at
     * @p cap when that comes first. Windows never move backwards, and
     * a window must not be empty.
     */
    [[nodiscard]] Bounds
    open(Tick next_pending, Tick cap = kTickMax)
    {
        FAMSIM_ASSERT(next_pending >= start_, "window moved backwards: ",
                      next_pending, " < ", start_);
        const Tick end = std::min(satAdd(next_pending, lookahead_), cap);
        FAMSIM_ASSERT(end > next_pending, "empty window: end ", end,
                      " <= start ", next_pending);
        ++epoch_;
        start_ = next_pending;
        return Bounds{next_pending, end};
    }

  private:
    Tick lookahead_;
    std::uint64_t epoch_ = 0;
    Tick start_ = 0; //!< start of the most recently opened window
};

} // namespace famsim

#endif // FAMSIM_PSIM_SYNC_WINDOW_HH
