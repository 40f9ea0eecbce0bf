/**
 * @file
 * SyncWindow — conservative-window bookkeeping for the parallel
 * kernel.
 *
 * The kernel advances in windows. The classic scheme uses a fixed
 * width: the smallest latency any cross-partition interaction can have
 * (the fabric's one-way latency for request/response traffic, the
 * broker's fault service latency for system-level faults). A partition
 * executing events in [start, start + lookahead) can only generate
 * cross-partition work at or after start + lookahead, i.e. in a later
 * window — so all partitions can execute one window concurrently with
 * no locks, and cross-partition messages only need delivering at the
 * window barriers (the classic null-message-free windowed conservative
 * PDES scheme).
 *
 * Since the sharded-partition kernel, windows are *adaptive*: the
 * coordinator computes the earliest cross-partition commitment any
 * partition can make — min over partitions p of (earliest pending tick
 * of p + p's smallest outgoing edge lookahead) — and passes it to
 * open() as the window end. When the partitions that would close the
 * window soonest are idle, the window widens toward the next real
 * commitment instead of stepping one lookahead at a time, cutting the
 * barrier count on idle channels. Windows are anchored at the global
 * minimum pending tick, so fully idle stretches of simulated time are
 * still skipped in one hop.
 *
 * Arithmetic near the Tick horizon saturates: next_pending + lookahead
 * must never wrap (a wrapped end would open a backwards window), so
 * satAdd() clamps at the maximum representable tick.
 */

#ifndef FAMSIM_PSIM_SYNC_WINDOW_HH
#define FAMSIM_PSIM_SYNC_WINDOW_HH

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

    /** Windows that opened wider than the base lookahead (adaptive). */
    [[nodiscard]] std::uint64_t widened() const { return widened_; }

    /** Half-open tick range of one window. */
    struct Bounds {
        Tick start;
        Tick end; //!< exclusive
    };

    /**
     * Open the next window at the global minimum pending tick
     * @p next_pending, with the fixed base width (saturated at the
     * tick horizon), and bump the epoch. Windows never move backwards.
     */
    [[nodiscard]] Bounds
    open(Tick next_pending)
    {
        return open(next_pending, satAdd(next_pending, lookahead_));
    }

    /**
     * Open the next window as [next_pending, commit_horizon), where
     * @p commit_horizon is the earliest tick at which any partition
     * could commit cross-partition work (already saturated by the
     * caller via satAdd). Must be strictly after @p next_pending.
     */
    [[nodiscard]] Bounds
    open(Tick next_pending, Tick commit_horizon)
    {
        FAMSIM_ASSERT(next_pending >= current_.start,
                      "window moved backwards: ", next_pending, " < ",
                      current_.start);
        FAMSIM_ASSERT(commit_horizon > next_pending,
                      "empty window: end ", commit_horizon,
                      " <= start ", next_pending);
        ++epoch_;
        if (commit_horizon > satAdd(next_pending, lookahead_))
            ++widened_;
        current_ = Bounds{next_pending, commit_horizon};
        return current_;
    }

    /** Bounds of the most recently opened window. */
    [[nodiscard]] const Bounds& current() const { return current_; }

  private:
    Tick lookahead_;
    std::uint64_t epoch_ = 0;
    std::uint64_t widened_ = 0;
    Bounds current_{0, 0};
};

} // namespace famsim

#endif // FAMSIM_PSIM_SYNC_WINDOW_HH
