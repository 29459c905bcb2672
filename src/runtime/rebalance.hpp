#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace stem::runtime {

/// Load attributed to one *definition group* — all definitions sharing an
/// event type id, the unit of migration (they share an instance sequence
/// counter, so splitting them renumbers the stream unless the merge
/// restores global numbering — see OrderingTier) — over the last
/// rebalance epoch. Cost units: arrivals routed to the group's
/// definitions + candidate bindings formed for them (epoch deltas of the
/// engines' per-definition counters) + entities currently buffered. A
/// split group contributes two entries (one per sub-group/host shard).
struct GroupLoad {
  std::uint32_t group = 0;  ///< runtime group index (ShardedEngineRuntime::group_of)
  std::uint32_t shard = 0;  ///< shard currently hosting the group
  std::uint64_t cost = 0;
  /// False while a previous migration of this group is still in flight
  /// (its implant has not completed) and for already-split groups; such
  /// groups must not be moved.
  bool movable = true;
  /// True when the group can be split by sensor-key range (its definitions
  /// span >= 2 distinct sensor routing keys, it is not already split, and
  /// no migration is in flight): the plan may order a split instead of
  /// skipping an indivisibly hot shard.
  bool splittable = false;
};

/// One epoch's cluster view, handed to plan_spillover. shard_load[s] is the
/// sum of the costs of the groups hosted on shard s this epoch.
struct RebalanceView {
  std::span<const std::uint64_t> shard_load;
  std::span<const GroupLoad> groups;
  /// Optional skip sink: when non-null, the plan increments it once per
  /// hot shard it must leave alone because no move strictly improves the
  /// imbalance and no hosted group is splittable (surfaced as
  /// RuntimeStats::spillover_skipped_indivisible).
  std::uint64_t* skipped_indivisible = nullptr;
};

/// A planned move: move `group` to shard `to` — or, with `split`
/// set, split it by sensor-key range and send the high sub-group to `to`.
/// The runtime validates orders (unknown group, out-of-range shard,
/// unmovable group, to == current host, or an unsplittable group on a
/// split order are ignored) before issuing the migration.
struct MigrationOrder {
  std::uint32_t group = 0;
  std::uint32_t to = 0;
  bool split = false;
};

/// Tuning of plan_spillover.
struct SpilloverOptions {
  double overload_factor = 1.5;  ///< "hot" threshold, in multiples of the mean
  std::size_t max_migrations = 0;  ///< cap per pass; 0 = one per hot shard
};

/// The rebalancer's planning rule, run once per epoch under the runtime's
/// ingest lock: for every shard whose epoch load exceeds
/// `overload_factor` x the mean shard load (hottest first), order the
/// highest-cost movable group hosted there to the least-loaded shard —
/// but only when that *strictly improves* the imbalance
/// (dest_load + cost < src_load). A shard that is hot because of one
/// indivisible group is no longer silently left alone: if the culprit is
/// splittable, the plan orders a key-range split (planning on roughly
/// half the group's cost moving); only when it is not does the shard stay
/// put, counted through RebalanceView::skipped_indivisible.
/// At most one order per hot shard per pass; loads are updated in-place
/// between picks so one pass stays consistent. Appends to `out`.
void plan_spillover(const RebalanceView& view, const SpilloverOptions& options,
                    std::vector<MigrationOrder>& out);

}  // namespace stem::runtime
