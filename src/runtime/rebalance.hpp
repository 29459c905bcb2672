#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace stem::runtime {

/// Load attributed to one registered definition — the unit of placement
/// and migration — over the last rebalance epoch. Cost units: arrivals
/// routed to the definition + candidate bindings formed for it (epoch
/// deltas of the engines' per-definition counters) + entities currently
/// buffered.
struct DefinitionCost {
  std::uint32_t def = 0;    ///< global definition index
  std::uint32_t shard = 0;  ///< shard currently hosting the definition
  std::uint64_t cost = 0;
  /// False while a previous move of this definition is still in flight
  /// (its implant has not completed); such definitions must not be moved.
  bool movable = true;
};

/// One epoch's cluster view, handed to plan_spillover. shard_load[s] is the
/// sum of the costs of the definitions hosted on shard s this epoch.
struct RebalanceView {
  std::span<const std::uint64_t> shard_load;
  std::span<const DefinitionCost> defs;
  /// Optional skip sink: when non-null, the plan increments it once per
  /// hot shard it must leave alone because no single-definition move
  /// strictly improves the imbalance (surfaced as
  /// RuntimeStats::spillover_skipped_indivisible).
  std::uint64_t* skipped_indivisible = nullptr;
};

/// A planned move: move definition `def` to shard `to`. The runtime
/// validates orders (unknown definition, out-of-range shard, unmovable
/// definition, or to == current host are ignored) before issuing the move.
struct MigrationOrder {
  std::uint32_t def = 0;
  std::uint32_t to = 0;
};

/// Tuning of plan_spillover.
struct SpilloverOptions {
  double overload_factor = 1.5;  ///< "hot" threshold, in multiples of the mean
  std::size_t max_migrations = 0;  ///< cap per pass; 0 = one per hot shard
};

/// The rebalancer's planning rule, run once per epoch under the runtime's
/// ingest lock: for every shard whose epoch load exceeds
/// `overload_factor` x the mean shard load (hottest first), order the
/// highest-cost movable definition hosted there to the least-loaded shard
/// — but only when that *strictly improves* the imbalance
/// (dest_load + cost < src_load). A shard that is hot because of one
/// indivisible definition stays put, counted through
/// RebalanceView::skipped_indivisible.
/// At most one order per hot shard per pass; loads are updated in-place
/// between picks so one pass stays consistent. Appends to `out`.
void plan_spillover(const RebalanceView& view, const SpilloverOptions& options,
                    std::vector<MigrationOrder>& out);

}  // namespace stem::runtime
