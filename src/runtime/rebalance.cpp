#include "runtime/rebalance.hpp"

#include <algorithm>
#include <numeric>

namespace stem::runtime {

void plan_spillover(const RebalanceView& view, const SpilloverOptions& options,
                    std::vector<MigrationOrder>& out) {
  const std::size_t shards = view.shard_load.size();
  if (shards < 2 || view.groups.empty()) return;

  const std::uint64_t total =
      std::accumulate(view.shard_load.begin(), view.shard_load.end(), std::uint64_t{0});
  if (total == 0) return;
  const double mean = static_cast<double>(total) / static_cast<double>(shards);
  const double hot = options.overload_factor * mean;

  // Working copy of the loads so one pass's picks stay consistent.
  std::vector<std::uint64_t> load(view.shard_load.begin(), view.shard_load.end());
  std::vector<std::uint32_t> by_load(shards);
  std::iota(by_load.begin(), by_load.end(), 0);
  std::sort(by_load.begin(), by_load.end(),
            [&](const std::uint32_t a, const std::uint32_t b) { return load[a] > load[b]; });

  std::size_t issued = 0;
  for (const std::uint32_t src : by_load) {
    if (options.max_migrations != 0 && issued >= options.max_migrations) break;
    // Hotness is judged on the epoch's observed loads, not the working
    // copy: a shard that merely *received* a group this pass must not be
    // treated as a fresh hotspot (that would churn groups within one
    // pass); it gets its own epoch of observed load first.
    if (static_cast<double>(view.shard_load[src]) <= hot) continue;

    const auto dst = static_cast<std::uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    if (dst == src) continue;

    // Highest-cost movable group on the hot shard whose move strictly
    // shrinks the source-destination gap.
    const GroupLoad* pick = nullptr;
    for (const GroupLoad& g : view.groups) {
      if (g.shard != src || !g.movable || g.cost == 0) continue;
      if (load[dst] + g.cost >= load[src]) continue;
      if (pick == nullptr || g.cost > pick->cost) pick = &g;
    }
    if (pick != nullptr) {
      out.push_back(MigrationOrder{pick->group, dst});
      load[src] -= pick->cost;
      load[dst] += pick->cost;
      ++issued;
      continue;
    }

    // No whole-group move strictly improves — the shard is hot because of
    // an indivisible group. Split the highest-cost splittable one by
    // sensor-key range instead, planning on roughly half its cost moving
    // (the runtime partitions by key hash, so the exact share depends on
    // the key skew). Acceptance mirrors the whole-move rule: the
    // destination must stay below the source's pre-split load, so the
    // cluster's peak strictly drops even when the group *is* the whole
    // hot load. Otherwise record the skip.
    const GroupLoad* cut = nullptr;
    for (const GroupLoad& g : view.groups) {
      if (g.shard != src || !g.movable || !g.splittable || g.cost == 0) continue;
      if (load[dst] + g.cost / 2 >= load[src]) continue;
      if (cut == nullptr || g.cost > cut->cost) cut = &g;
    }
    if (cut == nullptr) {
      if (view.skipped_indivisible != nullptr) ++*view.skipped_indivisible;
      continue;
    }
    out.push_back(MigrationOrder{cut->group, dst, true});
    load[src] -= cut->cost / 2;
    load[dst] += cut->cost / 2;
    ++issued;
  }
}

}  // namespace stem::runtime
