#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/event_def.hpp"

namespace stem::core {

/// Stable 64-bit hash (FNV-1a) of a routing key. The sharded runtime's
/// placement keys are these hashes: add_definition remembers the hashed
/// sensor / event-type keys each shard hosts, so a new definition can
/// prefer a shard that already receives its keys, and the key sets cost
/// 8 bytes per key instead of a string each (same key => same hash on
/// every run and host).
[[nodiscard]] std::uint64_t routing_key_hash(std::string_view key) noexcept;

/// Routing index entry: one (definition, slot) pair. `def_idx` is the
/// registrar's definition index: the DetectionEngine's local index, or the
/// sharded runtime's global registration index (which the runtime maps to
/// a shard through its placement table, and to a shard engine's local
/// index through that shard's flat global->local map, not through the
/// index).
struct SlotRoute {
  std::uint32_t def_idx;
  std::uint32_t slot_idx;

  friend bool operator==(const SlotRoute&, const SlotRoute&) = default;
};

/// Maps an arriving entity to the (definition, slot) pairs whose filters
/// can possibly match it, so unrelated definitions cost nothing.
///
/// Every registrar adds each slot of a definition once, as its own route.
/// A DetectionEngine indexes its local definitions for observe()
/// candidate selection. The sharded runtime (`runtime::ShardedEngineRuntime`)
/// holds the one index of its deployment, every definition under its
/// global index: ingest turns the collected routes into recipient shards
/// through its def->shard map, and each shard worker keeps the routes of
/// the definitions it hosts and hands them to its engine's routed
/// observe(), so shard engines build no index and moving a definition
/// never touches one. Structure:
///  - keyed buckets per sensor id and per event type id, reached by one
///    hash lookup on the arrival's discriminant;
///  - a wildcard list for filters with no usable discriminant, merged into
///    every lookup;
///  - inside a bucket, single-slot `attr OP C` definitions live in
///    per-attribute constant-sorted lists, so an arriving value walks only
///    the rules it can actually fire (output-sensitive in rule count).
class RoutingIndex {
 public:
  /// Registers every slot of `def` under index `def_idx`. Routes are kept
  /// sorted by (def_idx, slot_idx), so registration order and index order
  /// need not coincide.
  void add(const EventDefinition& def, std::uint32_t def_idx);

  /// Does now what the first dispatch of each threshold side would do —
  /// sorts its pending registrations and compacts them if they outgrew
  /// their bound — so that collect() only reads until the next add() or
  /// remove().
  void freeze();

  /// Incrementally unregisters what add(def, def_idx) registered. Buckets
  /// and threshold groups emptied by the removal are erased. Throws
  /// std::logic_error when a route to remove is not present (indicates an
  /// add/remove mismatch).
  void remove(const EventDefinition& def, std::uint32_t def_idx);

  /// Collects the routes that can possibly match `entity` into `out` (not
  /// cleared), in ascending (def_idx, slot_idx) order, keeping a route
  /// only when `accept(route)` returns true, with every surviving route
  /// appearing exactly once per call: a slot's route lives in exactly one
  /// structure (its keyed bucket, the wildcard list, or one threshold
  /// constant). `accept` must verify the residual
  /// filter fields (producer, layer) — the index only dispatches on the
  /// discriminant key and, for threshold rules, the constant.
  ///
  /// Non-const: threshold registrations land in small per-side pending
  /// lists (keeping add O(1) amortized) and are folded into the segment
  /// nodes lazily on dispatch. Callers serialize collect() with
  /// add()/remove() — the engine is single-threaded — or freeze() the
  /// index first, after which collect() writes nothing and may run on
  /// several threads at once (the sharded runtime's ingest and cascade
  /// coordinator share one index that way).
  template <typename Accept>
  void collect(const Entity& entity, std::vector<SlotRoute>& out, Accept&& accept) {
    Bucket* bucket = nullptr;
    if (entity.is_observation()) {
      if (const auto it = by_sensor_.find(entity.observation().sensor.value());
          it != by_sensor_.end()) {
        bucket = &it->second;
      }
    } else {
      if (const auto it = by_type_.find(entity.instance().key.event.value());
          it != by_type_.end()) {
        bucket = &it->second;
      }
    }
    const auto push = [&](const SlotRoute r) {
      if (accept(r)) out.push_back(r);
    };
    const std::size_t entry_size = out.size();
    // Merge the keyed bucket's generic routes with the wildcard list (both
    // sorted by construction, disjoint: a slot registers in one of them).
    std::size_t a = 0;
    std::size_t b = 0;
    const std::size_t an = bucket != nullptr ? bucket->generic.size() : 0;
    const std::size_t bn = any_.size();
    while (a < an && b < bn) {
      const SlotRoute ra = bucket->generic[a];
      const SlotRoute rb = any_[b];
      if (ra.def_idx < rb.def_idx || (ra.def_idx == rb.def_idx && ra.slot_idx < rb.slot_idx)) {
        push(ra);
        ++a;
      } else {
        push(rb);
        ++b;
      }
    }
    for (; a < an; ++a) push(bucket->generic[a]);
    for (; b < bn; ++b) push(any_[b]);

    // Threshold sub-index: dispatch whole segment nodes. Nodes are sorted
    // by constant, so the walk covers exactly the prefix of nodes the
    // arriving value fires and stops at the first it cannot (output-
    // sensitive selection); each fired node contributes its full route
    // range. The selected definitions still evaluate their full condition
    // downstream; this is purely a routing pre-filter.
    if (bucket == nullptr || bucket->thresholds.empty()) return;
    const std::size_t generic_end = out.size();
    for (ThresholdGroup& g : bucket->thresholds) {
      const std::optional<double> value = entity.attributes().number(g.attribute);
      // A missing (or non-numeric) attribute fails every threshold; NaN
      // fails every order comparison.
      if (!value.has_value() || std::isnan(*value)) continue;
      const double v = *value;
      dispatch_side(g.above, /*upper=*/true, v, push);
      dispatch_side(g.below, /*upper=*/false, v, push);
    }
    if (out.size() > generic_end) {
      // Restore global (def_idx, slot_idx) order across the generic and
      // threshold-selected routes.
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(entry_size), out.end(),
                [](const SlotRoute& x, const SlotRoute& y) {
                  return x.def_idx < y.def_idx ||
                         (x.def_idx == y.def_idx && x.slot_idx < y.slot_idx);
                });
    }
  }

 private:
  /// One direction of a per-attribute threshold sub-index: the single-slot
  /// `attr > C` / `attr >= C` rules (`upper` = true) or their `<` / `<=`
  /// mirrors, merged into *segment nodes*. A node is one distinct
  /// (constant, inclusiveness) boundary carrying the contiguous range of
  /// routes registered at it (CSR layout), so an arriving value dispatches
  /// ranges of rules — the node walk is output-sensitive in fired nodes,
  /// not registered rules.
  ///
  /// Registration appends to `pending` in O(1) amortized (the fix for the
  /// superlinear add_definition cost the sorted-insert scheme had) and is
  /// folded into the node arrays lazily: dispatch compacts once pending
  /// outgrows a constant-plus-fraction-of-live bound, so a bulk load of N
  /// rules costs one O(N log N) compaction on the first dispatch instead
  /// of O(N^2) sorted inserts. Removal marks a compacted entry dead (purged
  /// by the next compaction) or erases its pending entry. A route is
  /// registered at one constant once, so no entry ever needs folding.
  struct ThresholdSide {
    // Compacted segment nodes, ordered ascending by constant for the upper
    // side / descending for the lower, inclusive boundary first at ties.
    std::vector<double> constant;
    std::vector<std::uint8_t> inclusive;     // parallel to nodes; 1 = fires at equality
    std::vector<std::uint32_t> node_begin;   // CSR into routes/alive; size = nodes + 1
    std::vector<SlotRoute> routes;           // per node, ascending (def, slot)
    std::vector<std::uint8_t> alive;         // parallel to routes; 0 = dead (lazily purged)
    std::uint32_t dead = 0;                  // dead route entries awaiting compaction

    /// Not-yet-compacted registrations. Kept sorted in the node order
    /// above whenever that is free (monotone registration patterns);
    /// otherwise re-sorted on the next dispatch.
    struct Pending {
      double constant;
      std::uint8_t inclusive;
      SlotRoute route;
    };
    std::vector<Pending> pending;
    bool pending_dirty = false;

    [[nodiscard]] bool empty() const { return live() == 0 && pending.empty(); }
    [[nodiscard]] std::size_t live() const { return routes.size() - dead; }

    void add(bool upper, double c, bool inclusive_bound, SlotRoute r);
    [[nodiscard]] bool remove(bool upper, double c, bool inclusive_bound, SlotRoute r);
    /// Sorts pending if dirty and compacts it into the node arrays once it
    /// outgrows its bound; called by dispatch before walking.
    void ensure_dispatchable(bool upper);
    /// Rebuilds the node arrays from live compacted entries + pending.
    void compact(bool upper);
  };

  /// Single-slot `attr OP C` definitions of one bucket, grouped per
  /// attribute (see ThresholdSide for the segment-node layout).
  struct ThresholdGroup {
    std::string attribute;
    ThresholdSide above;  ///< kGt/kGe: every node with constant < value fires
    ThresholdSide below;  ///< kLt/kLe mirror (descending constants)

    [[nodiscard]] bool empty() const { return above.empty() && below.empty(); }
  };

  /// Walks one threshold side: compacts pending if due, then pushes the
  /// route ranges of every node the value fires, stopping at the first
  /// non-firing constant (plus the ≤ bounded pending tail, same order).
  template <typename Push>
  static void dispatch_side(ThresholdSide& side, bool upper, double v, Push&& push) {
    side.ensure_dispatchable(upper);
    const std::size_t nodes = side.constant.size();
    for (std::size_t k = 0; k < nodes; ++k) {
      const double c = side.constant[k];
      if (upper ? c > v : c < v) break;
      if (c == v && side.inclusive[k] == 0) continue;
      for (std::uint32_t i = side.node_begin[k]; i < side.node_begin[k + 1]; ++i) {
        if (side.alive[i] != 0) push(side.routes[i]);
      }
    }
    for (const ThresholdSide::Pending& p : side.pending) {
      if (upper ? p.constant > v : p.constant < v) break;
      if (p.constant == v && p.inclusive == 0) continue;
      push(p.route);
    }
  }

  /// One routing bucket (per sensor / event type): generic (def, slot)
  /// routes plus the threshold sub-index.
  struct Bucket {
    std::vector<SlotRoute> generic;  // sorted by (def_idx, slot_idx), no duplicates
    std::vector<ThresholdGroup> thresholds;

    [[nodiscard]] bool empty() const { return generic.empty() && thresholds.empty(); }
  };

  /// Registers a keyed route, diverting eligible single-slot threshold
  /// definitions into the bucket's threshold sub-index.
  void register_keyed(Bucket& bucket, const EventDefinition& def, SlotRoute r);
  /// Inverse of register_keyed; returns whether the bucket became empty.
  void unregister_keyed(Bucket& bucket, const EventDefinition& def, SlotRoute r);

  /// Inserts `r` in (def_idx, slot_idx) order.
  static void insert_sorted(std::vector<SlotRoute>& routes, SlotRoute r);
  /// Erases `r`. Throws std::logic_error when `r` is absent.
  static void erase_sorted(std::vector<SlotRoute>& routes, SlotRoute r);

  std::unordered_map<std::string, Bucket> by_sensor_;
  std::unordered_map<std::string, Bucket> by_type_;
  std::vector<SlotRoute> any_;  // sorted by (def_idx, slot_idx), no duplicates
};

}  // namespace stem::core
