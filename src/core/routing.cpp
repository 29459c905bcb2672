#include "core/routing.hpp"

#include <stdexcept>

namespace stem::core {

std::uint64_t routing_key_hash(std::string_view key) noexcept {
  // FNV-1a, 64-bit: stable across platforms and process restarts.
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace stem::core

#include "core/condition.hpp"

namespace stem::core {

namespace {

bool route_less(const SlotRoute& a, const SlotRoute& b) {
  return a.def_idx < b.def_idx || (a.def_idx == b.def_idx && a.slot_idx < b.slot_idx);
}

}  // namespace

void RoutingIndex::insert_sorted(std::vector<SlotRoute>& routes, SlotRoute r) {
  routes.insert(std::lower_bound(routes.begin(), routes.end(), r, route_less), r);
}

void RoutingIndex::erase_sorted(std::vector<SlotRoute>& routes, SlotRoute r) {
  const auto pos = std::lower_bound(routes.begin(), routes.end(), r, route_less);
  if (pos == routes.end() || !(*pos == r)) {
    throw std::logic_error("RoutingIndex: removing a route that was never registered");
  }
  routes.erase(pos);
}

void RoutingIndex::add(const EventDefinition& def, std::uint32_t def_idx) {
  for (std::uint32_t j = 0; j < def.slots.size(); ++j) {
    const SlotRoute r{def_idx, j};
    const FilterSignature sig = def.slots[j].filter.signature();
    switch (sig.kind) {
      case FilterSignature::Kind::kSensor:
        register_keyed(by_sensor_[sig.key], def, r);
        break;
      case FilterSignature::Kind::kEventType:
        register_keyed(by_type_[sig.key], def, r);
        break;
      case FilterSignature::Kind::kAny:
        insert_sorted(any_, r);
        break;
      case FilterSignature::Kind::kNever:
        break;  // matches nothing: route nowhere
    }
  }
}

void RoutingIndex::freeze() {
  for (auto* buckets : {&by_sensor_, &by_type_}) {
    for (auto& [key, bucket] : *buckets) {
      for (ThresholdGroup& g : bucket.thresholds) {
        g.above.ensure_dispatchable(/*upper=*/true);
        g.below.ensure_dispatchable(/*upper=*/false);
      }
    }
  }
}

void RoutingIndex::remove(const EventDefinition& def, std::uint32_t def_idx) {
  for (std::uint32_t j = 0; j < def.slots.size(); ++j) {
    const SlotRoute r{def_idx, j};
    const FilterSignature sig = def.slots[j].filter.signature();
    switch (sig.kind) {
      case FilterSignature::Kind::kSensor: {
        const auto it = by_sensor_.find(sig.key);
        if (it == by_sensor_.end()) {
          throw std::logic_error("RoutingIndex: removing from an absent sensor bucket");
        }
        unregister_keyed(it->second, def, r);
        if (it->second.empty()) by_sensor_.erase(it);
        break;
      }
      case FilterSignature::Kind::kEventType: {
        const auto it = by_type_.find(sig.key);
        if (it == by_type_.end()) {
          throw std::logic_error("RoutingIndex: removing from an absent event-type bucket");
        }
        unregister_keyed(it->second, def, r);
        if (it->second.empty()) by_type_.erase(it);
        break;
      }
      case FilterSignature::Kind::kAny:
        erase_sorted(any_, r);
        break;
      case FilterSignature::Kind::kNever:
        break;
    }
  }
}

namespace {

/// Node / pending ordering of one threshold side: ascending constants for
/// the upper side, descending for the lower, inclusive boundary first at
/// ties, then ascending (def, slot) so a node's route range stays sorted.
bool entry_less(bool upper, double c1, std::uint8_t i1, SlotRoute r1, double c2, std::uint8_t i2,
                SlotRoute r2) {
  if (c1 != c2) return upper ? c1 < c2 : c1 > c2;
  if (i1 != i2) return i1 > i2;
  return route_less(r1, r2);
}

/// Pending stays bounded by a constant plus a fraction of the compacted
/// live size: bulk loads compact once (O(N log N) total), interleaved
/// add/dispatch compacts geometrically (O(1) amortized per add), and the
/// unsorted-scan work a dispatch can spend on pending stays proportional
/// to the structure it will be merged into.
constexpr std::size_t kPendingBase = 64;

}  // namespace

void RoutingIndex::ThresholdSide::add(bool upper, double c, bool inclusive_bound, SlotRoute r) {
  const std::uint8_t want = inclusive_bound ? 1 : 0;
  if (!pending.empty() &&
      entry_less(upper, c, want, r, pending.back().constant, pending.back().inclusive,
                 pending.back().route)) {
    pending_dirty = true;
  }
  pending.push_back(Pending{c, want, r});
}

bool RoutingIndex::ThresholdSide::remove(bool upper, double c, bool inclusive_bound, SlotRoute r) {
  const std::uint8_t want = inclusive_bound ? 1 : 0;
  const std::size_t nodes = constant.size();
  for (std::size_t k = 0; k < nodes; ++k) {
    if (constant[k] != c || inclusive[k] != want) continue;
    for (std::uint32_t i = node_begin[k]; i < node_begin[k + 1]; ++i) {
      if (!(routes[i] == r) || alive[i] == 0) continue;
      alive[i] = 0;
      if (++dead * 2 > routes.size()) compact(upper);
      return true;
    }
    break;
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    const Pending& p = pending[k];
    if (p.constant != c || p.inclusive != want || !(p.route == r)) continue;
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));  // keeps sort order
    return true;
  }
  return false;
}

void RoutingIndex::ThresholdSide::ensure_dispatchable(bool upper) {
  if (pending.empty()) return;
  if (pending_dirty) {
    std::sort(pending.begin(), pending.end(), [upper](const Pending& a, const Pending& b) {
      return entry_less(upper, a.constant, a.inclusive, a.route, b.constant, b.inclusive, b.route);
    });
    pending_dirty = false;
  }
  if (pending.size() > kPendingBase + live() / 8) compact(upper);
}

void RoutingIndex::ThresholdSide::compact(bool upper) {
  if (pending_dirty) {
    std::sort(pending.begin(), pending.end(), [upper](const Pending& a, const Pending& b) {
      return entry_less(upper, a.constant, a.inclusive, a.route, b.constant, b.inclusive, b.route);
    });
    pending_dirty = false;
  }
  // Flatten the live compacted entries, merge the (sorted) pending run in,
  // then rebuild the node/CSR arrays.
  std::vector<Pending> all;
  all.reserve(live() + pending.size());
  const std::size_t nodes = constant.size();
  for (std::size_t k = 0; k < nodes; ++k) {
    for (std::uint32_t i = node_begin[k]; i < node_begin[k + 1]; ++i) {
      if (alive[i] != 0) all.push_back(Pending{constant[k], inclusive[k], routes[i]});
    }
  }
  const auto mid = all.size();
  all.insert(all.end(), pending.begin(), pending.end());
  std::inplace_merge(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(mid), all.end(),
                     [upper](const Pending& a, const Pending& b) {
                       return entry_less(upper, a.constant, a.inclusive, a.route, b.constant,
                                         b.inclusive, b.route);
                     });
  constant.clear();
  inclusive.clear();
  node_begin.clear();
  routes.clear();
  alive.clear();
  dead = 0;
  pending.clear();
  for (const Pending& p : all) {
    if (constant.empty() || constant.back() != p.constant || inclusive.back() != p.inclusive) {
      constant.push_back(p.constant);
      inclusive.push_back(p.inclusive);
      node_begin.push_back(static_cast<std::uint32_t>(routes.size()));
    }
    routes.push_back(p.route);
    alive.push_back(1);
  }
  node_begin.push_back(static_cast<std::uint32_t>(routes.size()));
}

void RoutingIndex::register_keyed(Bucket& bucket, const EventDefinition& def, SlotRoute r) {
  // Single-slot order thresholds go to the per-attribute segment sub-index
  // so arrivals pay only for the rules their value satisfies; everything
  // else is probed generically.
  std::optional<ThresholdSignature> sig;
  if (def.slots.size() == 1) sig = extract_threshold_signature(def.condition);
  if (!sig.has_value()) {
    insert_sorted(bucket.generic, r);
    return;
  }
  ThresholdGroup* group = nullptr;
  for (ThresholdGroup& g : bucket.thresholds) {
    if (g.attribute == sig->attribute) {
      group = &g;
      break;
    }
  }
  if (group == nullptr) {
    bucket.thresholds.push_back(ThresholdGroup{sig->attribute, {}, {}});
    group = &bucket.thresholds.back();
  }
  const bool upper = sig->op == RelationalOp::kGt || sig->op == RelationalOp::kGe;
  const bool inclusive = sig->op == RelationalOp::kGe || sig->op == RelationalOp::kLe;
  ThresholdSide& side = upper ? group->above : group->below;
  side.add(upper, sig->constant, inclusive, r);
}

void RoutingIndex::unregister_keyed(Bucket& bucket, const EventDefinition& def, SlotRoute r) {
  std::optional<ThresholdSignature> sig;
  if (def.slots.size() == 1) sig = extract_threshold_signature(def.condition);
  if (!sig.has_value()) {
    erase_sorted(bucket.generic, r);
    return;
  }
  for (std::size_t gi = 0; gi < bucket.thresholds.size(); ++gi) {
    ThresholdGroup& g = bucket.thresholds[gi];
    if (g.attribute != sig->attribute) continue;
    const bool upper = sig->op == RelationalOp::kGt || sig->op == RelationalOp::kGe;
    const bool inclusive = sig->op == RelationalOp::kGe || sig->op == RelationalOp::kLe;
    ThresholdSide& side = upper ? g.above : g.below;
    if (side.remove(upper, sig->constant, inclusive, r)) {
      if (g.empty()) {
        bucket.thresholds.erase(bucket.thresholds.begin() + static_cast<std::ptrdiff_t>(gi));
      }
      return;
    }
    break;
  }
  throw std::logic_error("RoutingIndex: removing a threshold route that was never registered");
}

}  // namespace stem::core
