#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"

/// Shared-evaluation-plan suite: near-duplicate definitions must share
/// buffered slot streams (and their spatial backing) without any
/// observable difference from per-definition buffers — late subscribers
/// never see pre-registration entities, eviction counters match the
/// unshared accounting, migration moves one subscription without
/// disturbing co-subscribers — plus the registration-path guarantees the
/// sharing work leaned on: near-linear add_definition cost and
/// exactly-once RoutingIndex dispatch under duplicate threshold
/// constants.

namespace stem::core {
namespace {

using geom::Location;
using geom::Point;
using time_model::seconds;
using time_model::TimePoint;

std::string describe(const EventInstance& i) {
  std::ostringstream os;
  os << i.key << " layer=" << static_cast<int>(i.layer) << " gen=" << i.gen_time
     << " t=" << i.est_time << " l=" << i.est_location << " rho=" << i.confidence
     << " V=" << i.attributes << " from=[";
  for (const auto& p : i.provenance) os << p << ";";
  os << "]";
  return os.str();
}

PhysicalObservation obs(int mote, const std::string& sensor, std::uint64_t seq, TimePoint t,
                        Point p, double value) {
  PhysicalObservation o;
  o.mote = ObserverId("MT" + std::to_string(mote));
  o.sensor = SensorId(sensor);
  o.seq = seq;
  o.time = t;
  o.location = Location(p);
  o.attributes.set("value", value);
  return o;
}

/// A near-duplicate two-slot join: identical filters and window across
/// the family (one shared plan node per slot), varying only the distance
/// radius and the output event type.
EventDefinition near_join(const std::string& type, double radius,
                          time_model::Duration window = seconds(60)) {
  return EventDefinition{EventTypeId(type),
                         {{"a", SlotFilter::observation(SensorId("SRa"))},
                          {"b", SlotFilter::observation(SensorId("SRb"))}},
                         c_distance(0, 1, RelationalOp::kLt, radius),
                         window,
                         {},
                         ConsumptionMode::kUnrestricted};
}

// ---------------------------------------------------------------------------
// Shared streams: observable semantics.
// ---------------------------------------------------------------------------

/// A subscriber registered after entities already buffered must never bind
/// them: its emissions are byte-identical to the same definition running in
/// a fresh engine fed only the post-registration suffix.
TEST(SharedPlanTest, LateSubscriberSeesOnlyNewEntities) {
  DetectionEngine shared(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  DetectionEngine fresh(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  shared.add_definition(near_join("EARLY", 50.0));

  TimePoint now = TimePoint::epoch();
  std::vector<Entity> prefix;
  std::vector<Entity> suffix;
  for (int i = 0; i < 10; ++i) {
    now += seconds(1);
    prefix.emplace_back(obs(1, i % 2 == 0 ? "SRa" : "SRb", static_cast<std::uint64_t>(i), now,
                            {static_cast<double>(i), 0.0}, 50.0));
  }
  std::vector<Emission> sink;
  for (const Entity& e : prefix) shared.observe(e, now, sink);
  ASSERT_FALSE(sink.empty());  // the early definition does bind the prefix

  // Register the near-duplicate late: the canonical streams are non-empty,
  // so it must get private (empty) buffers despite the matching plan key.
  const auto late = shared.add_definition(near_join("LATE", 50.0));
  fresh.add_definition(near_join("LATE", 50.0));

  for (int i = 10; i < 24; ++i) {
    now += seconds(1);
    suffix.emplace_back(obs(1, i % 2 == 0 ? "SRa" : "SRb", static_cast<std::uint64_t>(i), now,
                            {static_cast<double>(i), 0.0}, 50.0));
  }
  std::vector<std::string> got;
  std::vector<std::string> want;
  for (const Entity& e : suffix) {
    sink.clear();
    shared.observe(e, now, sink);
    for (const Emission& em : sink) {
      if (em.def == late) got.push_back(describe(em.instance));
    }
    sink.clear();
    fresh.observe(e, now, sink);
    for (const Emission& em : sink) want.push_back(describe(em.instance));
  }
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]) << "instance " << k;
}

/// Buffer-cap eviction on a shared stream counts once per subscriber, so
/// EngineStats::evicted matches what per-definition buffers would report.
TEST(SharedPlanTest, SharedStreamEvictionCountsPerSubscriber) {
  EngineOptions opts;
  opts.max_buffer = 8;
  DetectionEngine engine(ObserverId("OB"), Layer::kCyberPhysical, {0, 0}, opts);
  constexpr std::size_t kDefs = 5;
  for (std::size_t d = 0; d < kDefs; ++d) {
    engine.add_definition(near_join("EV" + std::to_string(d), 0.001));
  }

  TimePoint now = TimePoint::epoch();
  constexpr std::size_t kArrivals = 20;
  for (std::size_t i = 0; i < kArrivals; ++i) {
    now += seconds(1);
    engine.observe(Entity(obs(1, "SRa", i, now, {static_cast<double>(i), 0.0}, 1.0)), now);
  }
  // One shared slot-a stream overflowing by (arrivals - cap), charged to
  // each of the kDefs subscribers — exactly the unshared total.
  EXPECT_EQ(engine.stats().evicted, (kArrivals - opts.max_buffer) * kDefs);

  // The per-definition buffered gauge reads through the shared stream:
  // every subscriber reports the full (capped) buffer as its own.
  std::vector<std::pair<std::uint32_t, DefinitionLoad>> loads;
  engine.collect_definition_loads(loads);
  ASSERT_EQ(loads.size(), kDefs);
  for (const auto& [idx, load] : loads) {
    EXPECT_EQ(load.buffered, opts.max_buffer) << "definition " << idx;
  }
}

/// Extracting one subscriber of a shared plan node and implanting it into
/// another engine must leave the co-subscribers' streams untouched: every
/// definition's per-type emission stream stays byte-identical to a
/// never-migrated reference engine.
TEST(SharedPlanTest, MigratingOneSubscriberLeavesCoSubscribersIntact) {
  constexpr std::size_t kDefs = 3;
  DetectionEngine source(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  DetectionEngine reference(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  for (std::size_t d = 0; d < kDefs; ++d) {
    source.add_definition(near_join("MIG" + std::to_string(d), 4.0 + 2.0 * d, seconds(120)));
    reference.add_definition(near_join("MIG" + std::to_string(d), 4.0 + 2.0 * d, seconds(120)));
  }

  std::map<std::uint32_t, std::vector<std::string>> got;
  std::map<std::uint32_t, std::vector<std::string>> want;
  std::vector<Emission> sink;
  const auto feed = [&sink](DetectionEngine& eng, const Entity& e, TimePoint t,
                            std::map<std::uint32_t, std::vector<std::string>>& into,
                            std::uint32_t retag = 0xffffffffu) {
    sink.clear();
    eng.observe(e, t, sink);
    for (const Emission& em : sink) {
      into[retag != 0xffffffffu ? retag : em.def].push_back(describe(em.instance));
    }
  };

  TimePoint now = TimePoint::epoch();
  std::vector<Entity> entities;
  std::vector<TimePoint> nows;
  for (int i = 0; i < 60; ++i) {
    now += seconds(1);
    entities.emplace_back(obs(1, i % 2 == 0 ? "SRa" : "SRb", static_cast<std::uint64_t>(i), now,
                              {static_cast<double>(i % 7), static_cast<double>(i % 5)}, 50.0));
    nows.push_back(now);
  }

  DetectionEngine dest(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  std::size_t implanted = 0;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    if (i == 30) {
      // Mid-stream, with all shared buffers non-empty: definition 1 moves
      // out; 0 and 2 keep subscribing to the shared nodes.
      implanted = dest.implant_definition_state(source.extract_definition_state(1));
    }
    feed(source, entities[i], nows[i], got);
    if (i >= 30) feed(dest, entities[i], nows[i], got, 1);
    feed(reference, entities[i], nows[i], want);
  }

  ASSERT_EQ(implanted, 0u);
  for (std::uint32_t d = 0; d < kDefs; ++d) {
    ASSERT_FALSE(want[d].empty()) << "definition " << d << " never fired";
    ASSERT_EQ(got[d].size(), want[d].size()) << "definition " << d;
    for (std::size_t k = 0; k < got[d].size(); ++k) {
      EXPECT_EQ(got[d][k], want[d][k]) << "definition " << d << " instance " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Registration path: near-linear cost.
// ---------------------------------------------------------------------------

/// One near-duplicate threshold definition: single slot on a shared
/// sensor, `value > c` with constants cycling over a small set (so the
/// routing index sees massive duplicate-constant families).
EventDefinition threshold_def(std::size_t i) {
  return EventDefinition{EventTypeId("THR" + std::to_string(i)),
                         {{"x", SlotFilter::observation(SensorId("SRa"))}},
                         c_attr(ValueAggregate::kAverage, "value", {0}, RelationalOp::kGt,
                                50.0 + static_cast<double>(i % 64)),
                         seconds(60),
                         {},
                         ConsumptionMode::kUnrestricted};
}

double registration_seconds(std::size_t count) {
  DetectionEngine engine(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) engine.add_definition(threshold_def(i));
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(engine.definition_count(), count);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Regression guard for the superlinear add_definition cost: 16x the
/// definitions must not cost more than ~4x-per-definition extra. The old
/// sorted-insert threshold registration was O(n) per add (O(n^2) total,
/// ratio ~256 here); the pending-list scheme is O(1) amortized (ratio
/// ~16). The bound sits far from both to stay timing-noise proof.
TEST(RegistrationScalingTest, NearDuplicateRegistrationIsNearLinear) {
  registration_seconds(512);  // warm up allocators and code paths
  const double small = registration_seconds(2000);
  const double large = registration_seconds(32000);
  EXPECT_LT(large, small * 64.0 + 0.25)
      << "16x definitions cost " << large / small << "x the time";
}

// ---------------------------------------------------------------------------
// RoutingIndex: exactly-once dispatch.
// ---------------------------------------------------------------------------

std::vector<SlotRoute> collect_all(RoutingIndex& idx, const Entity& e) {
  std::vector<SlotRoute> out;
  idx.collect(e, out, [](const SlotRoute&) { return true; });
  return out;
}

void expect_exactly_once(const std::vector<SlotRoute>& routes, const std::string& ctx) {
  for (std::size_t i = 1; i < routes.size(); ++i) {
    const auto& p = routes[i - 1];
    const auto& r = routes[i];
    EXPECT_TRUE(p.def_idx < r.def_idx || (p.def_idx == r.def_idx && p.slot_idx < r.slot_idx))
        << ctx << ": route (" << r.def_idx << "," << r.slot_idx << ") at position " << i
        << " repeats or disorders the collected set";
  }
}

/// Duplicate threshold constants and overlapping half-open intervals must
/// dispatch each registered (definition, slot) exactly once per arrival,
/// and exactly the definitions whose threshold the value satisfies. A
/// join with two slots on the key plus a wildcard slot, registered per
/// slot, adds each of its three (definition, slot) routes to every
/// dispatch exactly once: two through the bucket, one through the
/// wildcard list.
TEST(RoutingExactlyOnceTest, DuplicateConstantsDispatchOnce) {
  RoutingIndex idx;
  std::vector<double> constants;
  std::vector<RelationalOp> ops;
  constexpr std::size_t kRules = 200;
  for (std::size_t i = 0; i < kRules; ++i) {
    // Five distinct constants, both sides, inclusive and strict: every
    // node of the segment index carries a long duplicate-route range.
    const double c = 40.0 + 10.0 * static_cast<double>(i % 5);
    const RelationalOp op = std::array{RelationalOp::kGt, RelationalOp::kGe, RelationalOp::kLt,
                                       RelationalOp::kLe}[i % 4];
    EventDefinition def{EventTypeId("R" + std::to_string(i)),
                        {{"x", SlotFilter::observation(SensorId("SRa"))}},
                        c_attr(ValueAggregate::kAverage, "value", {0}, op, c),
                        seconds(60),
                        {},
                        ConsumptionMode::kUnrestricted};
    idx.add(def, static_cast<std::uint32_t>(i));
    constants.push_back(c);
    ops.push_back(op);
  }
  idx.add(EventDefinition{EventTypeId("J"),
                          {{"a", SlotFilter::observation(SensorId("SRa"))},
                           {"b", SlotFilter::observation(SensorId("SRa"))},
                           {"w", SlotFilter::any()}},
                          c_and({c_time(0, time_model::TemporalOp::kBefore, 1),
                                 c_time(1, time_model::TemporalOp::kBefore, 2)}),
                          seconds(60),
                          {},
                          ConsumptionMode::kUnrestricted},
          kRules);
  constexpr std::size_t kJoinSlots = 3;

  const auto fires = [&](std::size_t i, double v) {
    if (i == kRules) return true;  // the join
    switch (ops[i]) {
      case RelationalOp::kGt: return v > constants[i];
      case RelationalOp::kGe: return v >= constants[i];
      case RelationalOp::kLt: return v < constants[i];
      case RelationalOp::kLe: return v <= constants[i];
      default: return false;
    }
  };
  const TimePoint now = TimePoint::epoch();
  // Probe off-node, on-node (ties exercise inclusive/strict splits), and
  // beyond both ends.
  for (const double v : {35.0, 40.0, 44.5, 50.0, 60.0, 65.5, 70.0, 80.0, 99.0}) {
    const Entity e(obs(1, "SRa", 0, now, {0, 0}, v));
    const auto routes = collect_all(idx, e);
    expect_exactly_once(routes, "v=" + std::to_string(v));
    std::size_t expected = kJoinSlots;
    for (std::size_t i = 0; i < kRules; ++i) expected += fires(i, v) ? 1 : 0;
    EXPECT_EQ(routes.size(), expected) << "v=" << v;
    std::array<std::size_t, kJoinSlots> join_hits{};
    for (const SlotRoute r : routes) {
      EXPECT_TRUE(fires(r.def_idx, v)) << "v=" << v << " def " << r.def_idx;
      if (r.def_idx == kRules) {
        ASSERT_LT(r.slot_idx, kJoinSlots) << "v=" << v;
        ++join_hits[r.slot_idx];
      }
    }
    for (std::size_t j = 0; j < kJoinSlots; ++j) {
      EXPECT_EQ(join_hits[j], 1u) << "v=" << v << " join slot " << j;
    }
  }
}

/// Interleaving adds, removes, and dispatches keeps exactly-once intact
/// while rules live in both the compacted segment nodes and the pending
/// tail (and while dead node entries await purge) — including a rule
/// removed and re-added at the same (definition, constant).
TEST(RoutingExactlyOnceTest, InterleavedAddRemoveStaysExact) {
  RoutingIndex idx;
  const auto make = [](std::size_t i) {
    return EventDefinition{EventTypeId("R" + std::to_string(i)),
                           {{"x", SlotFilter::observation(SensorId("SRa"))}},
                           c_attr(ValueAggregate::kAverage, "value", {0}, RelationalOp::kGt,
                                  static_cast<double>(i % 8)),
                           seconds(60),
                           {},
                           ConsumptionMode::kUnrestricted};
  };
  const TimePoint now = TimePoint::epoch();
  const Entity high(obs(1, "SRa", 0, now, {0, 0}, 100.0));  // fires every rule

  std::vector<bool> live(300, false);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    idx.add(make(i), static_cast<std::uint32_t>(i));
    live[i] = true;
    ++expected;
    if (i % 3 == 2) {
      // Remove an older rule: alternately one already compacted by the
      // dispatch below and one still pending.
      const std::size_t victim = (i / 3) * 2 % (i + 1);
      if (live[victim]) {
        idx.remove(make(victim), static_cast<std::uint32_t>(victim));
        if (i % 2 == 0) {
          idx.add(make(victim), static_cast<std::uint32_t>(victim));  // back at its constant
        } else {
          live[victim] = false;
          --expected;
        }
      }
    }
    if (i % 50 == 49) {
      // Dispatch mid-build: compacts pending into nodes, so later adds
      // and removes hit the node/pending split.
      const auto routes = collect_all(idx, high);
      expect_exactly_once(routes, "mid-build i=" + std::to_string(i));
      ASSERT_EQ(routes.size(), expected) << "mid-build i=" << i;
    }
  }
  const auto routes = collect_all(idx, high);
  expect_exactly_once(routes, "final");
  EXPECT_EQ(routes.size(), expected);
  for (const SlotRoute r : routes) EXPECT_TRUE(live[r.def_idx]) << "def " << r.def_idx;
}

}  // namespace
}  // namespace stem::core
