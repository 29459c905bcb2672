#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/routing.hpp"
#include "sim/random.hpp"

/// Engine-level migration units: extract_definition_state /
/// implant_definition_state must hand a definition's full dynamic state —
/// partial-match buffers (with cross-slot stamp identity), sequence
/// counters, horizon watermarks, spatial-index backing — to another
/// engine so the split pipeline emits exactly what one engine would have;
/// and RoutingIndex::remove must be the exact inverse of add.

namespace stem::core {
namespace {

using geom::Location;
using geom::Point;
using time_model::seconds;
using time_model::TimePoint;

PhysicalObservation obs(const char* sensor, std::uint64_t seq, TimePoint t, Point where,
                        double value) {
  PhysicalObservation o;
  o.mote = ObserverId("MT1");
  o.sensor = SensorId(sensor);
  o.seq = seq;
  o.time = t;
  o.location = Location(where);
  o.attributes.set("value", value);
  return o;
}

std::string describe(const EventInstance& i) {
  std::ostringstream os;
  os << i.key << " t=" << i.est_time << " l=" << i.est_location << " rho=" << i.confidence
     << " V=" << i.attributes << " from=[";
  for (const auto& p : i.provenance) os << p << ";";
  os << "]";
  return os.str();
}

/// A mix that exercises every piece of migrated state: a threshold (seq
/// counter continuity), a co-located second definition of the same type
/// (shared counter), a consume-mode self-join (cross-slot stamp
/// identity), and a retain-mode spatial join whose buffer crosses the
/// spatial-index activation threshold (index rebuild on implant).
std::vector<EventDefinition> state_mix() {
  std::vector<EventDefinition> defs;
  defs.push_back(EventDefinition{
      EventTypeId("TH"),
      {{"x", SlotFilter::observation(SensorId("SRa"))}},
      c_attr(ValueAggregate::kAverage, "value", {0}, RelationalOp::kGt, 50.0),
      seconds(60),
      {},
      ConsumptionMode::kConsume});
  defs.push_back(EventDefinition{
      EventTypeId("TH"),  // same type: shares TH's sequence counter
      {{"x", SlotFilter::observation(SensorId("SRb"))}},
      c_attr(ValueAggregate::kAverage, "value", {0}, RelationalOp::kGt, 70.0),
      seconds(60),
      {},
      ConsumptionMode::kConsume});
  defs.push_back(EventDefinition{
      EventTypeId("SELF"),
      {{"x", SlotFilter::observation(SensorId("SRc"))},
       {"y", SlotFilter::observation(SensorId("SRc"))}},
      c_and({c_time(0, time_model::TemporalOp::kBefore, 1),
             c_distance(0, 1, RelationalOp::kLt, 10.0)}),
      seconds(30),
      {},
      ConsumptionMode::kConsume});
  defs.push_back(EventDefinition{
      EventTypeId("NEAR"),
      {{"a", SlotFilter::observation(SensorId("SRa"))},
       {"b", SlotFilter::observation(SensorId("SRb"))}},
      c_and({c_time(0, time_model::TemporalOp::kBefore, 1),
             c_distance(0, 1, RelationalOp::kLt, 6.0)}),
      seconds(3600),  // never prunes: buffers grow past index activation
      {},
      ConsumptionMode::kUnrestricted});
  return defs;
}

struct Arrival {
  Entity entity;
  TimePoint now;
};

std::vector<Arrival> make_arrivals(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  std::vector<Arrival> out;
  TimePoint now = TimePoint::epoch();
  const char* sensors[] = {"SRa", "SRb", "SRc"};
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(50 + rng.uniform_int(0, 400));
    const TimePoint t = now - time_model::milliseconds(rng.uniform_int(0, 800));
    out.push_back(Arrival{Entity(obs(sensors[rng.uniform_int(0, 2)],
                                     static_cast<std::uint64_t>(i), t,
                                     {rng.uniform(0, 16), rng.uniform(0, 16)},
                                     rng.uniform(0, 100))),
                          now});
  }
  return out;
}

/// Splits the stream at `cut`: engine A processes everything up to it,
/// then the chosen definitions migrate to a fresh engine B, and both
/// engines see the rest of the stream (each detecting with the
/// definitions it holds, as the sharded runtime's shards do). The
/// concatenated per-arrival emissions must match one uninterrupted
/// engine exactly.
void run_split_differential(std::uint64_t seed, std::size_t cut,
                            const std::vector<std::size_t>& moved) {
  const auto defs = state_mix();
  DetectionEngine whole(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  DetectionEngine a(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  DetectionEngine b(ObserverId("OB"), Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : defs) {
    whole.add_definition(def);
    a.add_definition(def);
  }

  const auto arrivals = make_arrivals(seed, 200);
  std::vector<std::string> want;
  std::vector<std::string> got;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (i == cut) {
      for (const std::size_t d : moved) {
        b.implant_definition_state(a.extract_definition_state(d));
      }
    }
    for (const EventInstance& inst : whole.observe(arrivals[i].entity, arrivals[i].now)) {
      want.push_back(describe(inst));
    }
    // B's definitions keep their relative (registration) order in this
    // mix, so A-then-B concatenation preserves within-arrival order for
    // the moved tail; the runtime's merge handles the general reorder.
    for (const EventInstance& inst : a.observe(arrivals[i].entity, arrivals[i].now)) {
      got.push_back(describe(inst));
    }
    if (i >= cut) {
      for (const EventInstance& inst : b.observe(arrivals[i].entity, arrivals[i].now)) {
        got.push_back(describe(inst));
      }
    }
  }
  ASSERT_EQ(got.size(), want.size()) << "seed=" << seed << " cut=" << cut;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << "seed=" << seed << " cut=" << cut << " instance " << k;
  }
}

TEST(EngineMigrationTest, SplitStreamMatchesWholeAcrossCutsAndGroups) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    // Move the co-located TH pair (indices 0+1, tail of the order), the
    // consume-mode self-join, and the retain-mode spatial join.
    run_split_differential(seed, 60, {2, 3});
    run_split_differential(seed ^ 0xfeedULL, 97, {3});
    run_split_differential(seed ^ 0xbeefULL, 140, {2});
  }
}

TEST(EngineMigrationTest, SequenceCounterContinuesAcrossMigration) {
  DetectionEngine a(ObserverId("OB"), Layer::kSensor, {0, 0});
  DetectionEngine b(ObserverId("OB"), Layer::kSensor, {0, 0});
  a.add_definition(state_mix()[0]);  // TH threshold

  auto fire = [](DetectionEngine& eng, std::uint64_t seq, TimePoint t) {
    return eng.observe(Entity(obs("SRa", seq, t, {0, 0}, 90.0)), t);
  };
  const auto first = fire(a, 0, TimePoint(1000));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].key.seq, 0u);

  b.implant_definition_state(a.extract_definition_state(0));
  const auto second = fire(b, 1, TimePoint(2000));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].key.seq, 1u);  // continuous, not reset

  // Round-trip back: the counter keeps counting on A again.
  a.implant_definition_state(b.extract_definition_state(0));
  const auto third = fire(a, 2, TimePoint(3000));
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].key.seq, 2u);
}

TEST(EngineMigrationTest, DormantTypeCounterIsNeverRewound) {
  // A keeps type TH's counter after both TH definitions have left it. A
  // definition implanted back with a lower carried counter must continue
  // past A's own: the type keeps the larger of the two values.
  DetectionEngine a(ObserverId("OB"), Layer::kSensor, {0, 0});
  DetectionEngine b(ObserverId("OB"), Layer::kSensor, {0, 0});
  DetectionEngine c(ObserverId("OB"), Layer::kSensor, {0, 0});
  const auto mix = state_mix();
  ASSERT_EQ(a.add_definition(mix[0]), 0u);  // TH on SRa
  ASSERT_EQ(a.add_definition(mix[1]), 1u);  // TH on SRb, same counter
  std::vector<std::uint64_t> a_seqs;  // every TH number A emitted
  auto fire = [&](DetectionEngine& eng, const char* sensor, std::uint64_t seq) {
    const TimePoint t(1000 * static_cast<std::int64_t>(seq + 1));
    const auto out = eng.observe(Entity(obs(sensor, seq, t, {0, 0}, 90.0)), t);
    EXPECT_EQ(out.size(), 1u) << sensor;
    if (&eng == &a) {
      for (const EventInstance& inst : out) a_seqs.push_back(inst.key.seq);
    }
    return out;
  };

  fire(a, "SRa", 0);  // A: TH #0
  const std::size_t first_on_b = b.implant_definition_state(a.extract_definition_state(0));
  fire(a, "SRb", 1);  // A: TH #1
  fire(a, "SRb", 2);  // A: TH #2
  (void)c.implant_definition_state(a.extract_definition_state(1));
  ASSERT_EQ(a.definition_count(), 0u);  // no TH definition left on A

  DefinitionState back = b.extract_definition_state(first_on_b);
  ASSERT_EQ(back.seq, 1u);  // carried: below A's dormant counter (3)
  (void)a.implant_definition_state(std::move(back));
  const auto next = fire(a, "SRa", 3);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].key.seq, 3u);  // continues past A's counter
  ASSERT_EQ(a_seqs.size(), 4u);
  for (std::size_t i = 0; i + 1 < a_seqs.size(); ++i) {
    EXPECT_NE(a_seqs[i], next[0].key.seq) << "A repeated TH #" << a_seqs[i];
  }
}

TEST(EngineMigrationTest, ExtractTombstonesAndImplantReusesTheSlot) {
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0});
  const auto defs = state_mix();
  for (const EventDefinition& def : defs) eng.add_definition(def);
  ASSERT_EQ(eng.definition_count(), 4u);

  auto state = eng.extract_definition_state(1);
  EXPECT_EQ(eng.definition_count(), 3u);
  // Double extract and out-of-range extract are rejected.
  EXPECT_THROW((void)eng.extract_definition_state(1), std::out_of_range);
  EXPECT_THROW((void)eng.extract_definition_state(9), std::out_of_range);

  // The tombstoned index is reused, so indices of the other definitions
  // (and the tags of their emissions) never shift.
  EXPECT_EQ(eng.implant_definition_state(std::move(state)), 1u);
  EXPECT_EQ(eng.definition_count(), 4u);
}

TEST(EngineMigrationTest, ExtractedDefinitionStopsDetecting) {
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0});
  eng.add_definition(state_mix()[0]);
  const auto state = eng.extract_definition_state(0);
  EXPECT_EQ(state.def->id.value(), "TH");
  // No routing entries remain: the arrival is not even counted as routed.
  const auto out = eng.observe(Entity(obs("SRa", 0, TimePoint(1000), {0, 0}, 99.0)),
                               TimePoint(1000));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(eng.stats().bindings_tried, 0u);
}

TEST(EngineMigrationTest, RegisteredSpecIsSharedNotCopied) {
  // One immutable spec per definition: snapshot, extract and an implant
  // -> extract round trip all hand back the pointer that was registered.
  const auto mix = state_mix();
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0});
  std::vector<std::shared_ptr<const EventDefinition>> specs;
  for (const EventDefinition& def : mix) {
    specs.push_back(std::make_shared<const EventDefinition>(def));
    eng.add_definition(specs.back());
  }
  const TimePoint t0(1'000'000);
  (void)eng.observe(Entity(obs("SRc", 0, t0, {1, 1}, 10.0)), t0);
  for (std::size_t d = 0; d < specs.size(); ++d) {
    EXPECT_EQ(eng.snapshot_definition_state(d).def.get(), specs[d].get()) << d;
  }

  DefinitionState state = eng.extract_definition_state(2);
  EXPECT_EQ(state.def.get(), specs[2].get());
  DetectionEngine other(ObserverId("OB"), Layer::kSensor, {0, 0});
  const std::size_t local = other.implant_definition_state(std::move(state));
  EXPECT_EQ(other.snapshot_definition_state(local).def.get(), specs[2].get());
  EXPECT_EQ(other.extract_definition_state(local).def.get(), specs[2].get());
  // The engines share the spec; the test's handle and nothing else holds
  // it now that both have let it go.
  EXPECT_EQ(specs[2].use_count(), 1);

  EXPECT_THROW(eng.add_definition(std::shared_ptr<const EventDefinition>()),
               std::invalid_argument);
  EXPECT_EQ(eng.definition_count(), specs.size() - 1);
}

TEST(EngineMigrationTest, BufferedStateCarriesWatermarkAndLoads) {
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0});
  eng.add_definition(state_mix()[2]);  // SELF join, 30 s window
  const TimePoint t0(1'000'000);
  (void)eng.observe(Entity(obs("SRc", 0, t0, {1, 1}, 10.0)), t0);

  const auto state = eng.extract_definition_state(0);
  ASSERT_EQ(state.buffers.size(), 2u);
  EXPECT_EQ(state.buffers[0].size() + state.buffers[1].size(), 2u);  // both slots buffer it
  // Watermark = occurrence end + window, exactly.
  EXPECT_EQ(state.next_prune_at, t0 + seconds(30));
  EXPECT_EQ(state.load_routed, 1u);
  EXPECT_GE(state.load_tried, 1u);
}

TEST(EngineMigrationTest, DefinitionLoadsAttributePerDefinition) {
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0});
  const auto defs = state_mix();
  for (const EventDefinition& def : defs) eng.add_definition(def);
  const TimePoint t(1000);
  (void)eng.observe(Entity(obs("SRa", 0, t, {0, 0}, 90.0)), t);  // TH + NEAR slot a
  (void)eng.observe(Entity(obs("SRc", 1, t, {0, 0}, 90.0)), t);  // SELF

  std::vector<std::pair<std::uint32_t, DefinitionLoad>> loads;
  eng.collect_definition_loads(loads);
  ASSERT_EQ(loads.size(), 4u);
  EXPECT_EQ(loads[0].second.routed, 1u);  // TH (SRa)
  EXPECT_EQ(loads[1].second.routed, 0u);  // TH' (SRb) never routed
  EXPECT_EQ(loads[2].second.routed, 1u);  // SELF (SRc)
  EXPECT_EQ(loads[3].second.routed, 1u);  // NEAR (SRa slot)
  EXPECT_EQ(loads[3].second.buffered, 1u);  // retained in NEAR's slot-a buffer
}

TEST(EngineMigrationTest, ImplantEnforcesDestinationBufferCap) {
  // Source engine buffers generously; the destination's smaller
  // max_buffer must hold after implant (oldest imports evicted), or the
  // over-cap state would persist indefinitely.
  EngineOptions big;
  big.max_buffer = 64;
  DetectionEngine src(ObserverId("OB"), Layer::kSensor, {0, 0}, big);
  src.add_definition(state_mix()[3]);  // NEAR retain-mode join, never prunes
  const TimePoint t0(1'000'000);
  for (int i = 0; i < 20; ++i) {
    (void)src.observe(Entity(obs("SRa", static_cast<std::uint64_t>(i),
                                 t0 + seconds(i), {100.0 + i, 100.0}, 1.0)),
                      t0 + seconds(i));
  }
  auto state = src.extract_definition_state(0);
  ASSERT_EQ(state.buffers[0].size(), 20u);

  EngineOptions small;
  small.max_buffer = 4;
  DetectionEngine dst(ObserverId("OB"), Layer::kSensor, {0, 0}, small);
  dst.implant_definition_state(std::move(state));
  EXPECT_EQ(dst.stats().evicted, 16u);  // 20 imported - cap 4

  std::vector<std::pair<std::uint32_t, DefinitionLoad>> loads;
  dst.collect_definition_loads(loads);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].second.buffered, 4u);  // slot a at the cap, slot b empty
}

// ---------------------------------------------------------------------------
// RoutingIndex incremental removal.
// ---------------------------------------------------------------------------

std::vector<SlotRoute> collect_all(RoutingIndex& idx, const Entity& e) {
  std::vector<SlotRoute> out;
  idx.collect(e, out, [](const SlotRoute&) { return true; });
  return out;
}

TEST(RoutingRemoveTest, RemoveIsInverseOfAdd) {
  const auto defs = state_mix();
  RoutingIndex idx;
  for (std::uint32_t d = 0; d < defs.size(); ++d) idx.add(defs[d], d);

  const Entity ea(obs("SRa", 0, TimePoint(10), {0, 0}, 80.0));
  ASSERT_EQ(collect_all(idx, ea).size(), 2u);  // TH threshold + NEAR slot a

  // A removed threshold re-added at the same (definition, constant)
  // dispatches once again (its first registration was still pending).
  idx.remove(defs[0], 0);
  idx.add(defs[0], 0);
  ASSERT_EQ(collect_all(idx, ea).size(), 2u);

  idx.remove(defs[0], 0);
  const auto after = collect_all(idx, ea);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].def_idx, 3u);  // NEAR remains

  idx.remove(defs[3], 3);
  EXPECT_TRUE(collect_all(idx, ea).empty());

  // Removing again (or removing a never-added registration) is a logic
  // error, not silent corruption.
  EXPECT_THROW(idx.remove(defs[0], 0), std::logic_error);
}

TEST(RoutingRemoveTest, WildcardAndKeyedBucketsEmptyCleanly) {
  const auto defs = state_mix();
  EventDefinition wild{EventTypeId("W"),
                       {{"w", SlotFilter::any()}},
                       c_attr(ValueAggregate::kAverage, "value", {0}, RelationalOp::kGt, 0.0),
                       seconds(60),
                       {},
                       ConsumptionMode::kConsume};
  RoutingIndex idx;
  idx.add(wild, 0);
  idx.add(defs[2], 1);  // SELF: two keyed slots on SRc

  const Entity ec(obs("SRc", 0, TimePoint(10), {0, 0}, 1.0));
  ASSERT_EQ(collect_all(idx, ec).size(), 3u);  // wildcard + 2 slots

  idx.remove(defs[2], 1);
  ASSERT_EQ(collect_all(idx, ec).size(), 1u);  // wildcard only
  idx.remove(wild, 0);
  EXPECT_TRUE(collect_all(idx, ec).empty());
}

}  // namespace
}  // namespace stem::core
