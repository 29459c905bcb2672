#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Differential *migration* suite: the sharded runtime's merged stream,
/// with definitions forcibly migrated between shards mid-stream,
/// must stay byte-identical to a single sequential DetectionEngine fed
/// the same arrivals — across shard counts {2, 4, 8} x ingest batch sizes
/// {1, 64} x skew profiles {uniform, 90/10} x consumption modes, with >= 3
/// migrations per run landing at different stream positions. On top of
/// the exact-equality runs, a soak test drives the *adaptive* path: a
/// skewed workload with automatic epoch rebalancing must narrow the
/// per-shard arrival-load spread versus rebalancing disabled, with no
/// instance lost, duplicated, or reordered and inbox depth bounded by the
/// configured capacity. plan_spillover's decision rules get direct units
/// at the bottom.

namespace stem::runtime {
namespace {

using core::ConsumptionMode;
using core::DetectionEngine;
using core::EventDefinition;
using core::EventInstance;
using core::EventTypeId;
using core::ObserverId;
using core::SensorId;
using core::SlotFilter;
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

core::PhysicalObservation obs(int mote, const std::string& sensor, std::uint64_t seq,
                              TimePoint t, Point p, double value) {
  core::PhysicalObservation o;
  o.mote = ObserverId("MT" + std::to_string(mote));
  o.sensor = SensorId(sensor);
  o.seq = seq;
  o.time = t;
  o.location = Location(p);
  o.attributes.set("value", value);
  return o;
}

/// The definition mix of tests/runtime_shard_test.cpp — keyed thresholds,
/// spatial/temporal joins, a self-binding pair, two definitions *sharing
/// an event type* (migrate_definition moves them together), a wildcard single-slot
/// definition and a wildcard join slot — so migrations are exercised for
/// every placement/routing rule, including moving the full-stream
/// wildcard definition and moving a retain-mode definition whose
/// buffers are large enough to carry spatial-index state.
std::vector<EventDefinition> migration_definitions(ConsumptionMode mode, const std::string& tag) {
  std::vector<EventDefinition> defs;

  EventDefinition hot{EventTypeId("HOT_" + tag),
                      {{"x", SlotFilter::observation(SensorId("SRa"))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 60.0),
                      seconds(60),
                      {},
                      mode};
  hot.synthesis.attributes.push_back(
      core::AttributeRule{"value", core::ValueAggregate::kMax, "value", {0}});
  defs.push_back(hot);

  // Same event type as HOT: the pair is co-located and moves together.
  defs.push_back(EventDefinition{EventTypeId("HOT_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRb"))}},
                                 core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                              core::RelationalOp::kGt, 40.0),
                                 seconds(60),
                                 {},
                                 mode});

  defs.push_back(EventDefinition{EventTypeId("NEAR_" + tag),
                                 {{"a", SlotFilter::observation(SensorId("SRa"))},
                                  {"b", SlotFilter::observation(SensorId("SRb"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 8.0)}),
                                 seconds(4),
                                 {},
                                 mode});

  // Self-binding pair: both slots accept the same sensor (the imported-
  // stamp identity rule is what keeps its dedup correct post-migration).
  defs.push_back(EventDefinition{EventTypeId("PAIR_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRc"))},
                                  {"y", SlotFilter::observation(SensorId("SRc"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 12.0)}),
                                 seconds(5),
                                 {},
                                 mode});

  // Wildcard single-slot definition: its host shard receives every
  // arrival — migrating it re-routes the full stream.
  defs.push_back(EventDefinition{EventTypeId("WILD_" + tag),
                                 {{"w", SlotFilter::any()}},
                                 core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                              core::RelationalOp::kGt, 85.0),
                                 seconds(60),
                                 {},
                                 mode});

  defs.push_back(EventDefinition{EventTypeId("WNEAR_" + tag),
                                 {{"w", SlotFilter::any()},
                                  {"b", SlotFilter::observation(SensorId("SRb"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 6.0)}),
                                 seconds(3),
                                 {},
                                 mode});

  defs.push_back(EventDefinition{
      EventTypeId("TRIO_" + tag),
      {{"a", SlotFilter::observation(SensorId("SRa"))},
       {"b", SlotFilter::observation(SensorId("SRb"))},
       {"c", SlotFilter::observation(SensorId("SRc"))}},
      core::c_and(
          {core::c_distance(0, 1, core::RelationalOp::kLt, 9.0),
           core::c_or({core::c_distance(1, 2, core::RelationalOp::kLt, 6.0),
                       core::c_attr(core::ValueAggregate::kMin, "value", {0, 1, 2},
                                    core::RelationalOp::kGt, 75.0)})}),
      seconds(3),
      {},
      mode});

  return defs;
}

struct Stream {
  std::vector<core::Entity> entities;
  std::vector<TimePoint> nows;
};

/// skew_hot = 0: uniform over 4 sensors. Otherwise the probability that
/// an arrival comes from the hot sensor SRa (e.g. 0.9 for 90/10).
Stream make_stream(std::uint64_t seed, int n, double skew_hot) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const char* sensors[] = {"SRa", "SRb", "SRc", "SRd"};  // SRd only matches wildcards
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(100 + rng.uniform_int(0, 900));
    const char* sensor;
    if (skew_hot > 0.0 && rng.chance(skew_hot)) {
      sensor = sensors[0];
    } else {
      sensor = sensors[rng.uniform_int(0, 3)];
    }
    const TimePoint t = now - time_model::milliseconds(rng.uniform_int(0, 1500));
    s.entities.push_back(core::Entity(obs(static_cast<int>(rng.uniform_int(1, 4)), sensor,
                                          static_cast<std::uint64_t>(i), t,
                                          {rng.uniform(0, 24), rng.uniform(0, 24)},
                                          rng.uniform(0, 100))));
    s.nows.push_back(now);
  }
  return s;
}

/// Feeds `stream` through a sharded runtime in `batch_size` batches with
/// `migrations` forced at deterministic seed-derived stream positions,
/// and asserts exact stream equality against the sequential engine plus
/// counter conservation. Every migration must actually be issued.
void run_migration_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                                ConsumptionMode mode, double skew_hot, const std::string& tag,
                                std::size_t migrations = 4, std::size_t queue_capacity = 4096,
                                std::size_t near_dups = 0) {
  RuntimeOptions options;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  auto defs = migration_definitions(mode, tag);
  const std::size_t base_defs = defs.size();
  // Near-duplicate family: identical filters and windows (each shard
  // engine collapses co-located members into shared plan nodes), varying
  // only the radius and output type. Forced migrations below target this
  // range, so a subscription regularly moves out of a shared stream while
  // co-subscribers keep theirs.
  for (std::size_t i = 0; i < near_dups; ++i) {
    defs.push_back(EventDefinition{
        EventTypeId("DUP" + std::to_string(i) + "_" + tag),
        {{"a", SlotFilter::observation(SensorId("SRa"))},
         {"b", SlotFilter::observation(SensorId("SRb"))}},
        core::c_distance(0, 1, core::RelationalOp::kLt, 3.0 + static_cast<double>(i % 5)),
        seconds(30),
        {},
        mode});
  }
  for (const EventDefinition& def : defs) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const Stream stream = make_stream(seed, 320, skew_hot);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }

  // Deterministic seed-derived migration plan: >= 3 moves at distinct
  // mid-stream positions, cycling over definitions (so every definition kind —
  // co-located pair, wildcard host, joins — migrates across runs) and
  // over destination shards.
  sim::Rng plan(seed ^ 0x9e3779b97f4a7c15ULL);
  // Positions are batch boundaries so every planned migration actually
  // lands mid-stream (the ingest loop only stops at multiples of the
  // batch size).
  const auto last_batch =
      static_cast<std::int64_t>((stream.entities.size() - 1) / batch_size);
  std::vector<std::size_t> at(migrations);
  for (std::size_t m = 0; m < migrations; ++m) {
    at[m] = static_cast<std::size_t>(plan.uniform_int(1, last_batch)) * batch_size;
  }
  std::sort(at.begin(), at.end());
  std::size_t next_mig = 0;
  std::uint64_t issued = 0;

  std::vector<std::string> got;
  const auto collect = [&](std::vector<EventInstance> instances) {
    for (const EventInstance& inst : instances) got.push_back(describe(inst));
  };
  const std::string ctx = tag + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size) +
                          " skew=" + std::to_string(skew_hot);
  {
    const oracle::RunDeadline deadline(sharded, ctx);
    for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
      while (next_mig < at.size() && at[next_mig] <= i) {
        // With a near-duplicate family present, move its members: the point
        // is migrating subscriptions out of shared plan nodes mid-stream.
        const auto def =
            near_dups > 0
                ? base_defs + static_cast<std::size_t>(plan.uniform_int(
                                  0, static_cast<std::int64_t>(near_dups) - 1))
                : static_cast<std::size_t>(plan.uniform_int(
                      0, static_cast<std::int64_t>(sharded.definition_count()) - 1));
        const auto to = static_cast<std::size_t>(
            plan.uniform_int(0, static_cast<std::int64_t>(shards) - 1));
        // Force a real move: if the definition already lives on `to`, push it to
        // the next shard instead.
        if (!sharded.migrate_definition(def, to)) {
          ASSERT_TRUE(sharded.migrate_definition(def, (to + 1) % shards));
        }
        ++issued;
        ++next_mig;
      }
      const std::size_t n = std::min(batch_size, stream.entities.size() - i);
      sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                           std::span(stream.nows).subspan(i, n));
      collect(sharded.poll());
    }
    collect(oracle::flush_within(sharded, ctx));
  }

  ASSERT_GE(issued, 3u) << ctx;
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << ctx << " instance " << k;
  }

  // Conservation at quiescence: every instance merged exactly once, every
  // delivery observed by exactly one shard engine, migrations all issued.
  const RuntimeStats stats = sharded.stats();
  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.engine.instances_out, stats.instances) << ctx;
  EXPECT_EQ(stats.engine.entities_in, stats.deliveries) << ctx;
  EXPECT_EQ(stats.migrations, issued) << ctx;
  EXPECT_EQ(stats.arrivals + stats.dropped, stream.entities.size()) << ctx;
}

class MigrationDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationDifferentialTest, UniformStreamsMatchUnderForcedMigrations) {
  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t batch : {1u, 64u}) {
      run_migration_differential(GetParam(), shards, batch, ConsumptionMode::kUnrestricted,
                                 0.0, "MU");
    }
  }
}

TEST_P(MigrationDifferentialTest, SharedPlanMembersMigrateWithoutDisturbingCoSubscribers) {
  // A 12-strong near-duplicate family shares slot streams inside each
  // shard engine; every forced migration extracts one member (private
  // carried buffers, co-subscribers untouched) and implants it elsewhere
  // (possibly joining another shard's family). The merged stream must
  // stay byte-identical throughout.
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t batch : {1u, 64u}) {
      run_migration_differential(GetParam() ^ 0xd0bULL, shards, batch,
                                 ConsumptionMode::kUnrestricted, 0.0, "NP", 6, 4096, 12);
    }
  }
}

TEST_P(MigrationDifferentialTest, SkewedStreamsMatchUnderForcedMigrations) {
  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t batch : {1u, 64u}) {
      run_migration_differential(GetParam() ^ 0x5eedULL, shards, batch, ConsumptionMode::kConsume,
                                 0.9, "MS");
    }
  }
}

TEST_P(MigrationDifferentialTest, AutomaticRebalancingKeepsStreamEqual) {
  // The adaptive path end to end: tight epochs + a skewed stream make the
  // default policy migrate on its own; the stream must stay exact.
  RuntimeOptions options;
  options.shards = 4;
  options.rebalance_epoch = 48;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def :
       migration_definitions(ConsumptionMode::kUnrestricted, "AR")) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  const Stream stream = make_stream(GetParam() ^ 0xab1eULL, 640, 0.9);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }
  std::vector<std::string> got;
  {
    const std::string ctx = "AR seed=" + std::to_string(GetParam());
    const oracle::RunDeadline deadline(sharded, ctx);
    for (std::size_t i = 0; i < stream.entities.size(); i += 16) {
      const std::size_t n = std::min<std::size_t>(16, stream.entities.size() - i);
      sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                           std::span(stream.nows).subspan(i, n));
      for (const EventInstance& inst : sharded.poll()) got.push_back(describe(inst));
    }
    for (const EventInstance& inst : oracle::flush_within(sharded, ctx)) {
      got.push_back(describe(inst));
    }
  }

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k], want[k]) << "instance " << k;
  EXPECT_GT(sharded.stats().rebalance_passes, 0u);
}

TEST_P(MigrationDifferentialTest, TinyCapacityStreamsMatchUnderForcedMigrations) {
  // capacity {1,2}: the migration control pair must interleave exactly at
  // its barrier while arrival producers sit in permanent backpressure and
  // capacity-exempt controls queue past the bound.
  for (const std::size_t capacity : {1u, 2u}) {
    run_migration_differential(GetParam() ^ 0x2f9ULL, 4, 1, ConsumptionMode::kUnrestricted,
                               0.0, "MT" + std::to_string(capacity), 4, capacity);
    run_migration_differential(GetParam() ^ 0x2faULL, 2, 64, ConsumptionMode::kConsume,
                               0.9, "MT" + std::to_string(capacity) + "b", 4, capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationDifferentialTest, ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---------------------------------------------------------------------------
// Soak: continuous adaptive rebalancing under a 90/10 skewed workload.
// ---------------------------------------------------------------------------

/// 16 single-slot threshold groups over 16 sensors. Registration order
/// round-robins them over the shards, so the 4 hot sensors below — the
/// sensors of definitions {0, 4, 8, 12} — all land on shard 0 and the
/// skewed stream pins it until the rebalancer spreads them.
std::vector<EventDefinition> soak_definitions() {
  std::vector<EventDefinition> defs;
  for (int i = 0; i < 16; ++i) {
    defs.push_back(EventDefinition{
        EventTypeId("SOAK" + std::to_string(i)),
        {{"x", SlotFilter::observation(SensorId("SK" + std::to_string(i)))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
        seconds(60),
        {},
        ConsumptionMode::kConsume});
  }
  return defs;
}

Stream make_soak_stream(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const int hot[] = {0, 4, 8, 12};  // initially co-located on shard 0
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(1 + rng.uniform_int(0, 9));
    int sensor;
    if (rng.chance(0.9)) {
      sensor = hot[rng.uniform_int(0, 3)];
    } else {
      sensor = static_cast<int>(rng.uniform_int(0, 15));
    }
    s.entities.push_back(core::Entity(obs(1, "SK" + std::to_string(sensor),
                                          static_cast<std::uint64_t>(i), now,
                                          {rng.uniform(0, 24), rng.uniform(0, 24)},
                                          rng.uniform(0, 100))));
    s.nows.push_back(now);
  }
  return s;
}

struct SoakResult {
  std::vector<std::string> stream;
  double load_ratio = 0.0;  ///< max/mean per-shard routed arrivals
  RuntimeStats stats;
};

SoakResult run_soak(const Stream& stream, std::size_t rebalance_epoch,
                    std::size_t queue_capacity) {
  RuntimeOptions options;
  options.shards = 4;
  options.queue_capacity = queue_capacity;
  options.rebalance_epoch = rebalance_epoch;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def : soak_definitions()) rt.add_definition(def);

  SoakResult r;
  for (std::size_t i = 0; i < stream.entities.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, stream.entities.size() - i);
    rt.ingest_batch(std::span(stream.entities).subspan(i, n),
                    std::span(stream.nows).subspan(i, n));
    for (const EventInstance& inst : rt.poll()) r.stream.push_back(describe(inst));
  }
  for (const EventInstance& inst : oracle::flush_within(rt, "soak")) {
    r.stream.push_back(describe(inst));
  }

  const std::vector<std::uint64_t> loads = rt.shard_arrival_loads();
  const auto total = static_cast<double>(
      std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}));
  const auto peak = static_cast<double>(*std::max_element(loads.begin(), loads.end()));
  r.load_ratio = peak / (total / static_cast<double>(loads.size()));
  r.stats = rt.stats();
  return r;
}

TEST(RebalanceSoakTest, SkewedLoadSpreadNarrowsWithNoLossOrDuplication) {
  const Stream stream = make_soak_stream(7, 24'000);

  // Sequential reference for exactness.
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  for (const EventDefinition& def : soak_definitions()) sequential.add_definition(def);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }

  constexpr std::size_t kQueue = 256;
  const SoakResult off = run_soak(stream, /*rebalance_epoch=*/0, kQueue);
  const SoakResult on = run_soak(stream, /*rebalance_epoch=*/1024, kQueue);

  // Exactness under continuous rebalancing: nothing lost, duplicated, or
  // reordered — byte-identical to the sequential engine (and to the
  // static-placement run).
  ASSERT_EQ(on.stream.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(on.stream[k], want[k]) << "instance " << k;
  }
  ASSERT_EQ(off.stream, want);

  // The default policy must have migrated the hot definitions off shard 0 and
  // measurably narrowed the arrival-load spread. Static placement pins
  // ~90% of the stream on one of 4 shards (ratio ~3.6); spreading the
  // four hot definitions brings the ratio towards 1.
  std::cout << "[soak] max/mean arrival-load ratio: off=" << off.load_ratio
            << " on=" << on.load_ratio << " (migrations=" << on.stats.migrations
            << ", passes=" << on.stats.rebalance_passes << ")\n";
  EXPECT_GT(on.stats.migrations, 0u);
  EXPECT_GE(off.load_ratio, 3.0);
  EXPECT_LT(on.load_ratio, 0.7 * off.load_ratio);

  // Backpressure bounds inbox depth in both runs.
  EXPECT_LE(off.stats.max_inbox, kQueue);
  EXPECT_LE(on.stats.max_inbox, kQueue);
}

// ---------------------------------------------------------------------------
// Deliveries follow placement exactly.
// ---------------------------------------------------------------------------

/// One registered definition as ingest routing sees it: its sensor key,
/// and the constant of its single-slot `value > C` threshold (none for a
/// generic definition, which every arrival on its key reaches).
struct RouteSpec {
  std::string key;
  std::optional<double> above;
};

/// Per key K0..K3: a threshold TH_k (value > 10 + 20k) and a two-slot
/// generic self-join PAIR_k, plus one event type GRP with a value > 50
/// threshold per key, whose definitions move_definitions can spread.
/// Key KX has no definition, so its arrivals are dropped.
std::vector<EventDefinition> placement_definitions(std::vector<RouteSpec>& specs) {
  std::vector<EventDefinition> defs;
  const auto threshold = [&](const std::string& type, const std::string& key, double c) {
    defs.push_back(EventDefinition{
        EventTypeId(type),
        {{"x", SlotFilter::observation(SensorId(key))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, c),
        seconds(60),
        {},
        ConsumptionMode::kConsume});
    specs.push_back(RouteSpec{key, c});
  };
  for (int k = 0; k < 4; ++k) {
    const std::string key = "K" + std::to_string(k);
    threshold("TH" + std::to_string(k), key, 10.0 + 20.0 * k);
    defs.push_back(EventDefinition{EventTypeId("PAIR" + std::to_string(k)),
                                   {{"x", SlotFilter::observation(SensorId(key))},
                                    {"y", SlotFilter::observation(SensorId(key))}},
                                   core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                   seconds(5),
                                   {},
                                   ConsumptionMode::kConsume});
    specs.push_back(RouteSpec{key, std::nullopt});
  }
  for (int k = 0; k < 4; ++k) threshold("GRP", "K" + std::to_string(k), 50.0);
  return defs;
}

/// Ingests one burst (every key x a spread of values) and asserts the
/// exact per-shard arrival loads and delivery counters it adds, computed
/// from the current placement: an arrival reaches shard_of(d) for every
/// definition d on its key whose threshold (if any) the value exceeds.
void expect_burst_follows_placement(ShardedEngineRuntime& rt, const std::vector<RouteSpec>& specs,
                                    TimePoint& now, const std::string& ctx) {
  std::vector<core::Entity> entities;
  std::vector<TimePoint> nows;
  std::vector<std::uint64_t> want_loads(rt.shard_count(), 0);
  std::uint64_t want_deliveries = 0;
  std::uint64_t want_replicated = 0;
  std::uint64_t want_dropped = 0;
  for (const double value : {5.0, 15.0, 35.0, 55.0, 75.0, 95.0}) {
    for (const char* key : {"K0", "K1", "K2", "K3", "KX"}) {
      now += time_model::milliseconds(100);
      entities.emplace_back(obs(1, key, entities.size(), now, {0, 0}, value));
      nows.push_back(now);
      std::uint64_t mask = 0;
      for (std::size_t d = 0; d < specs.size(); ++d) {
        if (specs[d].key != key) continue;
        if (specs[d].above.has_value() && !(value > *specs[d].above)) continue;
        mask |= std::uint64_t{1} << rt.shard_of(d);
      }
      if (mask == 0) {
        ++want_dropped;
        continue;
      }
      const auto fanout = static_cast<std::uint64_t>(std::popcount(mask));
      want_deliveries += fanout;
      want_replicated += fanout - 1;
      for (std::size_t s = 0; s < rt.shard_count(); ++s) want_loads[s] += (mask >> s) & 1;
    }
  }

  const std::vector<std::uint64_t> loads_before = rt.shard_arrival_loads();
  const RuntimeStats before = rt.stats();
  rt.ingest_batch(entities, nows);
  const std::vector<std::uint64_t> loads_after = rt.shard_arrival_loads();
  const RuntimeStats after = rt.stats();
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    EXPECT_EQ(loads_after[s] - loads_before[s], want_loads[s]) << ctx << " shard " << s;
  }
  EXPECT_EQ(after.deliveries - before.deliveries, want_deliveries) << ctx;
  EXPECT_EQ(after.replicated - before.replicated, want_replicated) << ctx;
  EXPECT_EQ(after.dropped - before.dropped, want_dropped) << ctx;
  (void)rt.poll();
}

TEST(PlacementDeliveryTest, DeliveriesFollowPlacementThroughMovesApartAndTogether) {
  for (const bool cascade : {false, true}) {
    RuntimeOptions options;
    options.shards = 4;
    options.cascade = cascade;
    ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
    std::vector<RouteSpec> specs;
    for (const EventDefinition& def : placement_definitions(specs)) rt.add_definition(def);
    constexpr std::size_t kTh0 = 0;
    constexpr std::size_t kPair1 = 3;
    constexpr std::size_t kGrp = 8;  // first GRP definition; GRP spans 8..11
    const auto next_shard = [&](std::size_t d) {
      return (rt.shard_of(d) + 1) % rt.shard_count();
    };

    const std::string mode = cascade ? "cascade" : "plain";
    TimePoint now = TimePoint::epoch();
    const oracle::RunDeadline deadline(rt, mode);
    expect_burst_follows_placement(rt, specs, now, mode + " initial");

    ASSERT_TRUE(rt.migrate_definition(kTh0, next_shard(kTh0)));
    expect_burst_follows_placement(rt, specs, now, mode + " after moving TH0");
    ASSERT_TRUE(rt.migrate_definition(kPair1, next_shard(kPair1)));
    expect_burst_follows_placement(rt, specs, now, mode + " after moving PAIR1");

    // Two of GRP's four definitions apart from the other two.
    const std::size_t primary = rt.shard_of(kGrp);
    const std::size_t away = (primary + 1) % rt.shard_count();
    const std::size_t pair[] = {kGrp + 2, kGrp + 3};
    ASSERT_TRUE(rt.move_definitions(pair, away));
    ASSERT_EQ(rt.shard_of(kGrp + 1), primary);
    ASSERT_EQ(rt.shard_of(kGrp + 2), away);
    ASSERT_EQ(rt.shard_of(kGrp + 3), away);
    expect_burst_follows_placement(rt, specs, now, mode + " after moving two GRP apart");

    // migrate_definition carries the pair on to a third shard together.
    const std::size_t third = (away + 1) % rt.shard_count();
    ASSERT_TRUE(rt.migrate_definition(kGrp + 2, third));
    ASSERT_EQ(rt.shard_of(kGrp + 3), third);
    ASSERT_EQ(rt.shard_of(kGrp), primary);
    expect_burst_follows_placement(rt, specs, now, mode + " after moving the pair on");

    // One call gathers GRP from two shards onto a fourth: one control
    // pair per source shard.
    const std::size_t fourth = (third + 1) % rt.shard_count();
    const std::size_t grp[] = {kGrp, kGrp + 1, kGrp + 2, kGrp + 3};
    ASSERT_TRUE(rt.move_definitions(grp, fourth));
    for (std::size_t d = kGrp; d < specs.size(); ++d) ASSERT_EQ(rt.shard_of(d), fourth);
    expect_burst_follows_placement(rt, specs, now, mode + " after gathering GRP");

    ASSERT_TRUE(rt.migrate_definition(kGrp, next_shard(kGrp)));
    expect_burst_follows_placement(rt, specs, now, mode + " after moving GRP");

    (void)oracle::flush_within(rt, mode);
    const RuntimeStats stats = rt.stats();
    EXPECT_EQ(stats.migrations, 7u) << mode;  // the gathering issued two
    // The pair apart, then on, and the gathering's first control pair
    // (the pair still sat on the third shard after it).
    EXPECT_EQ(stats.splits, 3u) << mode;
    EXPECT_EQ(stats.arrivals + stats.dropped, 7u * 30u) << mode;
  }
}

// ---------------------------------------------------------------------------
// Migration bookkeeping units.
// ---------------------------------------------------------------------------

TEST(MigrationApiTest, SameTypeDefinitionsMoveTogetherAndBookkeepingFollows) {
  RuntimeOptions options;
  options.shards = 4;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       migration_definitions(ConsumptionMode::kUnrestricted, "BK")) {
    rt.add_definition(def);
  }
  // Definitions 0 and 1 share an event type: co-located at registration.
  ASSERT_EQ(rt.shard_of(0), rt.shard_of(1));

  const std::size_t target = (rt.shard_of(0) + 1) % rt.shard_count();
  EXPECT_TRUE(rt.migrate_definition(0, target));
  EXPECT_EQ(rt.shard_of(0), target);
  EXPECT_EQ(rt.shard_of(1), target);  // same-type definitions moved together
  EXPECT_FALSE(rt.migrate_definition(1, target));  // already there
  const std::size_t both[] = {0, 1};
  EXPECT_FALSE(rt.move_definitions(both, target));  // already there
  EXPECT_EQ(rt.stats().migrations, 1u);
  EXPECT_EQ(rt.stats().splits, 0u);

  EXPECT_THROW((void)rt.migrate_definition(99, 0), std::out_of_range);
  EXPECT_THROW((void)rt.migrate_definition(0, 99), std::out_of_range);
  const std::size_t unknown[] = {99};
  EXPECT_THROW((void)rt.move_definitions(unknown, 0), std::out_of_range);
  EXPECT_THROW((void)rt.move_definitions(both, 99), std::out_of_range);

  // Registration is closed once placement went dynamic.
  EXPECT_THROW(rt.add_definition(migration_definitions(ConsumptionMode::kConsume, "BK2")[0]),
               std::logic_error);
  EXPECT_TRUE(oracle::flush_within(rt, "bookkeeping").empty());
}

TEST(MigrationApiTest, MigratedDefinitionKeepsDetectingOnNewShard) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  rt.add_definition(EventDefinition{
      EventTypeId("D"),
      {{"x", SlotFilter::observation(SensorId("SR"))}},
      core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
      seconds(60),
      {},
      ConsumptionMode::kConsume});
  rt.ingest(core::Entity(obs(1, "SR", 0, TimePoint(1000), {0, 0}, 80.0)), TimePoint(1000));
  EXPECT_TRUE(rt.migrate_definition(0, 1 - rt.shard_of(0)));
  rt.ingest(core::Entity(obs(1, "SR", 1, TimePoint(2000), {0, 0}, 90.0)), TimePoint(2000));
  const auto out = oracle::flush_within(rt, "migrated detection");
  ASSERT_EQ(out.size(), 2u);
  // Sequence numbers are continuous across the migration.
  EXPECT_EQ(out[0].key.seq + 1, out[1].key.seq);
}

// ---------------------------------------------------------------------------
// plan_spillover decision units.
// ---------------------------------------------------------------------------

TEST(PlanSpilloverTest, MigratesHighestCostDefinitionOffHotShard) {
  const std::vector<std::uint64_t> shard_load = {900, 50, 30, 20};
  const std::vector<DefinitionCost> defs = {
      {0, 0, 500, true}, {1, 0, 400, true}, {2, 1, 50, true}, {3, 2, 30, true}, {4, 3, 20, true}};
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, defs}, SpilloverOptions{}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].def, 0u);  // the 500-cost definition
  EXPECT_EQ(out[0].to, 3u);     // the least-loaded shard
}

TEST(PlanSpilloverTest, LeavesIndivisibleHotDefinitionAlone) {
  // One definition is the whole hot load: moving it would just move the
  // hotspot, so the strict-improvement rule must reject the migration.
  const std::vector<std::uint64_t> shard_load = {1000, 10, 10, 10};
  const std::vector<DefinitionCost> defs = {
      {0, 0, 1000, true}, {1, 1, 10, true}, {2, 2, 10, true}, {3, 3, 10, true}};
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, defs}, SpilloverOptions{}, out);
  EXPECT_TRUE(out.empty());
}

TEST(PlanSpilloverTest, SkipsUnmovableDefinitionsAndBalancedShards) {
  {
    // Hot shard, but its big definition is mid-move: pick the next one.
    const std::vector<std::uint64_t> shard_load = {900, 50, 30, 20};
    const std::vector<DefinitionCost> defs = {
        {0, 0, 500, false}, {1, 0, 400, true}, {2, 1, 50, true}, {3, 2, 30, true},
        {4, 3, 20, true}};
    std::vector<MigrationOrder> out;
    plan_spillover(RebalanceView{shard_load, defs}, SpilloverOptions{}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].def, 1u);
  }
  {
    // Balanced cluster: nothing above 1.5x mean, no orders.
    const std::vector<std::uint64_t> shard_load = {100, 110, 90, 100};
    const std::vector<DefinitionCost> defs = {
        {0, 0, 100, true}, {1, 1, 110, true}, {2, 2, 90, true}, {3, 3, 100, true}};
    std::vector<MigrationOrder> out;
    plan_spillover(RebalanceView{shard_load, defs}, SpilloverOptions{}, out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(PlanSpilloverTest, HonorsMigrationCap) {
  SpilloverOptions opts;
  opts.max_migrations = 1;
  const std::vector<std::uint64_t> shard_load = {900, 800, 10, 10};
  const std::vector<DefinitionCost> defs = {
      {0, 0, 450, true}, {1, 0, 450, true}, {2, 1, 400, true}, {3, 1, 400, true},
      {4, 2, 10, true},  {5, 3, 10, true}};
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, defs}, opts, out);
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace stem::runtime
