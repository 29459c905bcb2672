#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Differential cascade suite: with RuntimeOptions::cascade enabled, the
/// sharded runtime's merged stream must be *exactly* equal — same
/// instances, same order, same sequence numbers — to a single sequential
/// DetectionEngine driven through observe_cascading() on the same
/// arrivals, across shard counts {1, 2, 4, 8} x ingest batch sizes
/// {1, 64} x cascade depth caps {1, 2, 4} x seeds, both consumption
/// modes, with wildcard definitions that re-match their own output (the
/// cycle guard) and with forced mid-stream migrations of instance-typed
/// definitions. Mirrors tests/runtime_shard_test.cpp, with the
/// engine's cascading path — itself differentially verified against the
/// hand-rolled frontier loop in tests/engine_cascade_test.cpp — as the
/// reference.

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

EventDefinition with_value_attr(EventDefinition def, std::vector<core::SlotIndex> slots) {
  def.synthesis.attributes.push_back(
      core::AttributeRule{"value", core::ValueAggregate::kMax, "value", std::move(slots)});
  return def;
}

/// A multi-level mix that stresses every cascade rule: two co-located L1
/// defs sharing type HOT, an L2 self-join over HOT instances
/// (CP — the *instance-typed* definition the migration test moves), an L3
/// alarm over CP, a wildcard auditor that re-matches its own output above
/// 90 (terminates via the depth cap), and a wildcard+keyed join whose
/// feedback slot interleaves instances with raw arrivals.
std::vector<EventDefinition> cascade_definitions(ConsumptionMode mode, const std::string& tag) {
  std::vector<EventDefinition> defs;
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("HOT_" + tag),
                      {{"x", SlotFilter::observation(SensorId("SRa"))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 60.0),
                      seconds(60),
                      {},
                      mode},
      {0}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("HOT_" + tag),
                      {{"x", SlotFilter::observation(SensorId("SRb"))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 40.0),
                      seconds(60),
                      {},
                      mode},
      {0}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("CP_" + tag),
                      {{"a", SlotFilter::instance_of(EventTypeId("HOT_" + tag))},
                       {"b", SlotFilter::instance_of(EventTypeId("HOT_" + tag))}},
                      core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                   core::c_distance(0, 1, core::RelationalOp::kLt, 10.0)}),
                      seconds(5),
                      {},
                      mode},
      {0, 1}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("ALM_" + tag),
                      {{"f", SlotFilter::instance_of(EventTypeId("CP_" + tag))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 50.0),
                      seconds(10),
                      {},
                      mode},
      {0}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("WILD_" + tag),
                      {{"w", SlotFilter::any()}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 90.0),
                      seconds(60),
                      {},
                      mode},
      {0}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("WJ_" + tag),
                      {{"w", SlotFilter::any()},
                       {"b", SlotFilter::observation(SensorId("SRb"))}},
                      core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                   core::c_distance(0, 1, core::RelationalOp::kLt, 6.0)}),
                      seconds(3),
                      {},
                      mode},
      {0, 1}));
  return defs;
}

struct Stream {
  std::vector<core::Entity> entities;
  std::vector<TimePoint> nows;
};

Stream make_stream(std::uint64_t seed, int n, bool skewed = false) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const char* sensors[] = {"SRa", "SRb", "SRc"};
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(100 + rng.uniform_int(0, 900));
    // Skewed: 90% of arrivals hit SRa (pins HOT's shard).
    const auto* sensor = skewed ? (rng.uniform() < 0.9 ? "SRa" : sensors[rng.uniform_int(1, 2)])
                                : sensors[rng.uniform_int(0, 2)];
    const TimePoint t = now - time_model::milliseconds(rng.uniform_int(0, 1500));
    s.entities.push_back(core::Entity(obs(static_cast<int>(rng.uniform_int(1, 4)), sensor,
                                          static_cast<std::uint64_t>(i), t,
                                          {rng.uniform(0, 16), rng.uniform(0, 16)},
                                          rng.uniform(0, 100))));
    s.nows.push_back(now);
  }
  return s;
}

/// One forced migration: after `at` arrivals, move definition `def`
/// (with its same-type definitions on its shard) to the shard `hop` places clockwise from its host.
struct Migration {
  std::size_t at = 0;
  std::size_t def = 0;
  std::size_t hop = 1;
};

void run_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                      std::size_t depth, ConsumptionMode mode, const std::string& tag,
                      int arrivals = 192, bool skewed = false,
                      const std::vector<Migration>& migrations = {},
                      std::size_t rebalance_every = 0, std::size_t queue_capacity = 4096,
                      std::uint32_t pipeline = 1) {
  core::EngineOptions engine_options;
  engine_options.max_cascade_depth = depth;

  RuntimeOptions options;
  options.shards = shards;
  options.cascade = true;
  options.engine = engine_options;
  options.queue_capacity = queue_capacity;
  options.cascade_pipeline = pipeline;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0},
                             engine_options);
  for (const EventDefinition& def : cascade_definitions(mode, tag)) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const Stream stream = make_stream(seed, arrivals, skewed);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst :
         sequential.observe_cascading(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }

  std::vector<std::string> got;
  const auto collect = [&](std::vector<EventInstance> instances) {
    for (const EventInstance& inst : instances) got.push_back(describe(inst));
  };
  const std::string ctx = tag + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size) +
                          " depth=" + std::to_string(depth) +
                          " pipeline=" + std::to_string(pipeline) +
                          " queue=" + std::to_string(queue_capacity);
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  std::size_t next_migration = 0;
  std::size_t forced = 0;
  std::size_t since_pass = 0;
  for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
    while (next_migration < migrations.size() && migrations[next_migration].at <= i) {
      const Migration& mig = migrations[next_migration++];
      const std::size_t to = (sharded.shard_of(mig.def) + mig.hop) % sharded.shard_count();
      if (sharded.migrate_definition(mig.def, to)) ++forced;
    }
    const std::size_t n = std::min(batch_size, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    if (rebalance_every != 0 && (since_pass += n) >= rebalance_every) {
      since_pass = 0;
      sharded.rebalance_now();
    }
    collect(sharded.poll());
  }
  collect(oracle::flush_within(sharded, ctx));
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << ctx << " instance " << k;
  }

  // Cascade accounting matches the sequential reference exactly: the
  // coordinator re-ingests (and cap-truncates) precisely the instances
  // the engine's own cascading path would.
  const RuntimeStats stats = sharded.stats();
  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.cascade_reingested, sequential.stats().cascade_reingested) << ctx;
  EXPECT_EQ(stats.cascade_truncated, sequential.stats().cascade_truncated) << ctx;
  EXPECT_EQ(stats.migrations >= forced, true) << ctx;
  // The knob is honored in both directions: K=1 never overlaps closures;
  // K>1 with batched ingest does overlap them (activation only needs a
  // deep-enough pending window, not any worker progress).
  if (pipeline > 1 && batch_size >= 16) {
    EXPECT_GT(stats.closures_in_flight_max, 1u) << ctx;
  } else if (pipeline <= 1) {
    EXPECT_LE(stats.closures_in_flight_max, 1u) << ctx;
  }
  if (stats.cascade_reingested > 0) {
    EXPECT_GT(stats.cascade_feedback_batches, 0u) << ctx;
  }
}

class CascadeVsSequentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CascadeVsSequentialTest, UnrestrictedStreamsMatch) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {1u, 64u}) {
      for (const std::size_t depth : {1u, 2u, 4u}) {
        run_differential(GetParam(), shards, batch, depth, ConsumptionMode::kUnrestricted, "U");
      }
    }
  }
}

TEST_P(CascadeVsSequentialTest, ConsumeStreamsMatch) {
  for (const std::size_t shards : {2u, 8u}) {
    for (const std::size_t batch : {1u, 64u}) {
      for (const std::size_t depth : {2u, 4u}) {
        run_differential(GetParam() ^ 0x5eedULL, shards, batch, depth, ConsumptionMode::kConsume,
                         "C");
      }
    }
  }
}

TEST_P(CascadeVsSequentialTest, TightQueueBackpressureStreamsMatch) {
  // Deep cascade + an 8-arrival inbox: ingest blocks on the workers while
  // closures drain through the same shards. Ordering must survive.
  core::EngineOptions engine_options;
  engine_options.max_cascade_depth = 4;
  RuntimeOptions options;
  options.shards = 4;
  options.cascade = true;
  options.queue_capacity = 8;
  options.engine = engine_options;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0},
                             engine_options);
  for (const EventDefinition& def :
       cascade_definitions(ConsumptionMode::kUnrestricted, "Q")) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  const Stream stream = make_stream(GetParam() ^ 0xbacULL, 192);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst :
         sequential.observe_cascading(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }
  const std::string ctx = "TQ seed=" + std::to_string(GetParam());
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  for (std::size_t i = 0; i < stream.entities.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
  }
  std::vector<std::string> got;
  for (EventInstance& inst : oracle::flush_within(sharded, ctx)) got.push_back(describe(inst));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k], want[k]) << k;
}

TEST_P(CascadeVsSequentialTest, TinyCapacityConstantWrapStreamsMatch) {
  // capacity {1,2} with cascading: arrivals, feedback, and the closure
  // frontier all contend while producers sit in permanent backpressure and
  // the inbox crosses a segment boundary every 64 pushes. Migrations ride
  // along so control items are exercised under the same pressure.
  for (const std::size_t capacity : {1u, 2u}) {
    run_differential(GetParam() ^ 0x71c0ULL, 4, 1, 4, ConsumptionMode::kUnrestricted,
                     "T" + std::to_string(capacity), 128, /*skewed=*/true,
                     {{32, 2, 1}, {64, 0, 2}}, 0, capacity);
    run_differential(GetParam() ^ 0x71c1ULL, 2, 16, 2, ConsumptionMode::kConsume,
                     "T" + std::to_string(capacity) + "b", 128, /*skewed=*/false, {}, 0,
                     capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeVsSequentialTest, ::testing::Values(1u, 2u, 3u));

/// Forced mid-stream migrations of instance-typed definitions (the CP
/// self-join consumes HOT *instances*; CP moves twice, HOT once) while cascades are in flight: the stream must stay
/// byte-identical — feedback for pre-barrier stamps reaches the moved
/// definitions' old shard, post-barrier feedback its new one.
TEST(CascadeMigration, InstanceTypedDefinitionsMoveMidStream) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    run_differential(seed, 4, 16, 4, ConsumptionMode::kUnrestricted, "M", 256,
                     /*skewed=*/true,
                     {{64, 2, 1}, {128, 0, 2}, {192, 2, 3}});
    run_differential(seed ^ 0x77ULL, 4, 16, 4, ConsumptionMode::kConsume, "MC", 256,
                     /*skewed=*/true,
                     {{64, 2, 1}, {128, 0, 2}, {192, 2, 3}});
  }
}

/// A move before the first ingest starts the runtime: the registration-time
/// snapshot is published with its reach, then the move replaces it with a
/// copy whose reach is recomputed for the new placement. The stream must
/// stay byte-identical from the first arrival on.
TEST(CascadeMigration, MoveBeforeFirstIngestStaysExact) {
  for (const std::uint64_t seed : {21u, 22u}) {
    run_differential(seed, 4, 16, 4, ConsumptionMode::kUnrestricted, "M0", 256,
                     /*skewed=*/true, {{0, 2, 1}, {128, 0, 2}});
    run_differential(seed ^ 0x77ULL, 2, 1, 4, ConsumptionMode::kConsume, "MC0", 128,
                     /*skewed=*/true, {{0, 0, 1}});
  }
}

/// Rebalancing stays exact in cascade mode: a pass every 48 arrivals may
/// move any definition — instance-typed ones included — at epoch barriers
/// while the skewed stream cascades.
TEST(CascadeMigration, AutomaticRebalancingStaysExact) {
  run_differential(21u, 4, 16, 4, ConsumptionMode::kUnrestricted, "R", 256, /*skewed=*/true, {},
                   /*rebalance_every=*/48);
}

/// A chain head: `type` fires on a `sensor` reading above 50.
EventDefinition chain_head(const std::string& type, const std::string& sensor) {
  return with_value_attr(
      EventDefinition{EventTypeId(type),
                      {{"x", SlotFilter::observation(SensorId(sensor))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 50.0),
                      seconds(60),
                      {},
                      ConsumptionMode::kUnrestricted},
      {0});
}

/// A chain's consumer: `type` joins a `hot` instance with a later reading
/// of its own raw `sensor`. Nothing consumes it.
EventDefinition chain_consumer(const std::string& type, const std::string& hot,
                               const std::string& sensor) {
  return with_value_attr(
      EventDefinition{EventTypeId(type),
                      {{"h", SlotFilter::instance_of(EventTypeId(hot))},
                       {"r", SlotFilter::observation(SensorId(sensor))}},
                      core::c_time(0, time_model::TemporalOp::kBefore, 1),
                      seconds(5),
                      {},
                      ConsumptionMode::kUnrestricted},
      {0, 1});
}

/// Admission stays exact after a move: each placement snapshot carries the
/// reach of the placement it holds, so a closure that cannot finish holds
/// back only the shards it can still feed. Two independent chains,
/// HOT_A -> CP_A and HOT_B -> CP_B, one per shard; CP_x joins a HOT_x
/// instance with a reading of its own raw sensor, and nothing consumes
/// CP_x. After one move (of a bystander), chain A's shard stalls on one
/// HOT_A arrival, whose closure can reach only that shard; chain B's shard
/// must still take the three raw CP_B readings stamped behind it, whose
/// closures reach no shard at all.
TEST(CascadeMigration, AdmissionStaysExactAfterAMove) {
  // Registration order places chain A on one shard and chain B on the
  // other (least-loaded placement alternates); IDLE is the bystander.
  const std::vector<EventDefinition> defs = {
      chain_head("HOT_A", "SA"), chain_head("HOT_B", "SB"),
      chain_consumer("CP_A", "HOT_A", "SA2"), chain_consumer("CP_B", "HOT_B", "SB2"),
      chain_head("IDLE", "SX")};

  // The stall hook holds `stalled` on the latch while it is closed.
  std::atomic<std::size_t> stalled{~std::size_t{0}};
  std::atomic<bool> latch{false};
  RuntimeOptions options;
  options.shards = 2;
  options.cascade = true;
  options.cascade_pipeline = 4;
  options.stall_hook = [&](const std::size_t shard) {
    while (latch.load() && shard == stalled.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  // Declared after the runtime: opens the latch on every exit path before
  // the runtime's destructor joins the workers.
  struct Release {
    std::atomic<bool>& latch;
    ~Release() { latch.store(false); }
  } release{latch};
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : defs) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  ASSERT_EQ(sharded.shard_of(0), sharded.shard_of(2));  // chain A
  ASSERT_EQ(sharded.shard_of(1), sharded.shard_of(3));  // chain B
  ASSERT_NE(sharded.shard_of(0), sharded.shard_of(1));
  const std::string ctx = "exact admission after a move";
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot

  ASSERT_TRUE(sharded.move_definitions(std::vector<std::size_t>{4}, 1 - sharded.shard_of(4)));
  Stream stream;
  TimePoint now = TimePoint::epoch();
  const auto arrive = [&](const std::string& sensor) {  // one arrival, its own batch
    now += time_model::milliseconds(100);
    stream.entities.emplace_back(obs(1, sensor, stream.entities.size(), now, {0, 0}, 80.0));
    stream.nows.push_back(now);
    sharded.ingest(stream.entities.back(), now);
  };
  std::vector<std::string> got;
  const auto collect = [&](const std::vector<EventInstance>& instances) {
    for (const EventInstance& inst : instances) got.push_back(describe(inst));
  };
  // Both shards handle the move's control items.
  arrive("SA");
  arrive("SB");
  collect(oracle::flush_within(sharded, ctx));

  const std::uint64_t before = sharded.stats().engine.entities_in;
  stalled.store(sharded.shard_of(0));
  latch.store(true);
  arrive("SA");
  for (int k = 0; k < 3; ++k) arrive("SB2");
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sharded.stats().engine.entities_in < before + 3 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sharded.stats().engine.entities_in - before, 3u)
      << ctx << ": chain B's shard waited on chain A's stalled closure";
  latch.store(false);
  collect(oracle::flush_within(sharded, ctx));

  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst :
         sequential.observe_cascading(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << ctx << " instance " << k;
  }
}

/// A consumer moved onto a shard outside its producer's registration-time
/// reach: HOT feeds CP, which registers beside it and moves mid-stream to
/// the shard of a bystander. From the move on, HOT's closures can feed
/// that shard, so they must hold it back; a reach left as it was at
/// registration would let the shard take CP's raw readings ahead of HOT
/// feedback stamped before them, moving CP's detections into other
/// closures. HOT's shard is slowed on every item, so that lead is there
/// to take.
TEST(CascadeMigration, ConsumerMovedOutsideItsProducersReachStaysExact) {
  for (const std::uint32_t pipeline : {1u, 4u}) {
    std::atomic<std::size_t> slowed{~std::size_t{0}};
    RuntimeOptions options;
    options.shards = 2;
    options.cascade = true;
    options.cascade_pipeline = pipeline;
    options.stall_hook = [&](const std::size_t shard) {
      if (shard == slowed.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
    DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
    for (const EventDefinition& def : {chain_head("HOT", "SA"), chain_head("IDLE", "SX"),
                                       chain_consumer("CP", "HOT", "SB")}) {
      sharded.add_definition(def);
      sequential.add_definition(def);
    }
    ASSERT_EQ(sharded.shard_of(0), sharded.shard_of(2));  // HOT's reach: its own shard
    ASSERT_NE(sharded.shard_of(0), sharded.shard_of(1));
    slowed.store(sharded.shard_of(0));
    const std::string ctx = "consumer moved outside its reach, pipeline=" +
                            std::to_string(pipeline);
    const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot

    sim::Rng rng(0xc0ffeeULL + pipeline);
    Stream stream;
    TimePoint now = TimePoint::epoch();
    for (int i = 0; i < 256; ++i) {
      now += time_model::milliseconds(100 + rng.uniform_int(0, 400));
      stream.entities.emplace_back(obs(1, rng.chance(0.5) ? "SA" : "SB",
                                       static_cast<std::uint64_t>(i), now, {0, 0},
                                       rng.uniform(0, 100)));
      stream.nows.push_back(now);
    }
    std::vector<std::string> want;
    for (std::size_t i = 0; i < stream.entities.size(); ++i) {
      for (const EventInstance& inst :
           sequential.observe_cascading(stream.entities[i], stream.nows[i])) {
        want.push_back(describe(inst));
      }
    }
    std::vector<std::string> got;
    const auto collect = [&](const std::vector<EventInstance>& instances) {
      for (const EventInstance& inst : instances) got.push_back(describe(inst));
    };
    for (std::size_t i = 0; i < stream.entities.size(); i += 16) {
      if (i == 64) {
        ASSERT_TRUE(sharded.migrate_definition(2, sharded.shard_of(1))) << ctx;
      }
      sharded.ingest_batch(std::span(stream.entities).subspan(i, 16),
                           std::span(stream.nows).subspan(i, 16));
      collect(sharded.poll());
    }
    collect(oracle::flush_within(sharded, ctx));
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << ctx << " instance " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipelined closures: cascade x ordering tier x pipeline depth.
// ---------------------------------------------------------------------------

/// Cascade x tier leg: cascade mode releases whole closures in stamp
/// order under every tier, so the merged stream must be byte-exact
/// against the sequential cascading engine whatever the tier — running
/// all three pins that the tier has no effect in cascade mode. The
/// watermark is audited per poll.
void run_tier_matrix(std::uint64_t seed, OrderingTier tier, std::uint32_t pipeline,
                     std::size_t depth, const std::string& tag,
                     const std::vector<Migration>& migrations = {},
                     std::size_t queue_capacity = 4096) {
  core::EngineOptions engine_options;
  engine_options.max_cascade_depth = depth;

  RuntimeOptions options;
  options.shards = 4;
  options.cascade = true;
  options.engine = engine_options;
  options.ordering = tier;
  options.cascade_pipeline = pipeline;
  options.queue_capacity = queue_capacity;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0},
                             engine_options);
  for (const EventDefinition& def :
       cascade_definitions(ConsumptionMode::kUnrestricted, tag)) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const Stream stream = make_stream(seed, 192);
  const std::vector<oracle::Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/true, /*canonicalize_seq=*/false);

  const std::string ctx = tag + " seed=" + std::to_string(seed) +
                          " tier=" + std::to_string(static_cast<int>(tier)) +
                          " pipeline=" + std::to_string(pipeline) +
                          " depth=" + std::to_string(depth) +
                          " queue=" + std::to_string(queue_capacity);
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  oracle::WatermarkAudit audit(ctx);
  std::vector<TaggedInstance> got_tagged;
  std::size_t next_migration = 0;
  for (std::size_t i = 0; i < stream.entities.size(); i += 16) {
    while (next_migration < migrations.size() && migrations[next_migration].at <= i) {
      const Migration& mig = migrations[next_migration++];
      const std::size_t to = (sharded.shard_of(mig.def) + mig.hop) % sharded.shard_count();
      ASSERT_TRUE(sharded.migrate_definition(mig.def, to)) << ctx;
    }
    const std::size_t n = std::min<std::size_t>(16, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    std::vector<TaggedInstance> released = sharded.poll_tagged();
    audit.observe(released);
    audit.after_poll(sharded.low_watermark());
    got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                      std::make_move_iterator(released.end()));
  }
  std::vector<TaggedInstance> released = oracle::flush_tagged_within(sharded, ctx);
  audit.observe(released);
  audit.after_poll(sharded.low_watermark());
  got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                    std::make_move_iterator(released.end()));
  audit.at_quiescence(sharded.low_watermark(), sharded.stats().arrivals);

  oracle::check_equal(oracle::to_refs(got_tagged, /*canonicalize_seq=*/false), want, ctx);
}

class CascadePipelineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CascadePipelineTest, GlobalTierStaysByteExactAtEveryPipelineDepth) {
  for (const std::uint32_t pipeline : {2u, 4u, 8u}) {
    for (const std::size_t depth : {1u, 2u, 4u}) {
      run_differential(GetParam(), 4, 16, depth, ConsumptionMode::kUnrestricted,
                       "P" + std::to_string(pipeline), 192, /*skewed=*/false, {}, 0, 4096,
                       pipeline);
    }
  }
}

TEST_P(CascadePipelineTest, PipelinedConsumeAndBackpressureStayExact) {
  run_differential(GetParam() ^ 0x9e1ULL, 4, 16, 4, ConsumptionMode::kConsume, "PC", 192,
                   /*skewed=*/false, {}, 0, 4096, 4);
  // Tiny inboxes under overlap: admitted-ahead arrivals and feedback
  // contend for the same slots while several closures are open.
  run_differential(GetParam() ^ 0x9e2ULL, 4, 16, 4, ConsumptionMode::kUnrestricted, "PQ", 128,
                   /*skewed=*/true, {}, 0, /*queue_capacity=*/2, 4);
}

TEST_P(CascadePipelineTest, PipelinedMigrationsStayExact) {
  // Mid-stream migrations while up to four closures overlap: post-barrier
  // arrivals gate on the new snapshot's reach, pre-barrier closures keep
  // routing and gating through the snapshot they were stamped under.
  run_differential(GetParam() ^ 0xa11ULL, 4, 16, 4, ConsumptionMode::kUnrestricted, "PM", 256,
                   /*skewed=*/true, {{64, 2, 1}, {128, 0, 2}, {192, 2, 3}}, 0, 4096, 4);
}

TEST_P(CascadePipelineTest, MigrationsBehindTheOnlyRingSlotHoldEveryTier) {
  // queue_capacity 1 admits a single queued arrival per shard: a
  // gate-blocked head item holds it while a migration control pair queues
  // behind it (capacity-exempt, under the ingest lock) until the
  // coordinator's frontier admits the head. The default capacity is the
  // control leg.
  for (const OrderingTier tier :
       {OrderingTier::kGlobalTotalOrder, OrderingTier::kPerDefinitionOrder,
        OrderingTier::kUnorderedWatermarked}) {
    for (const std::uint32_t pipeline : {1u, 4u}) {
      for (const std::size_t queue_capacity : {4096u, 1u}) {
        run_tier_matrix(GetParam() ^ 0x51ULL, tier, pipeline, 4, "MQ",
                        {{48, 2, 1}, {96, 0, 2}, {144, 2, 3}}, queue_capacity);
      }
    }
  }
}

TEST_P(CascadePipelineTest, TierMatrixHoldsUnderPipelining) {
  for (const OrderingTier tier :
       {OrderingTier::kGlobalTotalOrder, OrderingTier::kPerDefinitionOrder,
        OrderingTier::kUnorderedWatermarked}) {
    for (const std::uint32_t pipeline : {1u, 4u}) {
      for (const std::size_t depth : {1u, 4u}) {
        run_tier_matrix(GetParam(), tier, pipeline, depth, "TM");
      }
    }
  }
}

/// low_watermark() read *between* polls: W promises that every emission
/// stamped <= W was handed out by an earlier poll, so no later poll may
/// return one. The consumer alternates watermark reads and polls while the
/// coordinator publishes closures concurrently, so a watermark that moved
/// when a closure was published (before a poll hands it out) shows up as
/// a released stamp at or below an earlier read.
void run_watermark_interleaved(std::uint64_t seed, OrderingTier tier, std::uint32_t pipeline) {
  core::EngineOptions engine_options;
  engine_options.max_cascade_depth = 4;
  RuntimeOptions options;
  options.shards = 4;
  options.cascade = true;
  options.engine = engine_options;
  options.ordering = tier;
  options.cascade_pipeline = pipeline;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  for (const EventDefinition& def : cascade_definitions(ConsumptionMode::kUnrestricted, "WI")) {
    sharded.add_definition(def);
  }

  const Stream stream = make_stream(seed, 192);
  const std::string ctx = "WI seed=" + std::to_string(seed) +
                          " tier=" + std::to_string(static_cast<int>(tier)) +
                          " pipeline=" + std::to_string(pipeline);
  const oracle::RunDeadline run_deadline(sharded, ctx);  // a stall prints the snapshot
  oracle::WatermarkAudit audit(ctx);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::uint64_t released = 0;
  for (std::size_t i = 0; i < stream.entities.size(); i += 16) {
    const std::size_t n = std::min<std::size_t>(16, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    const std::uint64_t routed = sharded.stats().arrivals;
    // Read, then poll, until the watermark read covers this batch.
    for (;;) {
      const std::uint64_t w = sharded.low_watermark();
      audit.after_poll(w);
      const std::vector<TaggedInstance> out = sharded.poll_tagged();
      audit.observe(out);
      released += out.size();
      if (w >= routed) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << ctx << " watermark stalled at " << w << " of " << routed;
      std::this_thread::yield();
    }
  }
  const std::vector<TaggedInstance> rest = oracle::flush_tagged_within(sharded, ctx);
  audit.observe(rest);
  released += rest.size();
  audit.at_quiescence(sharded.low_watermark(), sharded.stats().arrivals);
  EXPECT_EQ(released, sharded.stats().instances) << ctx;
}

TEST_P(CascadePipelineTest, WatermarkNeverRunsAheadOfRelease) {
  for (const OrderingTier tier :
       {OrderingTier::kGlobalTotalOrder, OrderingTier::kPerDefinitionOrder,
        OrderingTier::kUnorderedWatermarked}) {
    for (const std::uint32_t pipeline : {1u, 4u}) {
      run_watermark_interleaved(GetParam(), tier, pipeline);
    }
  }
}

/// The paper's HOT -> CP -> ALM chain alone, over 4 shards, with the CP
/// shard stalled on every work item. The HOT shard hosts no instance-typed
/// definition, so it runs ahead of the closure frontier and publishes
/// blocks whose later marks belong to stamps the coordinator has not
/// activated yet: a sweep takes the block's active prefix, stops at the
/// first inactive stamp, and a later sweep resumes at that mark. Every
/// tier must stay byte-exact against the sequential cascade.
void run_partial_sweep(std::uint64_t seed, OrderingTier tier, std::uint32_t pipeline) {
  core::EngineOptions engine_options;
  engine_options.max_cascade_depth = 4;
  RuntimeOptions options;
  options.shards = 4;
  options.cascade = true;
  options.engine = engine_options;
  options.ordering = tier;
  options.cascade_pipeline = pipeline;
  auto stalled = std::make_shared<std::atomic<std::size_t>>(~std::size_t{0});
  options.stall_hook = [stalled](std::size_t shard) {
    if (shard == stalled->load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0},
                             engine_options);
  std::vector<EventDefinition> defs = cascade_definitions(ConsumptionMode::kUnrestricted, "PS");
  defs.erase(defs.begin() + 4, defs.end());  // HOT (two sensors, one type), CP, ALM
  for (const EventDefinition& def : defs) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  ASSERT_NE(sharded.shard_of(0), sharded.shard_of(2));  // HOT's shard is feedback-free
  stalled->store(sharded.shard_of(2));

  // Only arrivals the chain routes somewhere, so stamps are arrival
  // indices (routing drops the rest before stamping).
  const Stream all = make_stream(seed, 384);
  Stream stream;
  for (std::size_t i = 0; i < all.entities.size(); ++i) {
    if (!sequential.routes_anywhere(all.entities[i])) continue;
    stream.entities.push_back(all.entities[i]);
    stream.nows.push_back(all.nows[i]);
  }
  const std::vector<oracle::Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/true, /*canonicalize_seq=*/false);

  const std::string ctx = "PS seed=" + std::to_string(seed) +
                          " tier=" + std::to_string(static_cast<int>(tier)) +
                          " pipeline=" + std::to_string(pipeline);
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  oracle::WatermarkAudit audit(ctx);
  std::vector<TaggedInstance> got_tagged;
  for (std::size_t i = 0; i < stream.entities.size(); i += 16) {
    const std::size_t n = std::min<std::size_t>(16, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    std::vector<TaggedInstance> released = sharded.poll_tagged();
    audit.observe(released);
    audit.after_poll(sharded.low_watermark());
    got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                      std::make_move_iterator(released.end()));
  }
  std::vector<TaggedInstance> released = oracle::flush_tagged_within(sharded, ctx);
  audit.observe(released);
  got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                    std::make_move_iterator(released.end()));
  audit.at_quiescence(sharded.low_watermark(), stream.entities.size());

  oracle::check_equal(oracle::to_refs(got_tagged, /*canonicalize_seq=*/false), want, ctx);
}

TEST_P(CascadePipelineTest, CoordinatorResumesBlocksAtInactiveStamps) {
  for (const OrderingTier tier :
       {OrderingTier::kGlobalTotalOrder, OrderingTier::kPerDefinitionOrder,
        OrderingTier::kUnorderedWatermarked}) {
    for (const std::uint32_t pipeline : {1u, 4u}) {
      run_partial_sweep(GetParam(), tier, pipeline);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadePipelineTest, ::testing::Values(31u, 32u, 33u));

/// Destroying the runtime right after issuing a migration (no flush) must
/// not deadlock: the destination worker may already be blocked in its
/// receive-side ticket wait, so exiting workers complete the handshake
/// (send controls are drained on stop). Several rounds to catch the race
/// window between issue and worker pickup.
TEST(CascadeMigration, DestructionCompletesInFlightHandshakes) {
  for (std::uint64_t round = 0; round < 24; ++round) {
    core::EngineOptions engine_options;
    engine_options.max_cascade_depth = 4;
    RuntimeOptions options;
    options.shards = 4;
    options.cascade = true;
    options.engine = engine_options;
    ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
    for (const EventDefinition& def :
         cascade_definitions(ConsumptionMode::kUnrestricted, "D")) {
      rt.add_definition(def);
    }
    const Stream stream = make_stream(round + 100, 8);
    rt.ingest_batch(stream.entities, stream.nows);
    rt.migrate_definition(2, (rt.shard_of(2) + 1 + round % 3) % rt.shard_count());
    // No flush: the runtime is torn down with the control pair possibly
    // still queued behind gated arrivals.
  }
}

}  // namespace
}  // namespace stem::runtime
