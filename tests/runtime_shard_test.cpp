#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Differential concurrency suite: the sharded runtime's merged instance
/// stream must be *exactly* equal — same instances, same order, same
/// sequence numbers — to a single sequential DetectionEngine fed the same
/// arrivals, across shard counts {1, 2, 4, 8}, ingest batch sizes
/// {1, 16, 256}, both consumption modes, wildcard-definition replication
/// (a shard hosting an any-filter definition receives the full stream),
/// same-event-type co-location, tight-queue backpressure, and a stalled
/// shard whose lag makes the global frontier fall inside the other
/// shards' published blocks. Mirrors
/// tests/engine_index_test.cpp, with the sequential engine — itself
/// differentially verified against the seed semantics — as the reference.

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

/// A definition mix that stresses every placement/routing rule: keyed
/// thresholds (threshold sub-index routing), spatial/temporal joins
/// across sensors (multi-key definitions), a self-binding pair, two
/// definitions *sharing an event type* (must be co-located or sequence
/// numbers diverge), a wildcard single-slot definition and a wildcard
/// join slot (their host shards must see the full stream).
std::vector<EventDefinition> shard_definitions(ConsumptionMode mode, const std::string& tag) {
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

  // Same event type as HOT, different sensor and threshold: shares HOT's
  // instance sequence counter, so the runtime must co-locate the two.
  defs.push_back(EventDefinition{EventTypeId("HOT_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRb"))}},
                                 core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                              core::RelationalOp::kGt, 40.0),
                                 seconds(60),
                                 {},
                                 mode});

  // Spatial + temporal join across two sensors.
  defs.push_back(EventDefinition{EventTypeId("NEAR_" + tag),
                                 {{"a", SlotFilter::observation(SensorId("SRa"))},
                                  {"b", SlotFilter::observation(SensorId("SRb"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 8.0)}),
                                 seconds(4),
                                 {},
                                 mode});

  // Self-binding pair: both slots accept the same sensor.
  defs.push_back(EventDefinition{EventTypeId("PAIR_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRc"))},
                                  {"y", SlotFilter::observation(SensorId("SRc"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 12.0)}),
                                 seconds(5),
                                 {},
                                 mode});

  // Wildcard single-slot definition: its shard receives every arrival.
  defs.push_back(EventDefinition{EventTypeId("WILD_" + tag),
                                 {{"w", SlotFilter::any()}},
                                 core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                              core::RelationalOp::kGt, 85.0),
                                 seconds(60),
                                 {},
                                 mode});

  // Wildcard join slot: replication must interleave with a keyed slot.
  defs.push_back(EventDefinition{EventTypeId("WNEAR_" + tag),
                                 {{"w", SlotFilter::any()},
                                  {"b", SlotFilter::observation(SensorId("SRb"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 6.0)}),
                                 seconds(3),
                                 {},
                                 mode});

  // 3-way join with an OR branch.
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

Stream make_stream(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const char* sensors[] = {"SRa", "SRb", "SRc", "SRd"};  // SRd only matches wildcards
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(100 + rng.uniform_int(0, 900));
    const auto* sensor = sensors[rng.uniform_int(0, 3)];
    const TimePoint t = now - time_model::milliseconds(rng.uniform_int(0, 1500));
    s.entities.push_back(core::Entity(obs(static_cast<int>(rng.uniform_int(1, 4)), sensor,
                                          static_cast<std::uint64_t>(i), t,
                                          {rng.uniform(0, 24), rng.uniform(0, 24)},
                                          rng.uniform(0, 100))));
    s.nows.push_back(now);
  }
  return s;
}

void run_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                      ConsumptionMode mode, const std::string& tag,
                      std::size_t queue_capacity = 4096) {
  RuntimeOptions options;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : shard_definitions(mode, tag)) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const Stream stream = make_stream(seed, 320);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }

  std::vector<std::string> got;
  const auto collect = [&](std::vector<EventInstance> instances) {
    for (const EventInstance& inst : instances) got.push_back(describe(inst));
  };
  for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
    const std::size_t n = std::min(batch_size, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    collect(sharded.poll());
  }
  const std::string ctx = tag + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size);
  collect(oracle::flush_within(sharded, ctx));

  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << ctx << " instance " << k;
  }

  // Counter invariants at quiescence: every instance merged exactly once,
  // every delivery observed by exactly one shard engine.
  const RuntimeStats stats = sharded.stats();
  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.engine.instances_out, stats.instances) << ctx;
  EXPECT_EQ(stats.engine.entities_in, stats.deliveries) << ctx;
  EXPECT_GE(stats.deliveries, stats.arrivals) << ctx;
  EXPECT_EQ(stats.arrivals + stats.dropped, stream.entities.size()) << ctx;
}

class ShardedVsSequentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedVsSequentialTest, UnrestrictedStreamsMatch) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {1u, 16u, 256u}) {
      run_differential(GetParam(), shards, batch, ConsumptionMode::kUnrestricted, "U");
    }
  }
}

TEST_P(ShardedVsSequentialTest, ConsumeStreamsMatch) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {1u, 16u, 256u}) {
      run_differential(GetParam() ^ 0x5eedULL, shards, batch, ConsumptionMode::kConsume, "C");
    }
  }
}

TEST_P(ShardedVsSequentialTest, TightQueueBackpressureStreamsMatch) {
  // A 8-arrival inbox forces ingest to block on the workers repeatedly;
  // ordering and equality must survive the throttling.
  run_differential(GetParam() ^ 0xbacULL, 4, 16, ConsumptionMode::kUnrestricted, "Q", 8);
  run_differential(GetParam() ^ 0xbac2ULL, 8, 256, ConsumptionMode::kConsume, "Q2", 8);
}

TEST_P(ShardedVsSequentialTest, TinyCapacityConstantWrapStreamsMatch) {
  // capacity {1,2}: producers park and wake constantly, the inbox crosses
  // a segment boundary every 64 pushes, and batches larger than the
  // capacity take the oversized-batch admission path — the ordering
  // contract must hold under permanent backpressure.
  for (const std::size_t capacity : {1u, 2u}) {
    run_differential(GetParam() ^ 0x71c0ULL, 4, 1, ConsumptionMode::kUnrestricted,
                     "T" + std::to_string(capacity), capacity);
    run_differential(GetParam() ^ 0x71c1ULL, 2, 16, ConsumptionMode::kConsume,
                     "T" + std::to_string(capacity) + "b", capacity);
  }
}

TEST_P(ShardedVsSequentialTest, HugeCapacityAllocatesNothingStreamsMatch) {
  // queue_capacity only bounds admission: inbox memory follows occupancy,
  // so capacities far past addressable memory construct and run like the
  // default instead of allocating (or failing to allocate) a buffer.
  for (const std::size_t capacity : {std::size_t{1} << 31, std::size_t{1} << 40}) {
    for (const std::size_t batch : {1u, 64u}) {
      run_differential(GetParam() ^ 0xb16ULL, 2, batch, ConsumptionMode::kUnrestricted,
                       "H" + std::to_string(capacity), capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedVsSequentialTest, ::testing::Values(1u, 2u, 3u, 5u, 8u));

/// Global tier with one shard stalled on every work item and a poll after
/// every batch. The frontier F trails the stalled shard, while the others
/// publish runs that span several batches, so F regularly falls inside a
/// published block: a poll must release that block's marks up to F and a
/// later poll must resume at the first mark above it. (At 2 shards and
/// batch 256 both shards host a wildcard and publish one whole batch per
/// run, so there F only meets block boundaries.) Every poll is also
/// checked against the low watermark read just before it.
void run_partial_block_differential(std::uint64_t seed, std::size_t shards,
                                    std::size_t batch_size) {
  RuntimeOptions options;
  options.shards = shards;
  // Two batches of inbox: ingest waits on the stalled shard, so the polls
  // interleave with its progress instead of all running before it starts.
  options.queue_capacity = 2 * batch_size;
  const std::size_t stalled = shards / 2;
  options.stall_hook = [stalled](std::size_t shard) {
    if (shard == stalled) std::this_thread::sleep_for(std::chrono::microseconds(500));
  };
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : shard_definitions(ConsumptionMode::kUnrestricted, "B")) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  // WILD routes every arrival somewhere, so stamps are arrival indices.
  const Stream stream = make_stream(seed, static_cast<int>(32 * batch_size));
  const std::vector<oracle::Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/false, /*canonicalize_seq=*/false);

  const std::string ctx = "B seed=" + std::to_string(seed) + " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size);
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  std::vector<TaggedInstance> got;
  for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
    const std::size_t n = std::min(batch_size, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    const std::uint64_t promised = sharded.low_watermark();
    std::vector<TaggedInstance> released = sharded.poll_tagged();
    for (const TaggedInstance& t : released) {
      ASSERT_GT(t.stamp, promised) << ctx << " released at or below the watermark";
    }
    got.insert(got.end(), std::make_move_iterator(released.begin()),
               std::make_move_iterator(released.end()));
  }
  std::vector<TaggedInstance> rest = oracle::flush_tagged_within(sharded, ctx);
  got.insert(got.end(), std::make_move_iterator(rest.begin()),
             std::make_move_iterator(rest.end()));
  oracle::check_equal(oracle::to_refs(got, /*canonicalize_seq=*/false), want, ctx);
  EXPECT_EQ(sharded.low_watermark(), stream.entities.size()) << ctx;
}

TEST(ShardPartialBlock, GlobalTierReleasesBlocksUpToTheFrontier) {
  for (const std::uint64_t seed : {11u, 12u}) {
    for (const std::size_t shards : {2u, 4u}) {
      for (const std::size_t batch : {16u, 256u}) {
        run_partial_block_differential(seed, shards, batch);
      }
    }
  }
}

TEST(ShardPlacement, SameEventTypeCoLocated) {
  RuntimeOptions options;
  options.shards = 8;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       shard_definitions(ConsumptionMode::kUnrestricted, "P")) {
    rt.add_definition(def);
  }
  // Definitions 0 and 1 share EventTypeId "HOT_P".
  EXPECT_EQ(rt.shard_of(0), rt.shard_of(1));
  EXPECT_EQ(rt.definition_count(), 7u);
  EXPECT_EQ(rt.shard_count(), 8u);
}

TEST(ShardPlacement, DefinitionsSpreadAcrossShards) {
  // 16 independent single-sensor definitions over 4 shards: least-loaded
  // placement must balance them exactly.
  RuntimeOptions options;
  options.shards = 4;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (int i = 0; i < 16; ++i) {
    rt.add_definition(EventDefinition{
        EventTypeId("D" + std::to_string(i)),
        {{"x", SlotFilter::observation(SensorId("SR" + std::to_string(i)))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
        seconds(60),
        {},
        ConsumptionMode::kConsume});
  }
  std::vector<int> load(4, 0);
  for (std::size_t d = 0; d < rt.definition_count(); ++d) ++load[rt.shard_of(d)];
  for (const int l : load) EXPECT_EQ(l, 4);
}

TEST(ShardPlacement, AddDefinitionAfterIngestThrows) {
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  rt.add_definition(EventDefinition{
      EventTypeId("D"),
      {{"x", SlotFilter::observation(SensorId("SR"))}},
      core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
      seconds(60),
      {},
      ConsumptionMode::kConsume});
  rt.ingest(core::Entity(obs(1, "SR", 0, TimePoint::epoch(), {0, 0}, 80.0)), TimePoint::epoch());
  EXPECT_THROW(rt.add_definition(EventDefinition{
                   EventTypeId("E"),
                   {{"x", SlotFilter::observation(SensorId("SR"))}},
                   core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                core::RelationalOp::kGt, 50.0),
                   seconds(60),
                   {},
                   ConsumptionMode::kConsume}),
               std::logic_error);
  EXPECT_EQ(oracle::flush_within(rt, "registration closed").size(), 1u);
}

}  // namespace
}  // namespace stem::runtime
