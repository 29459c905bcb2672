#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Crash-recovery differential suite: with epoch-barrier checkpoints on
/// and a seeded crash hook killing shard workers mid-stream, the
/// supervisor must reincarnate each dead shard from its last checkpoint
/// plus the bounded replay log, and the runtime's merged instance stream
/// must stay *byte-identical* to a sequential DetectionEngine fed the
/// same arrivals — no lost, duplicated, or reordered instances, exact
/// final counters. Mirrors tests/runtime_shard_test.cpp with the
/// sequential engine as the reference oracle.

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
  o.location = geom::Location(p);
  o.attributes.set("value", value);
  return o;
}

/// Same stressing mix as the shard suite: keyed thresholds, joins, a
/// shared event type (co-location), wildcards (full-stream shards), so
/// recovery has to reconstruct partial-match buffers, per-type sequence
/// counters, and prune clocks — not just empty engines.
std::vector<EventDefinition> recovery_definitions(ConsumptionMode mode, const std::string& tag) {
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
  defs.push_back(EventDefinition{EventTypeId("PAIR_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRc"))},
                                  {"y", SlotFilter::observation(SensorId("SRc"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_distance(0, 1, core::RelationalOp::kLt, 12.0)}),
                                 seconds(5),
                                 {},
                                 mode});
  defs.push_back(EventDefinition{EventTypeId("WILD_" + tag),
                                 {{"w", SlotFilter::any()}},
                                 core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                              core::RelationalOp::kGt, 85.0),
                                 seconds(60),
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
  const char* sensors[] = {"SRa", "SRb", "SRc", "SRd"};
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

/// A crash schedule: the hook kills whichever worker makes the Nth
/// work-item poll, for a fixed set of Ns. The *choice* of victim shard is
/// scheduling-dependent — deliberately so: the exactness oracle must hold
/// for every interleaving, and varying the victim across runs widens the
/// coverage for free. Recovered workers resume polling, so later
/// thresholds kill post-recovery incarnations too.
struct CrashSchedule {
  std::vector<std::uint64_t> at;
  std::shared_ptr<std::atomic<std::uint64_t>> polls =
      std::make_shared<std::atomic<std::uint64_t>>(0);

  std::function<bool(std::size_t)> hook() const {
    auto counter = polls;
    auto thresholds = at;
    return [counter, thresholds](std::size_t) {
      const std::uint64_t n = counter->fetch_add(1, std::memory_order_relaxed) + 1;
      for (const std::uint64_t t : thresholds) {
        if (n == t) return true;
      }
      return false;
    };
  }
};

void run_crash_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                            ConsumptionMode mode, const std::string& tag,
                            std::vector<std::uint64_t> crash_at,
                            std::size_t checkpoint_epoch = 24,
                            std::size_t queue_capacity = 4096, bool migrate = false) {
  CrashSchedule schedule{std::move(crash_at)};
  RuntimeOptions options;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  options.checkpoint_epoch = checkpoint_epoch;
  options.crash_hook = schedule.hook();
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : recovery_definitions(mode, tag)) {
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
  std::size_t batches = 0;
  for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
    const std::size_t n = std::min(batch_size, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    collect(sharded.poll());
    if (migrate && ++batches % 5 == 0) {
      // Bounce a definition between shards while crashes are in flight:
      // migration control items ride the same logged inbox protocol, so
      // recovery must replay half-completed hand-offs too.
      sharded.migrate_definition(2, batches / 5 % shards);
    }
  }
  const std::string ctx = tag + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size) +
                          " queue=" + std::to_string(queue_capacity);
  collect(oracle::flush_within(sharded, ctx));
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << ctx << " instance " << k;
  }

  // Reaping is asynchronous: a worker that dies on a checkpoint control
  // item at the very tail holds no queued arrivals, so flush() can reach
  // quiescence before the supervisor has counted the death. The stream is
  // already proven exact above; give the supervisor a bounded moment to
  // finish the bookkeeping.
  // recoveries lags crashes by the reincarnation itself, so wait for both.
  RuntimeStats stats = sharded.stats();
  for (int spin = 0; spin < 2000 && (stats.crashes < schedule.at.size() ||
                                     stats.recoveries < stats.crashes);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = sharded.stats();
  }
  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.engine.instances_out, stats.instances) << ctx;
  EXPECT_EQ(stats.arrivals + stats.dropped, stream.entities.size()) << ctx;
  if (checkpoint_epoch <= stream.entities.size()) {
    EXPECT_GT(stats.checkpoints, 0u) << ctx;
  }
  EXPECT_EQ(stats.crashes, schedule.at.size())
      << ctx << " polls=" << schedule.polls->load();
  EXPECT_EQ(stats.recoveries, stats.crashes) << ctx;
}

class CrashRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashRecoveryTest, StreamsMatchAcrossShardCountsAndModes) {
  for (const std::size_t shards : {2u, 4u}) {
    run_crash_differential(GetParam(), shards, 1, ConsumptionMode::kConsume, "C", {13, 41});
    run_crash_differential(GetParam() ^ 0x5eedULL, shards, 16, ConsumptionMode::kUnrestricted,
                           "U", {13, 41});
  }
}

TEST_P(CrashRecoveryTest, BackToBackCrashesOnTinyEpoch) {
  // checkpoint_epoch=4 maximises barrier traffic; five crash points land
  // in distinct epochs and often re-kill a freshly recovered shard.
  run_crash_differential(GetParam() ^ 0xdeadULL, 4, 1, ConsumptionMode::kConsume, "B",
                         {7, 19, 37, 61, 89}, 4);
}

TEST_P(CrashRecoveryTest, CrashBeforeFirstCheckpoint) {
  // A crash before any checkpoint exists must rebuild from the initial
  // definitions and replay the whole log.
  run_crash_differential(GetParam() ^ 0xf00dULL, 2, 1, ConsumptionMode::kConsume, "F", {2},
                         100000);
}

TEST_P(CrashRecoveryTest, CrashUnderTightBackpressure) {
  // An 8-arrival inbox keeps producers parked on the ring the crash
  // abandons; recovery's replay must drain it without deadlock.
  run_crash_differential(GetParam() ^ 0xbacULL, 4, 16, ConsumptionMode::kUnrestricted, "Q",
                         {11, 29}, 16, 8);
}

TEST_P(CrashRecoveryTest, CrashesInterleavedWithMigrations) {
  // A 1- or 2-slot inbox ring fills as soon as one or two items wait, so
  // migration pairs and checkpoint barriers park in the ring push, and
  // crashes land between the pops the worker counts into push sequences
  // and the log entries recovery pairs them with.
  for (const std::size_t queue_capacity : {4096u, 1u, 2u}) {
    run_crash_differential(GetParam() ^ 0x316ULL, 4, 8, ConsumptionMode::kConsume, "M", {17, 43},
                           24, queue_capacity, /*migrate=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest, ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(CrashRecovery, NoCrashesStillCheckpointsExactly) {
  // checkpointing alone (no crash hook) must not perturb the stream.
  RuntimeOptions options;
  options.shards = 4;
  options.checkpoint_epoch = 16;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : recovery_definitions(ConsumptionMode::kConsume, "N")) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  const Stream stream = make_stream(77, 200);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }
  sharded.ingest_batch(std::span(stream.entities), std::span(stream.nows));
  std::vector<std::string> got;
  for (const EventInstance& inst : sharded.flush()) got.push_back(describe(inst));
  ASSERT_EQ(got, want);
  // flush() waits on the arrival watermark only; the trailing checkpoint
  // control item may still be in the inbox. Give the workers a bounded
  // moment to consume it.
  RuntimeStats stats = sharded.stats();
  for (int spin = 0; spin < 2000 && stats.checkpoints == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = sharded.stats();
  }
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.recoveries, 0u);
  EXPECT_EQ(stats.replayed, 0u);
}

TEST(CrashRecovery, CrashHookWithoutCheckpointEpochThrows) {
  RuntimeOptions options;
  options.crash_hook = [](std::size_t) { return false; };
  EXPECT_THROW(ShardedEngineRuntime(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options),
               std::invalid_argument);
}

TEST(CrashRecovery, CheckpointWithCascadeThrows) {
  RuntimeOptions options;
  options.cascade = true;
  options.checkpoint_epoch = 8;
  EXPECT_THROW(ShardedEngineRuntime(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options),
               std::invalid_argument);
}

// --- Checkpoint frame codec ---

core::DefinitionState populated_state() {
  DetectionEngine engine(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  // A two-slot join that buffers partial matches (never completes within
  // the fed stream), so the snapshot carries non-empty slot buffers.
  engine.add_definition(EventDefinition{
      EventTypeId("J"),
      {{"a", SlotFilter::observation(SensorId("SRa"))},
       {"b", SlotFilter::observation(SensorId("SRb"))}},
      core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                   core::c_distance(0, 1, core::RelationalOp::kLt, 0.001)}),
      seconds(600),
      {},
      ConsumptionMode::kConsume});
  TimePoint now = TimePoint::epoch();
  for (int i = 0; i < 6; ++i) {
    now += seconds(1);
    engine.observe(core::Entity(obs(i, i % 2 == 0 ? "SRa" : "SRb",
                                    static_cast<std::uint64_t>(i), now,
                                    {static_cast<double>(i) * 10.0, 0.0}, 50.0 + i)),
                   now);
  }
  return engine.snapshot_definition_state(0);
}

TEST(CheckpointCodec, RoundTripIsAFixedPoint) {
  const core::DefinitionState state = populated_state();
  ASSERT_FALSE(state.buffers.empty());
  std::size_t buffered = 0;
  for (const auto& slot : state.buffers) buffered += slot.size();
  ASSERT_GT(buffered, 0u) << "snapshot must carry partial matches for the test to mean anything";

  const std::string frame = encode_definition_state(state);
  std::optional<core::DefinitionState> decoded = decode_definition_state(frame, state.def);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, state.seq);
  EXPECT_EQ(decoded->next_prune_at, state.next_prune_at);
  EXPECT_EQ(decoded->load_routed, state.load_routed);
  EXPECT_EQ(decoded->load_tried, state.load_tried);
  ASSERT_EQ(decoded->buffers.size(), state.buffers.size());
  // encode(decode(encode(x))) == encode(x): the codec is a fixed point.
  EXPECT_EQ(encode_definition_state(*decoded), frame);
}

TEST(CheckpointCodec, FreshStateWithMaxPruneClockRoundTrips) {
  DetectionEngine engine(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  engine.add_definition(EventDefinition{
      EventTypeId("F"),
      {{"x", SlotFilter::observation(SensorId("SR"))}},
      core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
      seconds(60),
      {},
      ConsumptionMode::kConsume});
  const core::DefinitionState state = engine.snapshot_definition_state(0);
  EXPECT_EQ(state.next_prune_at, TimePoint::max());
  const std::string frame = encode_definition_state(state);
  std::optional<core::DefinitionState> decoded = decode_definition_state(frame, state.def);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->next_prune_at, TimePoint::max());
  EXPECT_EQ(encode_definition_state(*decoded), frame);
}

TEST(CheckpointCodec, EveryTruncationIsRejectedCleanly) {
  const core::DefinitionState state = populated_state();
  const std::string frame = encode_definition_state(state);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_definition_state(std::string_view(frame).substr(0, len), state.def)
                     .has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(CheckpointCodec, MalformedFramesAreRejectedCleanly) {
  const core::DefinitionState state = populated_state();
  const std::string frame = encode_definition_state(state);
  const std::string mutants[] = {
      "garbage",
      "state x 0 0 0 0\n",
      "state 1 0 0 0 -3\n",
      "state 1 0 0 0 999999999\n",
      frame + "trailing",
      std::string("STATE") + frame.substr(5),
  };
  for (const std::string& m : mutants) {
    EXPECT_FALSE(decode_definition_state(m, state.def).has_value()) << m.substr(0, 40);
  }
  // Flip one byte at a time across the whole frame: decode must return
  // nullopt or a value — never crash or read out of bounds (ASan/UBSan
  // legs in CI back this up).
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string flipped = frame;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    (void)decode_definition_state(flipped, state.def);
  }
}

}  // namespace
}  // namespace stem::runtime
