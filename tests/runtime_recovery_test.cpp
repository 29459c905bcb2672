#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/serialize.hpp"
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
/// sequential engine as the reference oracle. The migration arm also runs
/// the per-definition tier, whose release holds must keep every
/// definition's stream in reference order through crashes and replays.

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

/// Attribute values a decimal text form cannot carry exactly: NaN and the
/// infinities, a negative zero, an integral double, an int64 past 2^53
/// and a denormal, cycled by `k`.
core::AttributeValue raw_value(int k) {
  switch (k % 7) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return -0.0;
    case 4:
      return 50.0;
    case 5:
      return std::int64_t{(std::int64_t{1} << 53) + 1};
    default:
      return 5e-324;
  }
}

/// Every entity shape the replay and checkpoint codecs carry:
/// observations with point or field (polygon) locations and double, int,
/// string and bool attributes, plus top-level EXT instances with punctual
/// or interval times, point or field locations and provenance. Every
/// entity also carries a `raw` attribute (raw_value) that no condition
/// reads: it cannot change the stream, but buffered entities carry it
/// across checkpoints and crashes.
Stream make_mixed_stream(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const char* sensors[] = {"SRa", "SRb", "SRc", "SRd"};
  const char* zones[] = {"north", "south", ""};
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(100 + rng.uniform_int(0, 900));
    const Point p{rng.uniform(0, 24), rng.uniform(0, 24)};
    const double value = rng.uniform(0, 100);
    const auto zone = zones[rng.uniform_int(0, 2)];
    if (i % 5 == 4) {
      EventInstance inst;
      inst.key = core::EventInstanceKey{ObserverId("SINK" + std::to_string(rng.uniform_int(1, 3))),
                                        EventTypeId("EXT"), static_cast<std::uint64_t>(i)};
      inst.layer = rng.uniform_int(0, 1) == 0 ? core::Layer::kSensor : core::Layer::kCyberPhysical;
      inst.gen_time = now;
      inst.gen_location = Point{rng.uniform(0, 24), rng.uniform(0, 24)};
      const TimePoint end = now - time_model::milliseconds(rng.uniform_int(0, 500));
      if (rng.uniform_int(0, 1) == 0) {
        inst.est_time = time_model::TimeInterval(
            end - time_model::milliseconds(rng.uniform_int(1, 3000)), end);
      } else {
        inst.est_time = end;
      }
      if (rng.uniform_int(0, 1) == 0) {
        inst.est_location = geom::Polygon::disk(p, rng.uniform(0.5, 4.0), 5 + i % 4);
      } else {
        inst.est_location = geom::Location(p);
      }
      inst.attributes.set("value", value);
      inst.attributes.set("zone", std::string(zone));
      inst.attributes.set("raw", raw_value(i));
      inst.confidence = rng.uniform(0.2, 1.0);
      for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
        inst.provenance.push_back(core::EventInstanceKey{
            ObserverId("MT" + std::to_string(rng.uniform_int(1, 4))), EventTypeId("obs:SRd"),
            static_cast<std::uint64_t>(rng.uniform_int(0, i))});
      }
      s.entities.push_back(core::Entity(std::move(inst)));
    } else {
      const auto* sensor = sensors[rng.uniform_int(0, 3)];
      const TimePoint t = now - time_model::milliseconds(rng.uniform_int(0, 1500));
      core::PhysicalObservation o = obs(static_cast<int>(rng.uniform_int(1, 4)), sensor,
                                        static_cast<std::uint64_t>(i), t, p, value);
      if (i % 3 == 0) {
        const Point extent{rng.uniform(0.1, 3), rng.uniform(0.1, 3)};
        o.location = geom::Polygon::rectangle(p, p + extent);
      }
      if (i % 2 == 0) o.attributes.set("value", static_cast<std::int64_t>(value));
      o.attributes.set("zone", std::string(zone));
      o.attributes.set("armed", rng.uniform_int(0, 1) == 1);
      o.attributes.set("raw", raw_value(i));
      s.entities.push_back(core::Entity(std::move(o)));
    }
    s.nows.push_back(now);
  }
  return s;
}

/// recovery_definitions plus joins that buffer the mixed stream's
/// instances and field observations, so checkpoints and replays carry
/// every entity shape.
std::vector<EventDefinition> mixed_definitions(const std::string& tag) {
  std::vector<EventDefinition> defs = recovery_definitions(ConsumptionMode::kConsume, tag);
  EventDefinition ext{EventTypeId("EXTNEAR_" + tag),
                      {{"e", SlotFilter::instance_of(EventTypeId("EXT"))},
                       {"o", SlotFilter::observation(SensorId("SRd"))}},
                      core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                   core::c_distance(0, 1, core::RelationalOp::kLt, 6.0)}),
                      seconds(8),
                      {},
                      ConsumptionMode::kUnrestricted};
  ext.synthesis.attributes.push_back(
      core::AttributeRule{"value", core::ValueAggregate::kMax, "value", {0, 1}});
  defs.push_back(ext);
  defs.push_back(EventDefinition{EventTypeId("EXTPAIR_" + tag),
                                 {{"a", SlotFilter::instance_of(EventTypeId("EXT"))},
                                  {"b", SlotFilter::instance_of(EventTypeId("EXT"))}},
                                 core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                              core::c_space(0, geom::SpatialOp::kJoint, 1)}),
                                 seconds(20),
                                 {},
                                 ConsumptionMode::kConsume});
  return defs;
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

/// One crash-differential run's runtime shape.
struct CrashRun {
  std::size_t shards = 2;
  std::size_t batch_size = 1;
  std::vector<std::uint64_t> crash_at;
  std::size_t checkpoint_epoch = 24;
  std::size_t queue_capacity = 4096;
  bool migrate = false;
  OrderingTier ordering = OrderingTier::kGlobalTotalOrder;
};

/// Feeds `stream` through a crash-hooked sharded runtime hosting `defs`
/// and requires its tagged stream to equal a sequential engine's, byte
/// for byte — or, in the per-definition tier, every definition's
/// projection of it, with strictly increasing sequence numbers. Stores the
/// runtime's final counters in `final_stats` when given. Every arrival
/// must route somewhere (keep a wildcard registered): the reference
/// stamps are arrival indices.
void crash_differential(const std::vector<EventDefinition>& defs, const Stream& stream,
                        const CrashRun& run, const std::string& ctx,
                        RuntimeStats* final_stats = nullptr) {
  CrashSchedule schedule{run.crash_at};
  RuntimeOptions options;
  options.shards = run.shards;
  options.queue_capacity = run.queue_capacity;
  options.checkpoint_epoch = run.checkpoint_epoch;
  options.crash_hook = schedule.hook();
  options.ordering = run.ordering;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : defs) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const std::vector<oracle::Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/false, /*canonicalize_seq=*/false);

  std::vector<TaggedInstance> got_tagged;
  const auto collect = [&](std::vector<TaggedInstance> released) {
    got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                      std::make_move_iterator(released.end()));
  };
  {
    const oracle::RunDeadline deadline(sharded, ctx);
    std::size_t batches = 0;
    for (std::size_t i = 0; i < stream.entities.size(); i += run.batch_size) {
      const std::size_t n = std::min(run.batch_size, stream.entities.size() - i);
      sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                           std::span(stream.nows).subspan(i, n));
      collect(sharded.poll_tagged());
      if (run.migrate && ++batches % 5 == 0) {
        // Bounce a definition between shards while crashes are in flight:
        // migration control items ride the same logged inbox protocol, so
        // recovery must replay half-completed hand-offs too.
        sharded.migrate_definition(2, batches / 5 % run.shards);
      }
    }
    collect(oracle::flush_tagged_within(sharded, ctx));
  }
  const std::vector<oracle::Ref> got = oracle::to_refs(got_tagged, /*canonicalize_seq=*/false);
  if (run.ordering == OrderingTier::kPerDefinitionOrder) {
    oracle::check_per_def(got, want, ctx);
    oracle::check_per_def_seq_monotone(got, ctx);
  } else {
    oracle::check_equal(got, want, ctx);
  }
  if (::testing::Test::HasFatalFailure()) return;

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
  if (run.checkpoint_epoch <= stream.entities.size()) {
    EXPECT_GT(stats.checkpoints, 0u) << ctx;
  }
  EXPECT_EQ(stats.crashes, schedule.at.size())
      << ctx << " polls=" << schedule.polls->load();
  EXPECT_EQ(stats.recoveries, stats.crashes) << ctx;
  if (final_stats != nullptr) *final_stats = stats;
}

void run_crash_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                            ConsumptionMode mode, const std::string& tag,
                            std::vector<std::uint64_t> crash_at,
                            std::size_t checkpoint_epoch = 24,
                            std::size_t queue_capacity = 4096, bool migrate = false,
                            OrderingTier ordering = OrderingTier::kGlobalTotalOrder) {
  const std::string ctx =
      tag + " seed=" + std::to_string(seed) + " shards=" + std::to_string(shards) +
      " batch=" + std::to_string(batch_size) + " queue=" + std::to_string(queue_capacity) +
      (ordering == OrderingTier::kPerDefinitionOrder ? " perdef" : "");
  crash_differential(recovery_definitions(mode, tag), make_stream(seed, 320),
                     CrashRun{shards, batch_size, std::move(crash_at), checkpoint_epoch,
                              queue_capacity, migrate, ordering},
                     ctx);
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
  // An 8-arrival inbox keeps producers parked on the backpressure the
  // crash abandons; recovery's replay must drain it without deadlock.
  run_crash_differential(GetParam() ^ 0xbacULL, 4, 16, ConsumptionMode::kUnrestricted, "Q",
                         {11, 29}, 16, 8);
}

TEST_P(CrashRecoveryTest, CrashesInterleavedWithMigrations) {
  // A 1- or 2-arrival inbox bound is reached as soon as one or two
  // arrivals wait, so migration pairs and checkpoint barriers queue behind
  // blocked arrival producers, and crashes land between the pops the
  // worker counts into push sequences and the log entries recovery pairs
  // them with. The per-definition tier runs the same schedule: its release
  // holds gate a destination on the frontier, which a crashed source only
  // passes once its replay has republished the pre-barrier output.
  for (const OrderingTier ordering :
       {OrderingTier::kGlobalTotalOrder, OrderingTier::kPerDefinitionOrder}) {
    for (const std::size_t queue_capacity : {4096u, 1u, 2u}) {
      run_crash_differential(GetParam() ^ 0x316ULL, 4, 8, ConsumptionMode::kConsume, "M",
                             {17, 43}, 24, queue_capacity, /*migrate=*/true, ordering);
    }
  }
}

TEST_P(CrashRecoveryTest, MixedEntityShapesRecoverExactly) {
  // Field locations, int/string/bool attributes, top-level interval
  // instances with provenance and NaN/infinite/signed-zero attribute
  // values cross the replay records and checkpoint frames; the recovered
  // stream must still equal the sequential one.
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t batch : {1u, 16u}) {
      const std::string ctx = "X seed=" + std::to_string(GetParam()) +
                              " shards=" + std::to_string(shards) +
                              " batch=" + std::to_string(batch);
      crash_differential(mixed_definitions("X"), make_mixed_stream(GetParam() ^ 0x3c3ULL, 320),
                         CrashRun{shards, batch, {13, 41}}, ctx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest, ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(CrashRecovery, LongReplayLogIsReplayedByOffset) {
  // Batch size 1 logs one entry per delivery, and a 16384-arrival epoch
  // outlasts the 4400-arrival stream (about 7700 deliveries), so the crash
  // near the stream's end replays a log thousands of entries long.
  // Recovery finds each entry by its offset from the log front instead of
  // rescanning the log per entry.
  RuntimeStats stats;
  crash_differential(recovery_definitions(ConsumptionMode::kConsume, "L"),
                     make_stream(0x10c, 4400), CrashRun{2, 1, {7000}, 16384}, "L long log",
                     &stats);
  EXPECT_GT(stats.replayed, 1000u);
}

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
  for (const EventInstance& inst : oracle::flush_within(sharded, "checkpoints only")) {
    got.push_back(describe(inst));
  }
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

TEST(CrashRecovery, FinishedMigrationMovesBackAfterDestinationCrash) {
  // A finished migration's ticket lives only as long as its control items
  // (inbox and replay log). Two checkpoint epochs after the move, both
  // logs are truncated past the control pair; the destination then
  // crashes and recovers from a post-migration checkpoint, and moving the
  // definition back must still work, with the stream exact throughout.
  constexpr std::size_t kEpoch = 16;
  std::atomic<int> kill{-1};  // shard to crash on its next poll; -1 = none
  RuntimeOptions options;
  options.shards = 2;
  options.checkpoint_epoch = kEpoch;
  options.crash_hook = [&kill](std::size_t shard) {
    int want = static_cast<int>(shard);
    return kill.compare_exchange_strong(want, -1);
  };
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : recovery_definitions(ConsumptionMode::kConsume, "W")) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }
  const Stream stream = make_stream(0x7ea, 320);
  const std::vector<oracle::Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/false, /*canonicalize_seq=*/false);

  const std::string ctx = "weak ticket";
  constexpr std::size_t kMoved = 2;  // the NEAR join: buffered state moves
  const std::size_t from = sharded.shard_of(kMoved);
  const std::size_t to = 1 - from;
  std::vector<TaggedInstance> got_tagged;
  std::size_t fed = 0;
  const auto feed = [&](const std::size_t until) {
    for (; fed < until; ++fed) {
      sharded.ingest_batch(std::span(stream.entities).subspan(fed, 1),
                           std::span(stream.nows).subspan(fed, 1));
      std::vector<TaggedInstance> released = sharded.poll_tagged();
      got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                        std::make_move_iterator(released.end()));
    }
  };
  // Waits (bounded by the run deadline) until `done` holds.
  const auto await = [&](const auto& done) {
    while (!done(sharded.stats())) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  {
    const oracle::RunDeadline deadline(sharded, ctx);
    feed(80);
    ASSERT_TRUE(sharded.migrate_definition(kMoved, to));
    // Every arrival routes (the wildcard definition), so each kEpoch
    // arrivals push one checkpoint item to every shard, behind the control
    // pair. Once all of them are taken, both logs are truncated past it.
    feed(160);
    await([&](const RuntimeStats& s) { return s.checkpoints == 2 * (160 / kEpoch); });
    // The next checkpoint round reaches the destination whatever the
    // arrivals' routing, so it polls (and dies) again.
    kill.store(static_cast<int>(to));
    feed(160 + kEpoch);
    await([&](const RuntimeStats& s) { return kill.load() == -1 && s.recoveries == 1; });
    ASSERT_TRUE(sharded.migrate_definition(kMoved, from));
    feed(stream.entities.size());
    std::vector<TaggedInstance> rest = oracle::flush_tagged_within(sharded, ctx);
    got_tagged.insert(got_tagged.end(), std::make_move_iterator(rest.begin()),
                      std::make_move_iterator(rest.end()));
  }
  EXPECT_EQ(sharded.shard_of(kMoved), from);
  oracle::check_equal(oracle::to_refs(got_tagged, /*canonicalize_seq=*/false), want, ctx);
  const RuntimeStats stats = sharded.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.migrations, 2u);
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

TEST(CrashRecovery, ReplayLogStaysCompact) {
  // A fire-shaped stream (8 motes, 32 sensors, one double `value`, 100 us
  // apart) in 64-arrival batches, logged on one shard whose checkpoint
  // epoch never arrives: the log holds every arrival in one coding
  // context (back-referenced names, delta-coded stamps, nows and seqs,
  // the shape written once), and its byte count includes its chunks.
  RuntimeOptions options;
  options.shards = 1;
  options.checkpoint_epoch = std::size_t{1} << 20;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  // One close-pair join per sensor: no attribute prefilter, so every
  // arrival is routed (and logged).
  for (int k = 0; k < 32; ++k) {
    const SensorId sensor("SR" + std::to_string(k));
    sharded.add_definition(EventDefinition{
        EventTypeId("PAIR" + std::to_string(k)),
        {{"a", SlotFilter::observation(sensor)}, {"b", SlotFilter::observation(sensor)}},
        core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                     core::c_distance(0, 1, core::RelationalOp::kLt, 1.0)}),
        seconds(1),
        {},
        ConsumptionMode::kConsume});
  }
  sim::Rng rng(19);
  constexpr std::size_t kBatches = 64;
  constexpr std::size_t kBatch = 64;
  std::uint64_t i = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    Stream batch;
    for (std::size_t j = 0; j < kBatch; ++j, ++i) {
      const TimePoint t(static_cast<time_model::Tick>(i) * 100'000);
      batch.entities.push_back(core::Entity(
          obs(static_cast<int>(i % 8), "SR" + std::to_string(rng.uniform_int(0, 31)), i, t,
              {rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(0, 100))));
      batch.nows.push_back(t);
    }
    sharded.ingest_batch(std::span(batch.entities), std::span(batch.nows));
  }
  (void)oracle::flush_within(sharded, "replay log");
  const RuntimeStats stats = sharded.stats();
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(stats.arrivals, kBatches * kBatch);
  EXPECT_EQ(stats.replay_log_arrivals, kBatches * kBatch);
  ASSERT_GT(stats.replay_log_arrivals, 0u);
  const double per_arrival = static_cast<double>(stats.replay_log_bytes) /
                             static_cast<double>(stats.replay_log_arrivals);
  EXPECT_LE(per_arrival, 34.0);
}

// --- Replay-record entity codec ---

/// One entity of every shape the codec distinguishes.
std::vector<core::Entity> codec_entities() {
  std::vector<core::Entity> out;
  out.push_back(core::Entity(obs(1, "SRa", 7, TimePoint(123456), {1.5, -2.25}, 93.5)));

  core::PhysicalObservation field = obs(2, "SRb", 8, TimePoint(-42), {0, 0}, 0.1);
  field.location = geom::Polygon({{0, 0}, {4, 0}, {4, 3}, {1e-300, 3}});
  field.attributes.set("value", std::int64_t{-9'000'000'000});
  field.attributes.set("zone", std::string("north-east"));
  field.attributes.set("armed", true);
  field.attributes.set("off", false);
  field.attributes.set("tiny", 5e-324);  // denormal: must survive bit-exact
  field.attributes.set("negzero", -0.0);
  field.attributes.set("nan", std::numeric_limits<double>::quiet_NaN());
  field.attributes.set("inf", std::numeric_limits<double>::infinity());
  field.attributes.set("-inf", -std::numeric_limits<double>::infinity());
  field.attributes.set("big", std::int64_t{(std::int64_t{1} << 53) + 1});
  field.attributes.set("empty", std::string());
  out.push_back(core::Entity(field));

  core::PhysicalObservation bare;  // empty ids, no attributes
  out.push_back(core::Entity(bare));

  EventInstance point;
  point.key = core::EventInstanceKey{ObserverId("MT3"), EventTypeId("HOT"), 11};
  point.layer = core::Layer::kSensor;
  point.gen_time = TimePoint(5000);
  point.gen_location = Point{3, 4};
  point.est_time = TimePoint(4000);
  point.est_location = geom::Location(Point{3.25, 4.75});
  point.attributes.set("value", 71.0);
  point.confidence = 0.875;
  out.push_back(core::Entity(point));

  for (const core::Layer layer : {core::Layer::kPhysical, core::Layer::kPhysicalObservation,
                                  core::Layer::kCyberPhysical, core::Layer::kCyber}) {
    EventInstance interval;
    interval.key = core::EventInstanceKey{ObserverId("SINK1"), EventTypeId("CP_FIRE"), 3};
    interval.layer = layer;
    interval.gen_time = TimePoint(12'000'000);
    interval.gen_location = Point{50, 50};
    interval.est_time = time_model::TimeInterval(TimePoint(11'000'000), TimePoint(11'500'000));
    interval.est_location = geom::Polygon::disk(Point{10, 20}, 2.5, 7);
    interval.attributes.set("n", std::int64_t{4});
    interval.attributes.set("zone", std::string("north"));
    interval.attributes.set("armed", false);
    interval.attributes.set("value", 1.0 / 3.0);
    interval.confidence = 0.1 + 0.2;
    interval.provenance = {core::EventInstanceKey{ObserverId("MT1"), EventTypeId("HOT"), 9},
                           core::EventInstanceKey{ObserverId("MT2"), EventTypeId("obs:SRa"), 0},
                           core::EventInstanceKey{ObserverId(""), EventTypeId(""), ~0ULL}};
    out.push_back(core::Entity(interval));
  }
  return out;
}

/// The first record of a log that holds only the arrivals at `indices`:
/// its bytes stand alone, as the context starts fresh there.
std::string record_at(std::span<const std::uint32_t> indices,
                      const std::vector<core::Entity>& entities,
                      const std::vector<TimePoint>& nows,
                      const std::vector<std::uint64_t>& stamps) {
  ReplayLog log;
  log.append(indices, entities, nows, stamps);
  ReplayLog::Reader reader;
  std::string out;
  EXPECT_EQ(reader.fetch(log, log.front_seq(), out), nullptr);
  return out;
}

/// A standalone record of every arrival in the parallel arrays, in order.
std::string record_of(const std::vector<core::Entity>& entities,
                      const std::vector<TimePoint>& nows,
                      const std::vector<std::uint64_t>& stamps) {
  std::vector<std::uint32_t> indices(entities.size());
  std::iota(indices.begin(), indices.end(), 0U);
  return record_at(indices, entities, nows, stamps);
}

/// Decodes a standalone record (a log's first).
std::optional<Arrivals> unpack(std::string_view record) {
  return ReplayLog::Reader().decode(record);
}

/// A one-arrival record (stamp 0, now 0) of `entity`: its bytes pin every
/// field bit for bit, since a fresh context encodes deterministically.
std::string packed(const core::Entity& entity) {
  return record_of({entity}, {TimePoint(0)}, {0});
}

/// The entity of a one-arrival record, or nullopt.
std::optional<core::Entity> unpacked(std::string_view record) {
  std::optional<Arrivals> arrivals = unpack(record);
  if (!arrivals.has_value() || arrivals->entities.size() != 1) return std::nullopt;
  return std::move(arrivals->entities.front());
}

/// Replaces the first occurrence of `from` in `bytes` by `to`.
std::string patched(std::string bytes, const std::string& from, const std::string& to) {
  const std::size_t at = bytes.find(from);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) bytes.replace(at, from.size(), to);
  return bytes;
}

template <typename T>
std::string raw(T value) {
  std::string out(sizeof(T), '\0');
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

std::string varint(std::uint64_t v) {
  std::string out;
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>(v | 0x80));
  out.push_back(static_cast<char>(v));
  return out;
}

/// The codec's zigzag varint of a signed step.
std::string zigzag_varint(std::int64_t step) {
  const auto u = static_cast<std::uint64_t>(step);
  return varint((u << 1) ^ (0 - (u >> 63)));
}

/// The JSON wire form of either kind.
std::string json(const core::Entity& entity) {
  return entity.is_observation() ? core::encode(entity.observation())
                                 : core::encode(entity.instance());
}

/// Equality over every field: the JSON form covers each field by name,
/// and the packed bytes pin doubles bit for bit.
void expect_same_entity(const core::Entity& got, const core::Entity& want) {
  EXPECT_EQ(got.is_observation(), want.is_observation());
  EXPECT_EQ(json(got), json(want));
  EXPECT_EQ(packed(got), packed(want));
}

/// Decodes `record` and checks it holds exactly the given arrivals.
void expect_record_round_trips(const std::string& record, const std::vector<core::Entity>& entities,
                               const std::vector<TimePoint>& nows,
                               const std::vector<std::uint64_t>& stamps) {
  const std::optional<Arrivals> decoded = unpack(record);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->entities.size(), entities.size());
  for (std::size_t k = 0; k < entities.size(); ++k) {
    EXPECT_EQ(decoded->stamps[k], stamps[k]) << "arrival " << k;
    EXPECT_EQ(decoded->nows[k], nows[k]) << "arrival " << k;
    expect_same_entity(decoded->entities[k], entities[k]);
  }
}

TEST(ReplayCodec, EveryEntityShapeRoundTripsExactly) {
  const std::vector<core::Entity> entities = codec_entities();
  for (const core::Entity& e : entities) {
    const std::optional<core::Entity> decoded = unpacked(packed(e));
    ASSERT_TRUE(decoded.has_value()) << json(e);
    expect_same_entity(*decoded, e);
  }
  // Back to back in one record: later entities back-reference the names
  // earlier ones tabled, and delta-code against their fields.
  const std::vector<TimePoint> nows(entities.size(), TimePoint(3));
  const std::vector<std::uint64_t> stamps(entities.size(), 9);
  expect_record_round_trips(record_of(entities, nows, stamps), entities, nows, stamps);

  // Spot checks on the fields JSON renders with limited precision.
  const std::optional<core::Entity> field = unpacked(packed(entities[1]));
  ASSERT_TRUE(field.has_value());
  ASSERT_TRUE(field->location().is_field());
  EXPECT_EQ(field->location().as_field().vertices()[3].x, 1e-300);
  EXPECT_EQ(*field->attributes().find("tiny"), core::AttributeValue(5e-324));
  EXPECT_TRUE(std::signbit(std::get<double>(*field->attributes().find("negzero"))));
  EXPECT_TRUE(std::isnan(std::get<double>(*field->attributes().find("nan"))));
  EXPECT_EQ(*field->attributes().find("inf"),
            core::AttributeValue(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(*field->attributes().find("-inf"),
            core::AttributeValue(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(*field->attributes().find("big"),
            core::AttributeValue(std::int64_t{(std::int64_t{1} << 53) + 1}));
  EXPECT_EQ(*field->attributes().find("value"), core::AttributeValue(std::int64_t{-9'000'000'000}));
  const core::EventInstance& interval = entities.back().instance();
  const std::optional<core::Entity> decoded = unpacked(packed(entities.back()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->instance().est_time, interval.est_time);
  EXPECT_EQ(decoded->instance().est_location, interval.est_location);
  EXPECT_EQ(decoded->instance().provenance, interval.provenance);
  EXPECT_EQ(decoded->instance().confidence, interval.confidence);
  EXPECT_EQ(decoded->instance().layer, core::Layer::kCyber);
}

TEST(ReplayCodec, RecordRoundTripsTheSelectedArrivals) {
  const std::vector<core::Entity> entities = codec_entities();
  std::vector<TimePoint> nows;
  std::vector<std::uint64_t> stamps;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    nows.push_back(TimePoint(static_cast<time_model::Tick>(1000 * i) - 7));
    stamps.push_back(i % 2 == 0 ? 40 + i : 0);
  }
  const std::vector<std::uint32_t> indices = {0, 1, 3, 4, 7};
  const std::string record = record_at(indices, entities, nows, stamps);
  const std::optional<Arrivals> decoded = unpack(record);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->entities.size(), indices.size());
  ASSERT_EQ(decoded->nows.size(), indices.size());
  ASSERT_EQ(decoded->stamps.size(), indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    EXPECT_EQ(decoded->stamps[k], stamps[indices[k]]);
    EXPECT_EQ(decoded->nows[k], nows[indices[k]]);
    expect_same_entity(decoded->entities[k], entities[indices[k]]);
  }
  // The empty record is well-formed; trailing bytes are not.
  const std::string empty = record_at({}, entities, nows, stamps);
  ASSERT_TRUE(unpack(empty).has_value());
  EXPECT_TRUE(unpack(empty)->entities.empty());
  EXPECT_FALSE(unpack(record + '\0').has_value());
}

/// A hand-built two-slot state buffering every codec_entities() shape:
/// even-indexed entities in slot 0, odd-indexed ones in slot 1.
core::DefinitionState codec_state() {
  core::DefinitionState state{
      .def = std::make_shared<const EventDefinition>(
          EventDefinition{EventTypeId("J"),
                          {{"a", SlotFilter::any()}, {"b", SlotFilter::any()}},
                          core::c_time(0, time_model::TemporalOp::kBefore, 1),
                          seconds(600),
                          {},
                          ConsumptionMode::kConsume}),
      .seq = 41,
      .next_prune_at = TimePoint(-17),
      .buffers = std::vector<std::vector<core::DefinitionState::BufferedEntity>>(2),
      .load_routed = 1234,
      .load_tried = ~0ULL};
  const std::vector<core::Entity> entities = codec_entities();
  for (std::size_t k = 0; k < entities.size(); ++k) {
    state.buffers[k % 2].push_back(core::DefinitionState::BufferedEntity{
        std::make_shared<const core::Entity>(entities[k]), (std::uint64_t{1} << 40) + k});
  }
  return state;
}

TEST(ReplayCodec, DeltaFieldsRoundTripAtTheExtremes) {
  // Adjacent arrivals whose stamps, nows, times and seqs jump between the
  // 64-bit extremes and zero, backwards as well as forwards: every
  // difference wraps, and every value must still come back bit for bit.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint64_t kUMax = std::numeric_limits<std::uint64_t>::max();
  const std::int64_t ticks[] = {kMin, kMax, 0, kMax, kMin, -1, 1, kMin, 0};
  const std::uint64_t words[] = {kUMax, 0, kUMax, 1, std::uint64_t{1} << 63, 0, kUMax, 5, 4};
  std::vector<core::Entity> entities;
  std::vector<TimePoint> nows;
  std::vector<std::uint64_t> stamps;
  constexpr std::size_t n = std::size(ticks);
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t t = ticks[(k + 3) % n];
    core::PhysicalObservation o = obs(1, "SRa", words[(k + 1) % n], TimePoint(t), {-0.0, 5e-324},
                                      std::numeric_limits<double>::quiet_NaN());
    o.attributes.set("i", std::int64_t{kMin});
    entities.push_back(core::Entity(o));
    nows.push_back(TimePoint(ticks[k]));
    stamps.push_back(words[k]);
    // An instance after each observation: extreme generation and
    // estimated times, seqs and provenance seqs.
    EventInstance inst;
    inst.key = core::EventInstanceKey{ObserverId("OB"), EventTypeId("E"), words[(k + 2) % n]};
    inst.layer = core::Layer::kCyber;
    inst.gen_time = TimePoint(ticks[(k + 5) % n]);
    inst.gen_location = Point{std::numeric_limits<double>::infinity(), -0.0};
    if (k % 2 == 0) {
      inst.est_time = time_model::TimeInterval(TimePoint(kMin), TimePoint(kMax));
    } else {
      inst.est_time = TimePoint(ticks[(k + 7) % n]);
    }
    inst.est_location = geom::Location(Point{5e-324, -std::numeric_limits<double>::infinity()});
    inst.confidence = -0.0;
    inst.provenance = {core::EventInstanceKey{ObserverId("MT1"), EventTypeId("SRa"), kUMax},
                       core::EventInstanceKey{ObserverId("OB"), EventTypeId("E"), 0}};
    entities.push_back(core::Entity(inst));
    nows.push_back(TimePoint(ticks[(k + 4) % n]));
    stamps.push_back(words[(k + 6) % n]);
  }
  expect_record_round_trips(record_of(entities, nows, stamps), entities, nows, stamps);

  // The same entities in a checkpoint frame, stamps at the extremes too.
  core::DefinitionState state = codec_state();
  state.seq = kUMax;
  state.next_prune_at = TimePoint(kMin);
  state.buffers.assign(1, {});
  for (std::size_t k = 0; k < entities.size(); ++k) {
    state.buffers[0].push_back(core::DefinitionState::BufferedEntity{
        std::make_shared<const core::Entity>(entities[k]), stamps[k]});
  }
  const std::string frame = encode_definition_state(state);
  const std::optional<core::DefinitionState> decoded = decode_definition_state(frame, state.def);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, kUMax);
  EXPECT_EQ(decoded->next_prune_at, TimePoint(kMin));
  ASSERT_EQ(decoded->buffers.size(), 1u);
  ASSERT_EQ(decoded->buffers[0].size(), entities.size());
  for (std::size_t k = 0; k < entities.size(); ++k) {
    EXPECT_EQ(decoded->buffers[0][k].stamp, stamps[k]);
    expect_same_entity(*decoded->buffers[0][k].entity, entities[k]);
  }
  EXPECT_EQ(encode_definition_state(*decoded), frame);
}

/// Occurrences of `needle` in `bytes`.
std::size_t occurrences(std::string_view bytes, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t at = bytes.find(needle); at != std::string_view::npos;
       at = bytes.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ReplayCodec, MixedRecordBackReferencesItsStringTable) {
  // Observations and instances in one record: the instances' observer,
  // event and provenance keys reuse names the observations (and earlier
  // instances) tabled, so each distinct name is spelled out once.
  std::vector<core::Entity> entities;
  for (int k = 0; k < 6; ++k) {
    entities.push_back(core::Entity(obs(1 + k % 2, k % 3 == 0 ? "SRq" : "SRr",
                                        static_cast<std::uint64_t>(100 + k),
                                        TimePoint(1000 * k), {1.0 * k, 2.0}, 10.0 * k)));
    EventInstance inst;
    inst.key = core::EventInstanceKey{ObserverId("MT1"), EventTypeId("SRq"),
                                      static_cast<std::uint64_t>(k)};
    inst.layer = core::Layer::kSensor;
    inst.gen_time = TimePoint(1000 * k + 1);
    inst.gen_location = Point{1, 2};
    inst.est_time = TimePoint(1000 * k);
    inst.est_location = geom::Location(Point{1, 2});
    inst.attributes.set("value", 1.5 * k);
    inst.provenance = {core::EventInstanceKey{ObserverId("MT2"), EventTypeId("SRr"), 7},
                       core::EventInstanceKey{ObserverId("MT1"), EventTypeId("value"), 8}};
    entities.push_back(core::Entity(inst));
  }
  std::vector<TimePoint> nows;
  std::vector<std::uint64_t> stamps;
  for (std::size_t k = 0; k < entities.size(); ++k) {
    nows.push_back(TimePoint(static_cast<time_model::Tick>(1000 * k)));
    stamps.push_back(k + 1);
  }
  const std::string record = record_of(entities, nows, stamps);
  expect_record_round_trips(record, entities, nows, stamps);
  for (const char* name : {"MT1", "MT2", "SRq", "SRr", "value"}) {
    EXPECT_EQ(occurrences(record, name), 1u) << name;
  }
}

TEST(ReplayCodec, BackReferencesPastTheTableAreRejected) {
  // Two observations sharing their names: the second one's mote and
  // sensor are back-references 1 and 2; the table then holds 3 entries
  // (mote, sensor, and the attribute name "value").
  const std::vector<core::Entity> entities = {
      core::Entity(obs(1, "SRa", 1, TimePoint(0), {0, 0}, 1.0)),
      core::Entity(obs(1, "SRa", 2, TimePoint(0), {0, 0}, 2.0))};
  const std::vector<TimePoint> nows(2, TimePoint(0));
  const std::vector<std::uint64_t> stamps = {1, 2};
  const std::string record = record_of(entities, nows, stamps);
  // The second arrival starts where a one-arrival record would end:
  // Δstamp, Δnow, kind, then its mote and sensor references.
  const std::size_t second = record_of({entities[0]}, {nows[0]}, {stamps[0]}).size();
  const std::size_t mote_ref = second + 3;
  ASSERT_EQ(record[mote_ref], '\1');
  ASSERT_EQ(record[mote_ref + 1], '\2');
  const auto with = [&](std::size_t at, char k) {
    std::string m = record;
    m[at] = k;
    return m;
  };
  EXPECT_FALSE(unpack(with(mote_ref + 1, '\4')).has_value()) << "one past the table";
  EXPECT_FALSE(unpack(with(mote_ref, '\x7f')).has_value()) << "far past the table";
  // The last entry is in range: the sensor then reads as "value".
  const std::optional<Arrivals> last = unpack(with(mote_ref + 1, '\3'));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->entities[1].observation().sensor, SensorId("value"));
  // Forward references: in a first arrival nothing is tabled before its
  // mote, and only the mote before its sensor.
  const std::string first = record_of({entities[0]}, {nows[0]}, {stamps[0]});
  const std::string mote = std::string(1, '\0') + "\3MT1";
  const std::string sensor = std::string(1, '\0') + "\3SRa";
  EXPECT_FALSE(unpack(patched(first, mote, "\1")).has_value()) << "mote ref 1";
  EXPECT_FALSE(unpack(patched(first, sensor, "\2")).has_value()) << "sensor ref 2";
  const std::optional<Arrivals> self = unpack(patched(first, sensor, "\1"));
  ASSERT_TRUE(self.has_value()) << "a back-reference to the mote just tabled";
  EXPECT_EQ(self->entities[0].observation().sensor, SensorId("MT1"));
  // A reference varint that never terminates.
  EXPECT_FALSE(unpack(record.substr(0, mote_ref) + std::string(11, '\xff') +
                               record.substr(mote_ref + 1))
                   .has_value());
}

TEST(ReplayCodec, MinimalArrivalsFillARecord) {
  // The smallest arrival: same stamp, now and seq as the one before
  // (one-byte zero deltas), its time elided, back-referenced empty ids, a
  // point location and the previous (empty) shape — 22 bytes. A record
  // made of nothing else must decode: the decoder's count() minimum is
  // a true lower bound.
  core::PhysicalObservation minimal;
  minimal.time = TimePoint(0);
  const std::vector<core::Entity> entities(300, core::Entity(minimal));
  const std::vector<TimePoint> nows(entities.size(), TimePoint(0));
  const std::vector<std::uint64_t> stamps(entities.size(), 0);
  const std::string record = record_of(entities, nows, stamps);
  const std::size_t one = packed(entities[0]).size();
  EXPECT_EQ(record.size(), one + 1 + 22 * (entities.size() - 1));  // +1: two-byte count
  expect_record_round_trips(record, entities, nows, stamps);

  // The same for a checkpoint frame's buffered entities (21 bytes each).
  core::DefinitionState state = codec_state();
  state.buffers.assign(3, {});  // two empty slots around the full one
  for (const core::Entity& e : entities) {
    state.buffers[1].push_back(
        core::DefinitionState::BufferedEntity{std::make_shared<const core::Entity>(e), 0});
  }
  const std::string frame = encode_definition_state(state);
  const std::optional<core::DefinitionState> decoded = decode_definition_state(frame, state.def);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->buffers[1].size(), entities.size());
  EXPECT_EQ(encode_definition_state(*decoded), frame);
}

// --- Replay log ---

/// Appends every arrival of `a` to `log` as one record.
void append_record(ReplayLog& log, const Arrivals& a) {
  std::vector<std::uint32_t> indices(a.entities.size());
  std::iota(indices.begin(), indices.end(), 0U);
  log.append(indices, a.entities, a.nows, a.stamps);
}

/// One item read back from a log: a control's block, or a record's bytes
/// and their decoding.
struct ReadItem {
  ReplayLog::ControlBlock block;
  std::string record;
  std::optional<Arrivals> arrivals;
};

/// Every item of `log`, read from its front by one reader.
std::vector<ReadItem> read_log(const ReplayLog& log) {
  std::vector<ReadItem> out;
  ReplayLog::Reader reader;
  for (std::uint64_t seq = log.front_seq(); seq < log.end_seq(); ++seq) {
    ReadItem item;
    item.block = reader.fetch(log, seq, item.record);
    if (item.block == nullptr) item.arrivals = reader.decode(item.record);
    out.push_back(std::move(item));
  }
  return out;
}

void expect_same_arrivals(const std::optional<Arrivals>& got, const Arrivals& want) {
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->entities.size(), want.entities.size());
  for (std::size_t k = 0; k < want.entities.size(); ++k) {
    EXPECT_EQ(got->stamps[k], want.stamps[k]) << "arrival " << k;
    EXPECT_EQ(got->nows[k], want.nows[k]) << "arrival " << k;
    expect_same_entity(got->entities[k], want.entities[k]);
  }
}

/// Arrivals [first, first + n), 100 us apart, on sensors `tag`0..149;
/// every third one has a two-attribute shape instead of `value`.
Arrivals varied_arrivals(std::uint64_t first, std::size_t n, const std::string& tag) {
  Arrivals a;
  for (std::uint64_t i = first; i < first + n; ++i) {
    const TimePoint t(static_cast<time_model::Tick>(i) * 100'000);
    core::PhysicalObservation o = obs(static_cast<int>(i % 8), tag + std::to_string(i % 150), i,
                                      t, {0.5 * static_cast<double>(i), -1.0}, 0.25);
    if (i % 3 == 0) {
      o.attributes = core::AttributeSet{};
      o.attributes.set(tag + "_level", static_cast<std::int64_t>(i));
      o.attributes.set("zone", "z" + std::to_string(i % 5));
    }
    a.entities.push_back(core::Entity(std::move(o)));
    a.nows.push_back(t);
    a.stamps.push_back(i + 1);
  }
  return a;
}

/// codec_entities() as arrivals stamped from `first`.
Arrivals codec_arrivals(std::uint64_t first) {
  Arrivals a;
  a.entities = codec_entities();
  for (std::uint64_t k = 0; k < a.entities.size(); ++k) {
    a.nows.push_back(TimePoint(static_cast<time_model::Tick>(100 * (first + k))));
    a.stamps.push_back(first + k + 1);
  }
  return a;
}

/// A log of three records whose later ones back-reference names and
/// shapes the earlier ones tabled.
ReplayLog& three_record_log(ReplayLog& log) {
  append_record(log, codec_arrivals(0));
  append_record(log, codec_arrivals(100));
  append_record(log, varied_arrivals(200, 12, "SRa"));
  return log;
}

TEST(ReplayCodec, EveryTruncationIsRejectedCleanly) {
  std::vector<std::uint64_t> stamps;
  std::vector<TimePoint> nows;
  const std::vector<core::Entity> entities = codec_entities();
  for (const core::Entity& e : entities) {
    const std::string bytes = packed(e);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(unpack(std::string_view(bytes).substr(0, len)).has_value())
          << "prefix of length " << len << " decoded";
    }
    stamps.push_back(stamps.size() + 1);
    nows.push_back(TimePoint(static_cast<time_model::Tick>(stamps.size())));
  }
  const std::string record = record_of(entities, nows, stamps);
  for (std::size_t len = 0; len < record.size(); ++len) {
    EXPECT_FALSE(unpack(std::string_view(record).substr(0, len)).has_value())
        << "record prefix of length " << len << " decoded";
  }

  // In a log: every prefix of every record is rejected in the context the
  // records before it leave.
  ReplayLog log;
  const std::vector<ReadItem> items = read_log(three_record_log(log));
  ASSERT_EQ(items.size(), 3u);
  EXPECT_LT(items[1].record.size(), items[0].record.size()) << "no back-references";
  for (std::size_t k = 0; k < items.size(); ++k) {
    for (std::size_t len = 0; len < items[k].record.size(); ++len) {
      ReplayLog::Reader reader;
      std::string bytes;
      for (std::size_t j = 0; j < k; ++j) {
        (void)reader.fetch(log, log.front_seq() + j, bytes);
        ASSERT_TRUE(reader.decode(bytes).has_value());
      }
      (void)reader.fetch(log, log.front_seq() + k, bytes);
      EXPECT_FALSE(reader.decode(std::string_view(bytes).substr(0, len)).has_value())
          << "record " << k << " prefix of length " << len << " decoded";
    }
  }
}

TEST(ReplayCodec, SameShapeHeaderNeedsAShapeInTheContext) {
  // An observation with empty ids, seq 0 and time = now = 0 at the
  // origin: count, Δstamp and ΔΔnow, the header (bit 3: time elided),
  // two literal empty srefs, Δseq, the point, then its shape (empty).
  const std::string head("\1\0\0", 3);
  const std::string body = std::string(5, '\0') + std::string(16, '\0');
  ASSERT_TRUE(unpack(head + '\x08' + body + '\0').has_value());
  EXPECT_FALSE(unpack(head + '\x0a' + body).has_value()) << "same shape, none yet";

  // In a log, a record's same-shape header can refer to the previous
  // record's shape: alone (in a fresh context) that record is rejected.
  ReplayLog log;
  append_record(log, varied_arrivals(1, 1, "SRa"));  // shape {value: f64}
  Arrivals next;
  next.entities.push_back(core::Entity(obs(9, "SRz", 2, TimePoint(100'000), {1, 1}, 5.0)));
  next.nows.push_back(TimePoint(100'000));
  next.stamps.push_back(3);
  append_record(log, next);
  const std::vector<ReadItem> items = read_log(log);
  ASSERT_EQ(items.size(), 2u);
  expect_same_arrivals(items[1].arrivals, next);
  ASSERT_EQ(items[1].record[3] & 0x0a, 0x0a) << "same shape, time elided";
  EXPECT_FALSE(unpack(items[1].record).has_value());
}

TEST(ReplayLog, RetractLeavesTheLogAsItWas) {
  // Each retraction undoes the append right before it; `log` then goes
  // on like `twin`, which never saw the retracted items, and every item
  // must read back the same bytes and decode.
  ReplayLog log;
  ReplayLog twin;
  EXPECT_EQ(log.bytes(), 0u) << "nothing before the first append";
  const Arrivals r1 = varied_arrivals(0, 40, "SR");
  append_record(log, r1);
  append_record(twin, r1);
  const std::size_t held = log.bytes();
  // A record that fills the string table with new names, ends on a new
  // shape and fills new chunks.
  append_record(log, varied_arrivals(40, 300, "NEW"));
  EXPECT_GT(log.bytes(), held + 2 * ReplayLog::kChunk);
  log.retract();
  EXPECT_LT(log.bytes(), held + ReplayLog::kChunk) << "the new chunks are freed";
  EXPECT_EQ(log.arrivals(), twin.arrivals());
  EXPECT_EQ(log.end_seq(), twin.end_seq());
  // A retracted barrier leaves the context running. r2 starts on r1's
  // last shape and tables new names it then repeats, so its bytes show
  // whether the retractions restored the shape and the string table.
  log.append(std::make_shared<int>(1), true);
  log.retract();
  const Arrivals r2 = varied_arrivals(342, 200, "SR");
  append_record(log, r2);
  append_record(twin, r2);
  // A record retracted right after a barrier: the next one still starts
  // the fresh context.
  const auto barrier = std::make_shared<int>(2);
  log.append(barrier, true);
  twin.append(barrier, true);
  append_record(log, varied_arrivals(542, 20, "NEW"));
  log.retract();
  const Arrivals r3 = varied_arrivals(562, 30, "SR");
  append_record(log, r3);
  append_record(twin, r3);

  EXPECT_EQ(log.arrivals(), 270u);
  EXPECT_EQ(log.end_seq(), twin.end_seq());
  const std::vector<ReadItem> got = read_log(log);
  const std::vector<ReadItem> want = read_log(twin);
  ASSERT_EQ(got.size(), 4u);
  ASSERT_EQ(want.size(), 4u);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].block, want[k].block) << "item " << k;
    EXPECT_EQ(got[k].record, want[k].record) << "item " << k;
  }
  expect_same_arrivals(got[0].arrivals, r1);
  expect_same_arrivals(got[1].arrivals, r2);
  EXPECT_EQ(got[2].block, barrier);
  expect_same_arrivals(got[3].arrivals, r3);
  EXPECT_EQ(got[3].record, record_of(r3.entities, r3.nows, r3.stamps)) << "not a fresh context";
}

TEST(ReplayLog, TruncationAtACheckpointLeavesADecodableFront) {
  ReplayLog log;
  const Arrivals r1 = varied_arrivals(0, 200, "SR");
  const Arrivals r2 = varied_arrivals(200, 200, "SR");
  append_record(log, r1);
  log.append(std::make_shared<int>(1), false);  // a migration control
  append_record(log, r2);
  log.append(std::make_shared<int>(2), true);  // a checkpoint
  const std::uint64_t barrier = log.end_seq() - 1;
  // The same names again: after the barrier they are tabled afresh.
  const Arrivals r3 = varied_arrivals(400, 30, "SR");
  const Arrivals r4 = varied_arrivals(430, 30, "SR");
  append_record(log, r3);
  append_record(log, r4);
  EXPECT_EQ(log.arrivals(), 460u);

  // A reader part-way through, as recovery reads: it fetched the barrier,
  // then the log is truncated through it.
  ReplayLog::Reader reader;
  std::string record;
  for (std::uint64_t seq = log.front_seq(); seq <= barrier; ++seq) {
    if (reader.fetch(log, seq, record) == nullptr) {
      ASSERT_TRUE(reader.decode(record).has_value());
    }
  }
  const std::size_t held = log.bytes();
  EXPECT_THROW(log.truncate_through(barrier - 1), std::invalid_argument) << "a record";
  EXPECT_THROW(log.truncate_through(barrier - 2), std::invalid_argument) << "not a barrier";
  log.truncate_through(barrier);
  EXPECT_EQ(log.front_seq(), barrier + 1);
  EXPECT_EQ(log.arrivals(), 60u);
  EXPECT_LT(log.bytes(), held - 2 * ReplayLog::kChunk);
  EXPECT_LT(log.bytes(), 2 * ReplayLog::kChunk) << "the held records share one chunk";
  int controls = 0;
  log.for_each_control([&](std::uint64_t, const ReplayLog::ControlBlock&) { ++controls; });
  EXPECT_EQ(controls, 0);

  // The part-way reader goes on across the truncation...
  ASSERT_EQ(reader.fetch(log, barrier + 1, record), nullptr);
  expect_same_arrivals(reader.decode(record), r3);
  // ...and a fresh one starts at the new front, which is coded exactly
  // as a standalone record.
  std::vector<ReadItem> items = read_log(log);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].record, record_of(r3.entities, r3.nows, r3.stamps));
  expect_same_arrivals(items[0].arrivals, r3);
  expect_same_arrivals(items[1].arrivals, r4);
  ReplayLog::Reader other;
  EXPECT_THROW((void)other.fetch(log, barrier + 2, record), std::out_of_range);
  EXPECT_THROW((void)other.fetch(log, barrier, record), std::out_of_range);

  // Truncated through its last item, the log still appends and reads.
  log.append(std::make_shared<int>(3), true);
  log.truncate_through(log.end_seq() - 1);
  EXPECT_EQ(log.arrivals(), 0u);
  const Arrivals r5 = varied_arrivals(460, 10, "SR");
  append_record(log, r5);
  items = read_log(log);
  ASSERT_EQ(items.size(), 1u);
  expect_same_arrivals(items[0].arrivals, r5);
  EXPECT_EQ(items[0].record, record_of(r5.entities, r5.nows, r5.stamps));
}

TEST(ReplayCodec, MalformedRecordsAreRejectedCleanly) {
  const std::vector<core::Entity> entities = codec_entities();
  const core::Entity& interval = entities.back();
  // count, Δstamp and Δnow (one byte each), then the entity's header: an
  // instance (bit 0) with a polygon location (bit 2) and an interval
  // est_time (bit 4), its shape written out.
  const std::string bytes = packed(interval);
  constexpr std::size_t kHeader = 3;
  ASSERT_EQ(bytes[kHeader], '\x15');
  const auto reject = [](const std::string& m, const char* what) {
    EXPECT_FALSE(unpack(m).has_value()) << what;
  };
  const auto with_header = [&](char header) {
    std::string m = bytes;
    m[kHeader] = header;
    return m;
  };
  reject(with_header('\x35'), "header bit 5");
  reject(with_header('\x95'), "header bit 7");
  reject(with_header('\x17'), "same shape with no shape in the context");
  // An observation has no est_time: its interval bit is rejected.
  const std::string observation = packed(entities.front());
  ASSERT_EQ(observation[kHeader], '\0');
  std::string interval_observation = observation;
  interval_observation[kHeader] = '\x10';
  reject(interval_observation, "observation with an interval est_time");
  // Interval end before begin: the end's +500000-tick step from the
  // begin turned into a -500000 one (same varint width).
  reject(patched(bytes, zigzag_varint(500'000), zigzag_varint(-500'000)),
         "inverted interval");
  // A 7-vertex polygon relabelled as 2 vertices.
  const geom::Polygon& disk = interval.instance().est_location.as_field();
  const std::string first_vertex = raw(disk.vertices()[0].x);
  reject(patched(bytes, std::string(1, '\7') + first_vertex, std::string(1, '\2') + first_vertex),
         "two-vertex polygon");
  reject(patched(bytes, std::string(1, '\7') + first_vertex, std::string(1, '\x7f') + first_vertex),
         "vertex count past the end");
  // A bool value byte other than 0/1. The values follow the shape (whose
  // last entry is the str-typed "zone") in name order: armed (false)
  // first.
  const std::string armed = std::string(1, '\5') + "armed" + std::string(1, '\2');
  const std::string shape_end = std::string("zone") + '\3';
  reject(patched(bytes, shape_end + '\0', shape_end + '\2'), "bool byte 2");
  reject(patched(bytes, armed, std::string(1, '\5') + "armed" + std::string(1, '\4')),
         "unknown attribute type");
  // A varint that never terminates, and a count no input can hold.
  EXPECT_FALSE(unpack(std::string(12, '\xff')).has_value());
  EXPECT_FALSE(unpack(std::string("\xff\xff\xff\x0f")).has_value());

  // Flip each byte in turn across a whole record: decode must return
  // nullopt or a value — never crash or read out of bounds (the ASan and
  // UBSan CI legs back this up).
  const std::vector<TimePoint> nows(entities.size(), TimePoint(1));
  const std::vector<std::uint64_t> stamps(entities.size(), 1);
  const std::string record = record_of(entities, nows, stamps);
  for (std::size_t i = 0; i < record.size(); ++i) {
    for (const char mask : {'\x01', '\x20', '\x80'}) {
      std::string flipped = record;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      (void)unpack(flipped);
    }
  }
}

// --- Checkpoint frame codec ---

TEST(CheckpointCodec, RoundTripIsAFixedPoint) {
  const core::DefinitionState state = codec_state();
  const std::string frame = encode_definition_state(state);
  std::optional<core::DefinitionState> decoded = decode_definition_state(frame, state.def);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->def, state.def);
  EXPECT_EQ(decoded->seq, state.seq);
  EXPECT_EQ(decoded->next_prune_at, state.next_prune_at);
  EXPECT_EQ(decoded->load_routed, state.load_routed);
  EXPECT_EQ(decoded->load_tried, state.load_tried);
  ASSERT_EQ(decoded->buffers.size(), state.buffers.size());
  for (std::size_t slot = 0; slot < state.buffers.size(); ++slot) {
    const auto& want = state.buffers[slot];
    const auto& got = decoded->buffers[slot];
    ASSERT_EQ(got.size(), want.size()) << "slot " << slot;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].stamp, want[k].stamp) << "slot " << slot << " entity " << k;
      expect_same_entity(*got[k].entity, *want[k].entity);
    }
  }
  // encode(decode(encode(x))) == encode(x): the codec is a fixed point.
  EXPECT_EQ(encode_definition_state(*decoded), frame);
}

TEST(CheckpointCodec, FreshStateWithMaxPruneClockRoundTrips) {
  const auto def = std::make_shared<const EventDefinition>(EventDefinition{
      EventTypeId("F"),
      {{"x", SlotFilter::observation(SensorId("SR"))}},
      core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
      seconds(60),
      {},
      ConsumptionMode::kConsume});
  DetectionEngine engine(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  engine.add_definition(def);
  const core::DefinitionState state = engine.snapshot_definition_state(0);
  EXPECT_EQ(state.next_prune_at, TimePoint::max());
  // A snapshot shares the registered spec; the frame carries dynamic
  // state only.
  EXPECT_EQ(state.def.get(), def.get());
  const std::string frame = encode_definition_state(state);
  std::optional<core::DefinitionState> decoded = decode_definition_state(frame, def);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->def.get(), def.get());
  EXPECT_EQ(decoded->next_prune_at, TimePoint::max());
  EXPECT_EQ(encode_definition_state(*decoded), frame);
  // The decoded state implants: the spec came from the caller.
  DetectionEngine restored(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  EXPECT_EQ(restored.implant_definition_state(std::move(*decoded)), 0u);
  EXPECT_EQ(restored.snapshot_definition_state(0).def.get(), def.get());
}

TEST(CheckpointCodec, EveryTruncationIsRejectedCleanly) {
  const core::DefinitionState state = codec_state();
  const std::string frame = encode_definition_state(state);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_definition_state(std::string_view(frame).substr(0, len), state.def)
                     .has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(CheckpointCodec, MalformedFramesAreRejectedCleanly) {
  const core::DefinitionState state = codec_state();
  const std::string frame = encode_definition_state(state);
  // Four 8-byte header fields, the slot count, slot 0's entity count (both
  // one-byte varints here), then the first entity's Δstamp and header.
  constexpr std::size_t kSlots = 4 * sizeof(std::uint64_t);
  const std::size_t kTag = kSlots + 2 + zigzag_varint(std::int64_t{1} << 40).size();
  ASSERT_EQ(frame[kSlots], '\2');
  ASSERT_EQ(static_cast<std::size_t>(frame[kSlots + 1]), state.buffers[0].size());
  ASSERT_EQ(frame[kTag], '\0');
  const std::string past_end = varint(frame.size());
  std::string bad_tag = frame;
  bad_tag[kTag] = '\x20';
  const std::pair<std::string, const char*> mutants[] = {
      {"", "empty frame"},
      {frame.substr(0, kSlots) + past_end + frame.substr(kSlots + 1), "slot count past the end"},
      {frame.substr(0, kSlots + 1) + past_end + frame.substr(kSlots + 2),
       "entity count past the end"},
      {bad_tag, "unknown header bit"},
      {frame + '\0', "one trailing byte"},
  };
  for (const auto& [m, what] : mutants) {
    EXPECT_FALSE(decode_definition_state(m, state.def).has_value()) << what;
  }
  // Flip each byte in turn across the whole frame: decode must return
  // nullopt or a value — never crash or read out of bounds (the ASan and
  // UBSan CI legs back this up).
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const char mask : {'\x01', '\x20', '\x80'}) {
      std::string flipped = frame;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      (void)decode_definition_state(flipped, state.def);
    }
  }
}

/// 1-8 random byte edits (overwrite, delete or insert) of `bytes`.
std::string mutated(std::string bytes, sim::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform_int(0, 7));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        bytes[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        bytes.erase(at, 1);
        break;
      default:
        bytes.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
        break;
    }
  }
  return bytes;
}

TEST(CrashRecoveryCodec, SeededRandomMutationsAreHandled) {
  // Random edits of a record, a multi-record log and a frame: decode
  // returns nullopt or a value, never crashes or reads out of bounds, and
  // whatever decodes re-encodes to a canonical form that is a fixed point.
  sim::Rng rng(0xc0dec);
  const std::vector<core::Entity> entities = codec_entities();
  std::vector<TimePoint> nows;
  std::vector<std::uint64_t> stamps;
  for (std::size_t k = 0; k < entities.size(); ++k) {
    nows.push_back(TimePoint(static_cast<time_model::Tick>(100 * k)));
    stamps.push_back(10 + 2 * k);
  }
  const std::string record = record_of(entities, nows, stamps);
  const core::DefinitionState state = codec_state();
  const std::string frame = encode_definition_state(state);
  ReplayLog log;
  const std::vector<ReadItem> items = read_log(three_record_log(log));
  for (int round = 0; round < 2000; ++round) {
    // One record of a log edited, decoded in the context the records
    // before it leave (the later ones too, while they still decode):
    // whatever decodes re-logs to a canonical log that is a fixed point.
    if (round % 4 == 0) {
      const auto edited = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(items.size()) - 1));
      ReplayLog::Reader reader;
      std::string bytes;
      ReplayLog canonical;
      std::size_t decoded = 0;
      for (std::size_t j = 0; j < items.size(); ++j, ++decoded) {
        (void)reader.fetch(log, log.front_seq() + j, bytes);
        const std::optional<Arrivals> got = reader.decode(j == edited ? mutated(bytes, rng) : bytes);
        if (!got.has_value()) break;
        if (!got->entities.empty()) append_record(canonical, *got);
      }
      ASSERT_GE(decoded, edited);
      ReplayLog again;
      const std::vector<ReadItem> first = read_log(canonical);
      for (const ReadItem& item : first) {
        ASSERT_TRUE(item.arrivals.has_value());
        append_record(again, *item.arrivals);
      }
      const std::vector<ReadItem> second = read_log(again);
      ASSERT_EQ(second.size(), first.size());
      for (std::size_t j = 0; j < first.size(); ++j) EXPECT_EQ(second[j].record, first[j].record);
    }
    if (const std::optional<Arrivals> got = unpack(mutated(record, rng))) {
      const std::string canonical = record_of(got->entities, got->nows, got->stamps);
      const std::optional<Arrivals> again = unpack(canonical);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(record_of(again->entities, again->nows, again->stamps), canonical);
    }
    if (const std::optional<core::DefinitionState> got =
            decode_definition_state(mutated(frame, rng), state.def)) {
      const std::string canonical = encode_definition_state(*got);
      const std::optional<core::DefinitionState> again =
          decode_definition_state(canonical, state.def);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(encode_definition_state(*again), canonical);
    }
  }
}

}  // namespace
}  // namespace stem::runtime
