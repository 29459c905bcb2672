#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/rebalance.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Definition moves that spread one event type over several shards,
/// proven differentially:
///
///  - two of a type's definitions moved apart from the third mid-stream
///    (move_definitions), moved on together (migrate_definition) and moved
///    back must stay *byte-exact* in the global tier (the merge-side
///    renumbering makes the partitioned sequence counters invisible) and
///    keep the relaxed tiers' contracts (canonicalized per-definition
///    subsequences / multiset, per-definition seq monotonicity), plain and
///    cascade;
///  - a skewed soak where one event type's four definitions carry ~90% of
///    the stream: the policy moves single definitions off the hot shard,
///    splits fire, nothing is skipped, and the max/mean arrival-load
///    spread narrows — with the merged output still byte-identical to the
///    sequential engine;
///  - a control whose hot load sits on one definition shows the skip
///    counter doing its job.

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
using oracle::Ref;
using oracle::WatermarkAudit;
using time_model::seconds;
using time_model::TimePoint;

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

/// Defs 0-2 share one event type across three sensor keys (SRa/SRb/SRc)
/// and start co-located. NEAR joins SRa with SRb; WILD keeps stamps dense.
std::vector<EventDefinition> split_definitions(ConsumptionMode mode, const std::string& tag) {
  std::vector<EventDefinition> defs;
  const double thresholds[] = {60.0, 40.0, 50.0};
  const char* sensors[] = {"SRa", "SRb", "SRc"};
  for (int i = 0; i < 3; ++i) {
    EventDefinition hot{EventTypeId("HOT_" + tag),
                        {{"x", SlotFilter::observation(SensorId(sensors[i]))}},
                        core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                     core::RelationalOp::kGt, thresholds[i]),
                        seconds(60),
                        {},
                        mode};
    hot.synthesis.attributes.push_back(
        core::AttributeRule{"value", core::ValueAggregate::kMax, "value", {0}});
    defs.push_back(hot);
  }

  auto near_join = core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                core::c_distance(0, 1, core::RelationalOp::kLt, 8.0)});
  defs.push_back(EventDefinition{EventTypeId("NEAR_" + tag),
                                 {{"a", SlotFilter::observation(SensorId("SRa"))},
                                  {"b", SlotFilter::observation(SensorId("SRb"))}},
                                 std::move(near_join),
                                 seconds(4),
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

/// 90/10 towards the shared type's sensors (the hot-type scenario).
Stream make_stream(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const char* hot[] = {"SRa", "SRb", "SRc"};
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(100 + rng.uniform_int(0, 900));
    const char* sensor = rng.chance(0.9) ? hot[rng.uniform_int(0, 2)] : "SRd";
    const TimePoint t = now - time_model::milliseconds(rng.uniform_int(0, 1500));
    s.entities.push_back(core::Entity(obs(static_cast<int>(rng.uniform_int(1, 4)), sensor,
                                          static_cast<std::uint64_t>(i), t,
                                          {rng.uniform(0, 24), rng.uniform(0, 24)},
                                          rng.uniform(0, 100))));
    s.nows.push_back(now);
  }
  return s;
}

std::string tier_name(OrderingTier tier) {
  switch (tier) {
    case OrderingTier::kGlobalTotalOrder:
      return "global";
    case OrderingTier::kPerDefinitionOrder:
      return "perdef";
    case OrderingTier::kUnorderedWatermarked:
      return "unordered";
  }
  return "?";
}

/// Moves defs 1 and 2 away from def 0 (same type) at n/4, on to a third
/// shard at n/2 when there is one, and back at 3n/4, and applies the
/// tier's oracle contract end to end. `poll_each_batch` false skips the
/// per-batch polls, so the final flush releases the whole stream across
/// every move barrier.
void run_split_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                            ConsumptionMode mode, OrderingTier tier, const std::string& tag,
                            bool cascade = false, std::uint32_t pipeline = 1,
                            std::size_t queue_capacity = 4096, bool poll_each_batch = true) {
  RuntimeOptions options;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  options.ordering = tier;
  options.cascade = cascade;
  options.cascade_pipeline = pipeline;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : split_definitions(mode, tag)) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  // Relaxed tiers surface the partitioned per-shard sequence counters, so
  // the oracle compares with EventInstanceKey::seq canonicalized; the
  // global tier's merge renumbers and must stay byte-exact. Cascade mode
  // is stricter still: the coordinator renumbers per-type sequences at
  // dispatch time in *every* tier, so even the relaxed cascade legs must
  // reproduce the sequential numbering exactly.
  const bool canonical = !cascade && tier != OrderingTier::kGlobalTotalOrder;

  const Stream stream = make_stream(seed, 320);
  const std::vector<Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, cascade, canonical);

  const std::string ctx = tag + "/" + tier_name(tier) + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size) +
                          (cascade ? " cascade pipeline=" + std::to_string(pipeline) : "") +
                          " queue=" + std::to_string(queue_capacity) +
                          (poll_each_batch ? "" : " flush-only");
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  WatermarkAudit audit(ctx);
  std::vector<TaggedInstance> got_tagged;
  const auto collect = [&](std::vector<TaggedInstance> released) {
    audit.observe(released);
    audit.after_poll(sharded.low_watermark());
    got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                      std::make_move_iterator(released.end()));
  };

  const std::size_t n = stream.entities.size();
  const std::size_t home = sharded.shard_of(0);
  const std::size_t away = (home + 1) % shards;
  const std::size_t pair[] = {1, 2};
  bool did_apart = false, did_move = false, did_back = false;
  for (std::size_t i = 0; i < n; i += batch_size) {
    if (!did_apart && i >= n / 4) {
      ASSERT_TRUE(sharded.move_definitions(pair, away)) << ctx;
      EXPECT_EQ(sharded.shard_of(0), home) << ctx;
      EXPECT_EQ(sharded.shard_of(2), away) << ctx;
      EXPECT_FALSE(sharded.move_definitions(pair, away)) << ctx;  // already there
      did_apart = true;
    }
    if (!did_move && i >= n / 2) {
      // migrate_definition carries def 2 along (same type, same shard)
      // and leaves def 0 where it is. Two shards have no third to use.
      if (shards > 2) {
        const std::size_t third = (away + 1) % shards;
        ASSERT_TRUE(sharded.migrate_definition(1, third)) << ctx;
        EXPECT_EQ(sharded.shard_of(2), third) << ctx;
        EXPECT_EQ(sharded.shard_of(0), home) << ctx;
      }
      did_move = true;
    }
    if (!did_back && i >= 3 * n / 4) {
      ASSERT_TRUE(sharded.move_definitions(pair, home)) << ctx;
      for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(sharded.shard_of(d), home) << ctx;
      EXPECT_FALSE(sharded.move_definitions(pair, home)) << ctx;  // already there
      did_back = true;
    }
    const std::size_t len = std::min(batch_size, n - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, len),
                         std::span(stream.nows).subspan(i, len));
    if (poll_each_batch) collect(sharded.poll_tagged());
  }
  collect(oracle::flush_tagged_within(sharded, ctx));

  const RuntimeStats stats = sharded.stats();
  ASSERT_EQ(stats.arrivals, n) << ctx;  // WILD routes everything: dense stamps
  audit.at_quiescence(sharded.low_watermark(), stats.arrivals);

  const std::vector<Ref> got = oracle::to_refs(got_tagged, canonical);
  switch (tier) {
    case OrderingTier::kGlobalTotalOrder:
      oracle::check_equal(got, want, ctx);
      break;
    case OrderingTier::kPerDefinitionOrder:
      oracle::check_per_def(got, want, ctx);
      break;
    case OrderingTier::kUnorderedWatermarked:
      oracle::check_multiset(got, want, ctx);
      break;
  }
  if (tier != OrderingTier::kUnorderedWatermarked) {
    oracle::check_per_def_seq_monotone(got, ctx);
  }

  EXPECT_EQ(stats.instances, want.size()) << ctx;
  // Apart, (on), back: every move but the last leaves the type on two shards.
  EXPECT_EQ(stats.migrations, shards > 2 ? 3u : 2u) << ctx;
  EXPECT_EQ(stats.splits, shards > 2 ? 2u : 1u) << ctx;
}

class SplitDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitDifferentialTest, GlobalTierStaysByteExactThroughMovesApartAndBack) {
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t batch : {1u, 64u}) {
      for (const bool poll_each_batch : {true, false}) {
        run_split_differential(GetParam(), shards, batch, ConsumptionMode::kUnrestricted,
                               OrderingTier::kGlobalTotalOrder, "SGU", false, 1, 4096,
                               poll_each_batch);
        run_split_differential(GetParam() ^ 0x5eedULL, shards, batch,
                               ConsumptionMode::kConsume, OrderingTier::kGlobalTotalOrder,
                               "SGC", false, 1, 4096, poll_each_batch);
      }
    }
  }
}

TEST_P(SplitDifferentialTest, RelaxedTiersKeepTheirContractsThroughMovesApartAndBack) {
  // Two same-type definitions apart from the third and back: per
  // definition, the stream keeps its order (per-definition tier) or its
  // multiset (unordered tier), and its sequence strictly increases while
  // the type's counter is partitioned — plain and cascade.
  for (const OrderingTier tier :
       {OrderingTier::kPerDefinitionOrder, OrderingTier::kUnorderedWatermarked}) {
    for (const std::size_t shards : {2u, 4u}) {
      for (const std::size_t batch : {1u, 64u}) {
        for (const bool poll_each_batch : {true, false}) {
          run_split_differential(GetParam() ^ 0x316ULL, shards, batch,
                                 ConsumptionMode::kUnrestricted, tier, "SRU", false, 1, 4096,
                                 poll_each_batch);
          run_split_differential(GetParam() ^ 0x317ULL, shards, batch,
                                 ConsumptionMode::kConsume, tier, "SRC", false, 1, 4096,
                                 poll_each_batch);
        }
      }
      run_split_differential(GetParam() ^ 0x318ULL, shards, 16, ConsumptionMode::kConsume, tier,
                             "SRK", /*cascade=*/true);
    }
  }
}

TEST_P(SplitDifferentialTest, CascadeModeMovesApartAndBackStayExactAcrossTiers) {
  // Moves under cascade: each barrier acts at sub-stamp granularity via
  // the move's control pair, and the coordinator's dispatch-time
  // renumbering keeps every tier's stream exactly sequential — seq
  // included — even while the type is spread over two shards. Queue
  // capacity 1 admits one queued arrival, so the control pairs queue
  // behind gate-blocked head items.
  for (const OrderingTier tier :
       {OrderingTier::kGlobalTotalOrder, OrderingTier::kPerDefinitionOrder,
        OrderingTier::kUnorderedWatermarked}) {
    for (const std::uint32_t pipeline : {1u, 4u}) {
      for (const std::size_t queue_capacity : {4096u, 1u}) {
        run_split_differential(GetParam() ^ 0xca5ULL, 4, 16, ConsumptionMode::kUnrestricted,
                               tier, "SCA", /*cascade=*/true, pipeline, queue_capacity);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitDifferentialTest, ::testing::Values(41u, 42u, 43u));

// ---------------------------------------------------------------------------
// Split soak: one hot event type, relieved one definition at a time.
// ---------------------------------------------------------------------------

/// One hot event type (4 defs HOTM over sensors HK0-3, co-located at
/// registration) plus 4 single-sensor cold definitions.
std::vector<EventDefinition> soak_definitions() {
  std::vector<EventDefinition> defs;
  for (int i = 0; i < 4; ++i) {
    defs.push_back(EventDefinition{
        EventTypeId("HOTM"),
        {{"x", SlotFilter::observation(SensorId("HK" + std::to_string(i)))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt,
                     50.0 + 10.0 * i),
        seconds(60),
        {},
        ConsumptionMode::kUnrestricted});
  }
  for (int i = 0; i < 4; ++i) {
    defs.push_back(EventDefinition{
        EventTypeId("COLD" + std::to_string(i)),
        {{"x", SlotFilter::observation(SensorId("CK" + std::to_string(i)))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
        seconds(60),
        {},
        ConsumptionMode::kConsume});
  }
  return defs;
}

/// 90% of arrivals on the hot sensors: spread over HK0-3, or (`spread`
/// false) all on HK0, which puts the hot load on definition 0 alone.
Stream make_soak_stream(std::uint64_t seed, int n, bool spread) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(1 + rng.uniform_int(0, 9));
    std::string sensor;
    if (rng.chance(0.9)) {
      sensor = spread ? "HK" + std::to_string(rng.uniform_int(0, 3)) : "HK0";
    } else {
      sensor = "CK" + std::to_string(rng.uniform_int(0, 3));
    }
    s.entities.push_back(core::Entity(obs(1, sensor, static_cast<std::uint64_t>(i), now,
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

/// Rebalancing paced behind a flush (flush + rebalance_now every 2048
/// arrivals): the flush barrier means every
/// policy pass judges fully published loads, so the pass-by-pass decision
/// sequence — and hence the split point in the stream — is deterministic
/// rather than racing the workers' load publication.
SoakResult run_soak(const Stream& stream, bool rebalance) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def : soak_definitions()) rt.add_definition(def);

  SoakResult r;
  const auto drain = [&](std::vector<EventInstance> out) {
    for (const EventInstance& inst : out) {
      r.stream.push_back(oracle::describe(inst, /*canonicalize_seq=*/false));
    }
  };
  for (std::size_t i = 0; i < stream.entities.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, stream.entities.size() - i);
    rt.ingest_batch(std::span(stream.entities).subspan(i, n),
                    std::span(stream.nows).subspan(i, n));
    drain(rt.poll());
    if (rebalance && (i / 64 + 1) % 32 == 0) {
      drain(oracle::flush_within(rt, "soak"));
      rt.rebalance_now();
    }
  }
  drain(oracle::flush_within(rt, "soak"));
  if (rebalance) rt.rebalance_now();

  const std::vector<std::uint64_t> loads = rt.shard_arrival_loads();
  const auto total =
      static_cast<double>(std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}));
  const auto peak = static_cast<double>(*std::max_element(loads.begin(), loads.end()));
  r.load_ratio = peak / (total / static_cast<double>(loads.size()));
  r.stats = rt.stats();
  return r;
}

std::vector<std::string> soak_reference(const Stream& stream) {
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  for (const EventDefinition& def : soak_definitions()) sequential.add_definition(def);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(oracle::describe(inst, /*canonicalize_seq=*/false));
    }
  }
  return want;
}

TEST(SplitSoakTest, PolicyMovesHotDefinitionsApartAndSpreadNarrows) {
  const Stream stream = make_soak_stream(17, 32'000, /*spread=*/true);
  const std::vector<std::string> want = soak_reference(stream);

  const SoakResult off = run_soak(stream, /*rebalance=*/false);
  const SoakResult on = run_soak(stream, /*rebalance=*/true);

  // Exactness through policy-driven moves that spread the hot type over
  // both shards: the default tier's merge renumbers the partitioned
  // counters back to the sequential stream.
  ASSERT_EQ(on.stream.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(on.stream[k], want[k]) << "instance " << k;
  }
  ASSERT_EQ(off.stream, want);

  // Moving the whole type would never improve (it is ~90% of the
  // stream); moving single definitions does, without ever recording a
  // skip.
  std::cout << "[split-soak] max/mean arrival-load ratio: off=" << off.load_ratio
            << " on=" << on.load_ratio << " (splits=" << on.stats.splits
            << ", skipped=" << on.stats.spillover_skipped_indivisible
            << ", passes=" << on.stats.rebalance_passes << ")\n";
  EXPECT_GE(on.stats.splits, 1u);
  EXPECT_EQ(on.stats.spillover_skipped_indivisible, 0u);
  EXPECT_GE(off.load_ratio, 1.5);
  EXPECT_LT(on.load_ratio, 0.85 * off.load_ratio);
}

TEST(SplitSoakTest, SingleHotDefinitionStaysPutAndCountsTheSkips) {
  // Control: the hot load sits on one definition — no single-definition
  // move improves the balance, so the policy must leave it alone and the
  // skip counter must say so.
  const Stream stream = make_soak_stream(18, 8'000, /*spread=*/false);
  const std::vector<std::string> want = soak_reference(stream);

  const SoakResult on = run_soak(stream, /*rebalance=*/true);
  std::cout << "[split-soak/control] ratio=" << on.load_ratio
            << " passes=" << on.stats.rebalance_passes
            << " migrations=" << on.stats.migrations << " splits=" << on.stats.splits
            << " skipped=" << on.stats.spillover_skipped_indivisible << "\n";
  ASSERT_EQ(on.stream, want);
  EXPECT_EQ(on.stats.splits, 0u);
  EXPECT_GT(on.stats.spillover_skipped_indivisible, 0u);
}

// ---------------------------------------------------------------------------
// plan_spillover skip counting.
// ---------------------------------------------------------------------------

TEST(PlanSpilloverSkipTest, CountsTheSkipWhenNoSingleMoveImproves) {
  const std::vector<std::uint64_t> shard_load = {1000, 10, 10, 10};
  const std::vector<DefinitionCost> defs = {
      {0, 0, 1000, true}, {1, 1, 10, true}, {2, 2, 10, true}, {3, 3, 10, true}};
  std::uint64_t skipped = 0;
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, defs, &skipped}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(skipped, 1u);
}

// ---------------------------------------------------------------------------
// move_definitions units.
// ---------------------------------------------------------------------------

TEST(MoveApiTest, MovesApartAndBackAndCountsSplits) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       split_definitions(ConsumptionMode::kUnrestricted, "LC")) {
    rt.add_definition(def);
  }
  // Same type, same shard at registration.
  const std::size_t home = rt.shard_of(0);
  const std::size_t away = 1 - home;
  ASSERT_EQ(rt.shard_of(1), home);
  ASSERT_EQ(rt.shard_of(2), home);

  const std::size_t pair[] = {1, 2};
  ASSERT_TRUE(rt.move_definitions(pair, away));
  EXPECT_EQ(rt.shard_of(0), home);
  EXPECT_EQ(rt.shard_of(1), away);
  EXPECT_EQ(rt.shard_of(2), away);
  EXPECT_EQ(rt.stats().splits, 1u);

  // migrate_definition moves the definitions of its type on its shard.
  ASSERT_TRUE(rt.migrate_definition(1, home));
  for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(rt.shard_of(d), home);

  // A mixed list: the ones already on the destination stay put.
  const std::size_t zero[] = {0};
  ASSERT_TRUE(rt.move_definitions(zero, away));
  const std::size_t all[] = {0, 1, 2, 2};
  ASSERT_TRUE(rt.move_definitions(all, away));
  for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(rt.shard_of(d), away);

  const RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.migrations, 4u);
  EXPECT_EQ(stats.splits, 2u);  // the first move and the move of def 0 alone
  EXPECT_TRUE(oracle::flush_within(rt, "move cycle").empty());
}

TEST(MoveApiTest, BoundsAreCheckedAndMovesInPlaceAreNoOps) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       split_definitions(ConsumptionMode::kUnrestricted, "SK")) {
    rt.add_definition(def);
  }
  const std::size_t bad_def[] = {0, 99};
  const std::size_t four[] = {4};
  EXPECT_THROW((void)rt.move_definitions(bad_def, 0), std::out_of_range);
  EXPECT_THROW((void)rt.move_definitions(four, 99), std::out_of_range);
  EXPECT_EQ(rt.stats().migrations, 0u);  // a rejected list moves nothing

  // Already there, or nothing to move: false, no move issued.
  EXPECT_FALSE(rt.move_definitions(four, rt.shard_of(4)));
  EXPECT_FALSE(rt.move_definitions({}, 1 - rt.shard_of(4)));
  EXPECT_FALSE(rt.migrate_definition(3, rt.shard_of(3)));
  EXPECT_EQ(rt.stats().migrations, 0u);

  // Any single definition can move: keyless (WILD) and joins (NEAR) too.
  const std::size_t near_and_wild[] = {3, 4};
  const std::size_t to = 1 - rt.shard_of(3);
  EXPECT_TRUE(rt.move_definitions(near_and_wild, to));
  EXPECT_EQ(rt.shard_of(3), to);
  EXPECT_EQ(rt.shard_of(4), to);
  EXPECT_EQ(rt.stats().splits, 0u);  // one definition per type: no type spans shards
}

TEST(MoveApiTest, SequenceNumbersStayContinuousAcrossMovesApartAndBack) {
  // Global tier: emissions from one definition before, while and after it
  // sits apart from its type's other definitions keep consecutive
  // sequence numbers.
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def : split_definitions(ConsumptionMode::kConsume, "SQ")) {
    rt.add_definition(def);
  }
  std::vector<EventInstance> out;
  const auto drain = [&] {
    for (EventInstance& inst : oracle::flush_within(rt, "seq continuity")) {
      out.push_back(std::move(inst));
    }
  };
  const std::size_t zero[] = {0};
  const std::size_t home = rt.shard_of(0);
  rt.ingest(core::Entity(obs(1, "SRa", 0, TimePoint(1000), {0, 0}, 80.0)), TimePoint(1000));
  drain();
  ASSERT_TRUE(rt.move_definitions(zero, 1 - home));
  rt.ingest(core::Entity(obs(1, "SRa", 1, TimePoint(2000), {0, 0}, 90.0)), TimePoint(2000));
  drain();
  ASSERT_TRUE(rt.move_definitions(zero, home));
  rt.ingest(core::Entity(obs(1, "SRa", 2, TimePoint(3000), {0, 0}, 95.0)), TimePoint(3000));
  drain();

  // Each arrival beats HOT's SRa threshold and WILD's (except the first,
  // 80 < 85): project HOT_SQ's instances and check the renumbering.
  std::vector<std::uint64_t> seqs;
  for (const EventInstance& inst : out) {
    if (inst.key.event == EventTypeId("HOT_SQ")) seqs.push_back(inst.key.seq);
  }
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs[1], seqs[0] + 1);
  EXPECT_EQ(seqs[2], seqs[1] + 1);
}

}  // namespace
}  // namespace stem::runtime
