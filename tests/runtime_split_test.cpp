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

/// Key-granular hot-group splitting, proven differentially:
///
///  - a forced mid-stream split_group / sub-group migration / merge_group
///    sequence must stay *byte-exact* in the global tier (the merge-side
///    renumbering makes the partitioned sequence counters invisible) and
///    keep the relaxed tiers' contracts (canonicalized per-definition
///    subsequences / multiset, per-definition seq monotonicity);
///  - the skewed soak that PR 4's policy had to leave alone (one
///    indivisible group carrying ~90% of the stream) now splits: the
///    spillover_skipped_indivisible counter stays zero, splits fire, and
///    the max/mean arrival-load spread narrows — with the merged output
///    still byte-identical to the sequential engine;
///  - an unsplittable control (hot group spanning a single sensor key)
///    shows the skip counter doing its job.

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

/// Defs 0-2 share one event type across three sensor keys (SRa/SRb/SRc):
/// one co-located group, splittable by key range. NEAR joins across the
/// split boundary's sensors; WILD keeps stamps dense.
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

/// 90/10 towards the split group's sensors (the hot-group scenario).
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

/// Forces split -> sub-group migration -> merge at quarter points of the
/// stream and applies the tier's oracle contract end to end.
/// `poll_each_batch` false skips the per-batch polls, so the final flush
/// releases the whole stream across the split, move and merge barriers.
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

  // Relaxed tiers surface the partitioned per-side sequence counters, so
  // the oracle compares with EventInstanceKey::seq canonicalized; the
  // global tier's merge renumbers and must stay byte-exact. Cascade mode
  // is stricter still: the coordinator renumbers per-group sequences at
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
  bool did_split = false, did_move = false, did_merge = false;
  for (std::size_t i = 0; i < n; i += batch_size) {
    if (!did_split && i >= n / 4) {
      const std::size_t to = (sharded.shard_of(0) + 1) % shards;
      ASSERT_TRUE(sharded.split_group(0, to)) << ctx;
      EXPECT_TRUE(sharded.group_split(0)) << ctx;
      EXPECT_FALSE(sharded.split_group(0, to)) << ctx;  // already split
      did_split = true;
    }
    if (!did_move && i >= n / 2) {
      // Move def 1's *sub-group* (whichever side it landed on) — the two
      // sides rebalance independently while split.
      const std::size_t to = (sharded.shard_of(1) + 1) % shards;
      ASSERT_TRUE(sharded.migrate_definition(1, to)) << ctx;
      did_move = true;
    }
    if (!did_merge && i >= 3 * n / 4) {
      ASSERT_TRUE(sharded.merge_group(0)) << ctx;
      EXPECT_FALSE(sharded.group_split(0)) << ctx;
      EXPECT_FALSE(sharded.merge_group(0)) << ctx;  // already merged
      did_merge = true;
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
  EXPECT_EQ(stats.splits, 1u) << ctx;
  EXPECT_EQ(stats.group_merges, 1u) << ctx;
}

class SplitDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitDifferentialTest, GlobalTierStaysByteExactThroughSplitMoveMerge) {
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

TEST_P(SplitDifferentialTest, RelaxedTiersKeepTheirContractsThroughSplitMoveMerge) {
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
    }
  }
}

TEST_P(SplitDifferentialTest, CascadeModeSplitMoveMergeStaysExactAcrossTiers) {
  // split_group under cascade (new in the pipelined coordinator): the
  // split/merge barrier acts at sub-stamp granularity via the shared
  // subset-migration control pair, and the coordinator's dispatch-time
  // renumbering keeps every tier's stream exactly sequential — seq
  // included — even while the hot group is cut in two. Queue capacity 1
  // admits one queued arrival, so the split/move/merge control pairs queue
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
// Split soak: the indivisible-hot-group scenario, now resolvable.
// ---------------------------------------------------------------------------

/// One monolithic group (4 defs, one event type, 4 hot sensors HK0-3) the
/// policy can only fix by splitting, plus 4 single-sensor cold groups.
std::vector<EventDefinition> soak_definitions(bool splittable) {
  std::vector<EventDefinition> defs;
  for (int i = 0; i < 4; ++i) {
    // Unsplittable variant: all four defs watch the *same* sensor key, so
    // the group spans one distinct key and key-range splitting cannot cut.
    const std::string sensor = splittable ? "HK" + std::to_string(i) : "HK0";
    defs.push_back(EventDefinition{
        EventTypeId("HOTM"),
        {{"x", SlotFilter::observation(SensorId(sensor))}},
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

Stream make_soak_stream(std::uint64_t seed, int n, bool splittable) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(1 + rng.uniform_int(0, 9));
    std::string sensor;
    if (rng.chance(0.9)) {
      sensor = splittable ? "HK" + std::to_string(rng.uniform_int(0, 3)) : "HK0";
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

/// Externally paced rebalancing (flush + rebalance_now every 2048
/// arrivals) instead of rebalance_epoch: the flush barrier means every
/// policy pass judges fully published loads, so the pass-by-pass decision
/// sequence — and hence the split point in the stream — is deterministic
/// rather than racing the workers' load publication.
SoakResult run_soak(const Stream& stream, bool splittable, bool rebalance) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def : soak_definitions(splittable)) rt.add_definition(def);

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

std::vector<std::string> soak_reference(const Stream& stream, bool splittable) {
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  for (const EventDefinition& def : soak_definitions(splittable)) {
    sequential.add_definition(def);
  }
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(oracle::describe(inst, /*canonicalize_seq=*/false));
    }
  }
  return want;
}

TEST(SplitSoakTest, PolicySplitsTheIndivisibleHotGroupAndSpreadNarrows) {
  const Stream stream = make_soak_stream(17, 32'000, /*splittable=*/true);
  const std::vector<std::string> want = soak_reference(stream, /*splittable=*/true);

  const SoakResult off = run_soak(stream, true, /*rebalance=*/false);
  const SoakResult on = run_soak(stream, true, /*rebalance=*/true);

  // Exactness through policy-driven splitting: the default tier's merge
  // renumbers the partitioned counters back to the sequential stream.
  ASSERT_EQ(on.stream.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(on.stream[k], want[k]) << "instance " << k;
  }
  ASSERT_EQ(off.stream, want);

  // PR 4's policy had to leave this group alone (whole-move never
  // improves when the group is ~90% of the stream); key-range splitting
  // resolves it without ever recording a skip.
  std::cout << "[split-soak] max/mean arrival-load ratio: off=" << off.load_ratio
            << " on=" << on.load_ratio << " (splits=" << on.stats.splits
            << ", skipped=" << on.stats.spillover_skipped_indivisible
            << ", passes=" << on.stats.rebalance_passes << ")\n";
  EXPECT_GE(on.stats.splits, 1u);
  EXPECT_EQ(on.stats.spillover_skipped_indivisible, 0u);
  EXPECT_GE(off.load_ratio, 1.5);
  EXPECT_LT(on.load_ratio, 0.85 * off.load_ratio);
}

TEST(SplitSoakTest, SingleKeyHotGroupStaysPutAndCountsTheSkips) {
  // Control: the hot group's defs all share one sensor key — key-range
  // splitting cannot cut it, so the policy must leave it alone and the
  // skip counter must say so.
  const Stream stream = make_soak_stream(18, 8'000, /*splittable=*/false);
  const std::vector<std::string> want = soak_reference(stream, /*splittable=*/false);

  const SoakResult on = run_soak(stream, false, /*rebalance=*/true);
  std::cout << "[split-soak/control] ratio=" << on.load_ratio
            << " passes=" << on.stats.rebalance_passes
            << " migrations=" << on.stats.migrations << " splits=" << on.stats.splits
            << " skipped=" << on.stats.spillover_skipped_indivisible << "\n";
  ASSERT_EQ(on.stream, want);
  EXPECT_EQ(on.stats.splits, 0u);
  EXPECT_GT(on.stats.spillover_skipped_indivisible, 0u);
}

// ---------------------------------------------------------------------------
// plan_spillover split-order units.
// ---------------------------------------------------------------------------

TEST(PlanSpilloverSplitTest, SplitsTheIndivisibleHotGroupWhenSplittable) {
  const std::vector<std::uint64_t> shard_load = {1000, 10, 10, 10};
  const std::vector<GroupLoad> groups = {{0, 0, 1000, true, true},
                                         {1, 1, 10, true, false},
                                         {2, 2, 10, true, false},
                                         {3, 3, 10, true, false}};
  std::uint64_t skipped = 0;
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, groups, &skipped}, SpilloverOptions{}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].group, 0u);
  EXPECT_TRUE(out[0].split);
  EXPECT_EQ(skipped, 0u);
}

TEST(PlanSpilloverSplitTest, CountsTheSkipWhenNothingIsSplittable) {
  const std::vector<std::uint64_t> shard_load = {1000, 10, 10, 10};
  const std::vector<GroupLoad> groups = {{0, 0, 1000, true, false},
                                         {1, 1, 10, true, false},
                                         {2, 2, 10, true, false},
                                         {3, 3, 10, true, false}};
  std::uint64_t skipped = 0;
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, groups, &skipped}, SpilloverOptions{}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(skipped, 1u);
}

TEST(PlanSpilloverSplitTest, RejectsSplitThatWouldJustMoveTheHotspot) {
  // Half the group still overloads every destination: splitting would
  // shuffle the peak around, not lower it — skip instead.
  SpilloverOptions opts;
  opts.overload_factor = 1.0;
  const std::vector<std::uint64_t> shard_load = {1000, 900, 900, 900};
  const std::vector<GroupLoad> groups = {{0, 0, 1000, true, true},
                                         {1, 1, 900, true, false},
                                         {2, 2, 900, true, false},
                                         {3, 3, 900, true, false}};
  std::uint64_t skipped = 0;
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, groups, &skipped}, opts, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(skipped, 1u);
}

TEST(PlanSpilloverSplitTest, PrefersWholeMoveOverSplitWhenOneImproves) {
  // A smaller whole group whose move strictly improves wins over cutting
  // the big one: splits are the fallback, not the default.
  const std::vector<std::uint64_t> shard_load = {1000, 10, 10, 10};
  const std::vector<GroupLoad> groups = {{0, 0, 995, true, true},
                                         {1, 0, 5, true, false},
                                         {2, 1, 10, true, false},
                                         {3, 2, 10, true, false},
                                         {4, 3, 10, true, false}};
  std::uint64_t skipped = 0;
  std::vector<MigrationOrder> out;
  plan_spillover(RebalanceView{shard_load, groups, &skipped}, SpilloverOptions{}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].group, 1u);  // the small group whose whole move improves
  EXPECT_FALSE(out[0].split);
  EXPECT_EQ(skipped, 0u);
}

// ---------------------------------------------------------------------------
// Split lifecycle units.
// ---------------------------------------------------------------------------

TEST(SplitApiTest, SplitPartitionsTheGroupAndMergeRestoresIt) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       split_definitions(ConsumptionMode::kUnrestricted, "LC")) {
    rt.add_definition(def);
  }
  ASSERT_EQ(rt.group_of(0), rt.group_of(1));
  ASSERT_EQ(rt.group_of(1), rt.group_of(2));

  const std::size_t home = rt.shard_of(0);
  const std::size_t away = 1 - home;
  EXPECT_FALSE(rt.split_group(0, home));  // destination == current shard
  ASSERT_TRUE(rt.split_group(0, away));
  EXPECT_TRUE(rt.group_split(0));
  EXPECT_TRUE(rt.group_split(2));  // introspection is per group

  // Median-of-3-distinct-keys partition: exactly two defs sit at or above
  // the split point and moved to the high shard.
  std::size_t moved = 0;
  for (std::size_t d = 0; d < 3; ++d) moved += rt.shard_of(d) == away ? 1 : 0;
  EXPECT_EQ(moved, 2u);

  EXPECT_FALSE(rt.split_group(0, away));  // already split
  ASSERT_TRUE(rt.merge_group(0));
  EXPECT_FALSE(rt.group_split(0));
  for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(rt.shard_of(d), home);
  EXPECT_FALSE(rt.merge_group(0));  // already whole

  // The cycle is repeatable once reunified.
  ASSERT_TRUE(rt.split_group(0, away));
  EXPECT_TRUE(rt.group_split(0));
  EXPECT_EQ(rt.stats().splits, 2u);
  EXPECT_EQ(rt.stats().group_merges, 1u);
  EXPECT_TRUE(oracle::flush_within(rt, "split cycle").empty());
}

TEST(SplitApiTest, SingleKeyAndWildcardGroupsRefuseToSplit) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       split_definitions(ConsumptionMode::kUnrestricted, "SK")) {
    rt.add_definition(def);
  }
  // Def 3 (NEAR) spans one group with a single first-slot sensor key; def
  // 4 (WILD) has no sensor key at all — neither group is splittable.
  EXPECT_FALSE(rt.split_group(3, 1 - rt.shard_of(3)));
  EXPECT_FALSE(rt.split_group(4, 1 - rt.shard_of(4)));
  EXPECT_FALSE(rt.group_split(3));
  EXPECT_FALSE(rt.group_split(4));
}

TEST(SplitApiTest, SequenceNumbersStayContinuousAcrossSplitAndMerge) {
  // Global tier: two emissions from the same definition, one on each side
  // of a split/merge cycle, must keep consecutive sequence numbers.
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
  rt.ingest(core::Entity(obs(1, "SRa", 0, TimePoint(1000), {0, 0}, 80.0)), TimePoint(1000));
  drain();
  ASSERT_TRUE(rt.split_group(0, 1 - rt.shard_of(0)));
  rt.ingest(core::Entity(obs(1, "SRa", 1, TimePoint(2000), {0, 0}, 90.0)), TimePoint(2000));
  drain();
  ASSERT_TRUE(rt.merge_group(0));
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
