#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Permutation-differential *ordering tier* suite (see ordering_oracle.hpp
/// for the oracle). Every tier is run against the same sequential
/// reference across shard counts {2, 4, 8} x ingest batch sizes {1, 64} x
/// skew profiles {uniform, 90/10} x seeds:
///
///  - global_total_order must stay byte-identical (it is the default the
///    whole pre-existing differential tier already pins; here the tagged
///    stream re-checks it with stamps attached);
///  - per_definition_order must keep every definition's emissions in
///    reference order — including across forced mid-stream migrations,
///    which exercise the release holds (a destination's post-barrier
///    output waits until the frontier passes every pre-barrier arrival),
///    and across migrations issued while a consumer thread polls
///    concurrently;
///  - unordered_watermarked must deliver exactly the reference multiset
///    and maintain a sound, monotone low watermark (checked incrementally
///    at every poll, in every tier).
///
/// A cascade leg runs depth {1, 2} x every tier: cascade releases whole
/// closures in stamp order regardless of tier, and the closure counters
/// must equal the sequential engine's. A degenerate-cascade leg runs a
/// feedback-free definition set with cascade on and off over every tier x
/// shards {1, 2, 4} x batch {1, 64}: both must pass the tier's check and
/// agree on the engine, arrival and instance counters.

namespace stem::runtime {
namespace {

using core::ConsumptionMode;
using core::DetectionEngine;
using core::EventDefinition;
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

/// Join condition shared by the two-slot definitions below: slot 0
/// strictly before slot 1, within `dist` meters.
core::ConditionExpr before_within(double dist) {
  return core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                      core::c_distance(0, 1, core::RelationalOp::kLt, dist)});
}

/// The migration suite's definition mix: keyed thresholds, joins, a
/// co-located same-type pair (one event type over SRa and SRb), a
/// wildcard definition (=> no arrival is ever
/// dropped, so stamps are dense and equal the 1-based arrival index) and
/// a wildcard join.
std::vector<EventDefinition> ordering_definitions(ConsumptionMode mode, const std::string& tag) {
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

  // Same event type as HOT: co-located with it at registration.
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
                                 before_within(8.0),
                                 seconds(4),
                                 {},
                                 mode});

  defs.push_back(EventDefinition{EventTypeId("PAIR_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRc"))},
                                  {"y", SlotFilter::observation(SensorId("SRc"))}},
                                 before_within(12.0),
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

  defs.push_back(EventDefinition{EventTypeId("WNEAR_" + tag),
                                 {{"w", SlotFilter::any()},
                                  {"b", SlotFilter::observation(SensorId("SRb"))}},
                                 before_within(6.0),
                                 seconds(3),
                                 {},
                                 mode});

  return defs;
}

struct Stream {
  std::vector<core::Entity> entities;
  std::vector<TimePoint> nows;
};

/// skew_hot = 0: uniform over 4 sensors. Otherwise the probability that an
/// arrival comes from the hot sensor SRa (e.g. 0.9 for 90/10).
Stream make_stream(std::uint64_t seed, int n, double skew_hot) {
  sim::Rng rng(seed);
  Stream s;
  TimePoint now = TimePoint::epoch();
  const char* sensors[] = {"SRa", "SRb", "SRc", "SRd"};
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

constexpr OrderingTier kAllTiers[] = {OrderingTier::kGlobalTotalOrder,
                                      OrderingTier::kPerDefinitionOrder,
                                      OrderingTier::kUnorderedWatermarked};

/// Feeds one stream through a sharded runtime under `tier`, auditing the
/// watermark at every poll, and applies the tier's oracle check against
/// the sequential reference. `migrations` > 0 forces that many
/// migrate_definition moves at seed-derived batch boundaries (in the
/// per-definition tier these exercise the release-hold fencing).
/// `poll_each_batch` false skips the per-batch polls: the final flush then
/// releases the whole stream from every shard in one drain, across every
/// migration barrier.
void run_ordering_differential(std::uint64_t seed, std::size_t shards, std::size_t batch_size,
                               ConsumptionMode mode, double skew_hot, OrderingTier tier,
                               const std::string& tag, std::size_t migrations = 0,
                               bool poll_each_batch = true) {
  RuntimeOptions options;
  options.shards = shards;
  options.ordering = tier;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : ordering_definitions(mode, tag)) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const Stream stream = make_stream(seed, 320, skew_hot);
  const std::vector<Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/false, /*canonicalize_seq=*/false);

  sim::Rng plan(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto last_batch = static_cast<std::int64_t>((stream.entities.size() - 1) / batch_size);
  std::vector<std::size_t> at(migrations);
  for (std::size_t m = 0; m < migrations; ++m) {
    at[m] = static_cast<std::size_t>(plan.uniform_int(1, last_batch)) * batch_size;
  }
  std::sort(at.begin(), at.end());
  std::size_t next_mig = 0;
  std::uint64_t issued = 0;

  const std::string ctx = tag + "/" + tier_name(tier) + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " batch=" + std::to_string(batch_size) +
                          " skew=" + std::to_string(skew_hot) +
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
  for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
    while (next_mig < at.size() && at[next_mig] <= i) {
      const auto def = static_cast<std::size_t>(
          plan.uniform_int(0, static_cast<std::int64_t>(sharded.definition_count()) - 1));
      const auto to = static_cast<std::size_t>(
          plan.uniform_int(0, static_cast<std::int64_t>(shards) - 1));
      if (!sharded.migrate_definition(def, to)) {
        ASSERT_TRUE(sharded.migrate_definition(def, (to + 1) % shards)) << ctx;
      }
      ++issued;
      ++next_mig;
    }
    const std::size_t n = std::min(batch_size, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    if (poll_each_batch) collect(sharded.poll_tagged());
  }
  collect(oracle::flush_tagged_within(sharded, ctx));

  const RuntimeStats stats = sharded.stats();
  // The wildcard definition routes every arrival, so stamps are dense and
  // the final watermark covers the whole stream.
  ASSERT_EQ(stats.arrivals, stream.entities.size()) << ctx;
  audit.at_quiescence(sharded.low_watermark(), stats.arrivals);

  const std::vector<Ref> got = oracle::to_refs(got_tagged, /*canonicalize_seq=*/false);
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
  // Engine-seq monotonicity per definition is part of the global and
  // per-definition contracts; the unordered tier only promises the
  // multiset plus the watermark (a migration can release a definition's
  // post-barrier chunk before the source drains).
  if (tier != OrderingTier::kUnorderedWatermarked) {
    oracle::check_per_def_seq_monotone(got, ctx);
  }

  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.engine.instances_out, stats.instances) << ctx;
  EXPECT_EQ(stats.migrations, issued) << ctx;
}

class OrderingTierTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingTierTest, EveryTierMatchesItsContractOnStaticPlacement) {
  for (const OrderingTier tier : kAllTiers) {
    for (const std::size_t shards : {2u, 4u, 8u}) {
      for (const std::size_t batch : {1u, 64u}) {
        run_ordering_differential(GetParam(), shards, batch, ConsumptionMode::kUnrestricted,
                                  0.0, tier, "OU");
        run_ordering_differential(GetParam() ^ 0x5eedULL, shards, batch,
                                  ConsumptionMode::kConsume, 0.9, tier, "OS");
      }
    }
  }
}

TEST_P(OrderingTierTest, RelaxedTiersSurviveForcedMigrations) {
  // Mid-stream migrations: in the per-definition tier each
  // one plants a release hold that fences the destination's post-barrier
  // chunks until the frontier passes every pre-barrier arrival, when the
  // same drain takes the source's pre-barrier ones — the per-definition
  // projections must stay in reference order through every hand-off. The
  // unordered tier must still deliver the exact multiset with a sound
  // watermark.
  // The flush-only arm releases every shard's whole stream in one drain,
  // holds and all.
  for (const OrderingTier tier :
       {OrderingTier::kPerDefinitionOrder, OrderingTier::kUnorderedWatermarked}) {
    for (const std::size_t shards : {2u, 4u, 8u}) {
      for (const std::size_t batch : {1u, 64u}) {
        for (const bool poll_each_batch : {true, false}) {
          run_ordering_differential(GetParam() ^ 0x316ULL, shards, batch,
                                    ConsumptionMode::kUnrestricted, 0.0, tier, "OM", 4,
                                    poll_each_batch);
          run_ordering_differential(GetParam() ^ 0x317ULL, shards, batch,
                                    ConsumptionMode::kConsume, 0.9, tier, "OMS", 4,
                                    poll_each_batch);
        }
      }
    }
  }
}

TEST_P(OrderingTierTest, GlobalTierStaysByteExactUnderMigrations) {
  // The default tier's exactness re-checked through the tagged API, with
  // migrations in flight (subsumes the untagged differential's contract:
  // same stream, stamps attached). The flush-only arm orders the whole
  // stream, gathered from every shard across the migrations, in one drain.
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t batch : {1u, 64u}) {
      for (const bool poll_each_batch : {true, false}) {
        run_ordering_differential(GetParam() ^ 0x60ULL, shards, batch,
                                  ConsumptionMode::kUnrestricted, 0.0,
                                  OrderingTier::kGlobalTotalOrder, "OG", 4, poll_each_batch);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingTierTest, ::testing::Values(11u, 12u, 13u));

// ---------------------------------------------------------------------------
// Cascade leg: every tier x depth {1, 2}.
// ---------------------------------------------------------------------------

EventDefinition with_value_attr(EventDefinition def, std::vector<core::SlotIndex> slots) {
  def.synthesis.attributes.push_back(
      core::AttributeRule{"value", core::ValueAggregate::kMax, "value", std::move(slots)});
  return def;
}

/// L1 threshold pair (one group), an L2 join over its instances, and a
/// wildcard that keeps stamps dense.
std::vector<EventDefinition> cascade_tier_definitions(const std::string& tag) {
  std::vector<EventDefinition> defs;
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("HOT_" + tag),
                      {{"x", SlotFilter::observation(SensorId("SRa"))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 60.0),
                      seconds(60),
                      {},
                      ConsumptionMode::kUnrestricted},
      {0}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("HOT_" + tag),
                      {{"x", SlotFilter::observation(SensorId("SRb"))}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 40.0),
                      seconds(60),
                      {},
                      ConsumptionMode::kUnrestricted},
      {0}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("CP_" + tag),
                      {{"a", SlotFilter::instance_of(EventTypeId("HOT_" + tag))},
                       {"b", SlotFilter::instance_of(EventTypeId("HOT_" + tag))}},
                      core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                   core::c_distance(0, 1, core::RelationalOp::kLt, 10.0)}),
                      seconds(5),
                      {},
                      ConsumptionMode::kUnrestricted},
      {0, 1}));
  defs.push_back(with_value_attr(
      EventDefinition{EventTypeId("WILD_" + tag),
                      {{"w", SlotFilter::any()}},
                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                   core::RelationalOp::kGt, 90.0),
                      seconds(60),
                      {},
                      ConsumptionMode::kUnrestricted},
      {0}));
  return defs;
}

void run_cascade_tier_differential(std::uint64_t seed, std::size_t shards, std::size_t depth,
                                   OrderingTier tier, const std::string& tag) {
  core::EngineOptions engine_options;
  engine_options.max_cascade_depth = depth;
  RuntimeOptions options;
  options.shards = shards;
  options.cascade = true;
  options.engine = engine_options;
  options.ordering = tier;  // cascade releases closures in stamp order in every tier
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0},
                             engine_options);
  for (const EventDefinition& def : cascade_tier_definitions(tag)) {
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  const Stream stream = make_stream(seed, 160, 0.0);
  const std::vector<Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/true, /*canonicalize_seq=*/false);

  const std::string ctx = tag + "/" + tier_name(tier) + " seed=" + std::to_string(seed) +
                          " shards=" + std::to_string(shards) +
                          " depth=" + std::to_string(depth);
  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  WatermarkAudit audit(ctx);
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

  // Whatever the configured tier, cascade mode releases whole closures in
  // stamp order — byte-exact equality against the sequential cascade.
  oracle::check_equal(oracle::to_refs(got_tagged, /*canonicalize_seq=*/false), want, ctx);

  const RuntimeStats stats = sharded.stats();
  audit.at_quiescence(sharded.low_watermark(), stats.arrivals);
  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.cascade_reingested, sequential.stats().cascade_reingested) << ctx;
  EXPECT_EQ(stats.cascade_truncated, sequential.stats().cascade_truncated) << ctx;
}

class OrderingCascadeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingCascadeTest, EveryTierKeepsCascadeClosuresExact) {
  for (const OrderingTier tier : kAllTiers) {
    for (const std::size_t shards : {2u, 4u}) {
      for (const std::size_t depth : {1u, 2u}) {
        run_cascade_tier_differential(GetParam(), shards, depth, tier, "OC");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingCascadeTest, ::testing::Values(21u, 22u, 23u));

// ---------------------------------------------------------------------------
// Degenerate cascade: with no definition able to consume an event instance,
// cascade mode never produces feedback and its admission gate never binds —
// it must be the plain pipeline, stream and counters alike.
// ---------------------------------------------------------------------------

/// The ordering mix without its wildcard definitions, plus an SRd join so
/// every arrival still routes somewhere (stamps stay dense): no event-type
/// or wildcard slot anywhere.
std::vector<EventDefinition> feedback_free_definitions(const std::string& tag) {
  std::vector<EventDefinition> defs = ordering_definitions(ConsumptionMode::kUnrestricted, tag);
  std::erase_if(defs, [](const EventDefinition& def) {
    return std::any_of(def.slots.begin(), def.slots.end(), [](const core::SlotSpec& slot) {
      return slot.filter.signature().kind == core::FilterSignature::Kind::kAny;
    });
  });
  defs.push_back(EventDefinition{EventTypeId("DPAIR_" + tag),
                                 {{"x", SlotFilter::observation(SensorId("SRd"))},
                                  {"y", SlotFilter::observation(SensorId("SRd"))}},
                                 before_within(12.0),
                                 seconds(5),
                                 {},
                                 ConsumptionMode::kUnrestricted});
  return defs;
}

/// One feedback-free run under `tier`, checked against the tier's oracle
/// with the watermark audited at every poll; returns the final counters.
RuntimeStats run_feedback_free(const Stream& stream, const std::vector<Ref>& want,
                               std::size_t shards, std::size_t batch_size, OrderingTier tier,
                               bool cascade, const std::string& ctx) {
  RuntimeOptions options;
  options.shards = shards;
  options.ordering = tier;
  options.cascade = cascade;
  ShardedEngineRuntime sharded(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  for (const EventDefinition& def : feedback_free_definitions("DG")) sharded.add_definition(def);

  const oracle::RunDeadline deadline(sharded, ctx);  // a stall prints the snapshot
  WatermarkAudit audit(ctx);
  std::vector<TaggedInstance> got_tagged;
  const auto collect = [&](std::vector<TaggedInstance> released) {
    audit.observe(released);
    audit.after_poll(sharded.low_watermark());
    got_tagged.insert(got_tagged.end(), std::make_move_iterator(released.begin()),
                      std::make_move_iterator(released.end()));
    // The counter follows the releases in every mode, not the merge.
    EXPECT_EQ(sharded.stats().instances, got_tagged.size()) << ctx;
  };
  for (std::size_t i = 0; i < stream.entities.size(); i += batch_size) {
    const std::size_t n = std::min(batch_size, stream.entities.size() - i);
    sharded.ingest_batch(std::span(stream.entities).subspan(i, n),
                         std::span(stream.nows).subspan(i, n));
    collect(sharded.poll_tagged());
  }
  collect(oracle::flush_tagged_within(sharded, ctx));

  const RuntimeStats stats = sharded.stats();
  EXPECT_EQ(stats.arrivals, stream.entities.size()) << ctx;
  audit.at_quiescence(sharded.low_watermark(), stats.arrivals);
  const std::vector<Ref> got = oracle::to_refs(got_tagged, /*canonicalize_seq=*/false);
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
  EXPECT_EQ(stats.instances, want.size()) << ctx;
  EXPECT_EQ(stats.cascade_reingested, 0u) << ctx;
  return stats;
}

class DegenerateCascadeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DegenerateCascadeTest, FeedbackFreeCascadeIsThePlainPipeline) {
  const Stream stream = make_stream(GetParam(), 320, 0.0);
  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const EventDefinition& def : feedback_free_definitions("DG")) {
    sequential.add_definition(def);
  }
  const std::vector<Ref> want = oracle::sequential_reference(
      sequential, stream.entities, stream.nows, /*cascade=*/false, /*canonicalize_seq=*/false);
  ASSERT_FALSE(want.empty());

  for (const OrderingTier tier : kAllTiers) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t batch : {1u, 64u}) {
        const std::string ctx = "DG/" + tier_name(tier) + " seed=" + std::to_string(GetParam()) +
                                " shards=" + std::to_string(shards) +
                                " batch=" + std::to_string(batch);
        const RuntimeStats plain =
            run_feedback_free(stream, want, shards, batch, tier, false, ctx + " plain");
        const RuntimeStats cascade =
            run_feedback_free(stream, want, shards, batch, tier, true, ctx + " cascade");
        EXPECT_TRUE(cascade.engine == plain.engine) << ctx;
        EXPECT_EQ(cascade.arrivals, plain.arrivals) << ctx;
        EXPECT_EQ(cascade.instances, plain.instances) << ctx;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegenerateCascadeTest, ::testing::Values(31u, 32u));

// ---------------------------------------------------------------------------
// Concurrent-poll migration leg: the per-definition release hold against a
// consumer that polls while the producer migrates.
// ---------------------------------------------------------------------------

TEST(OrderingRaceTest, PerDefinitionHoldSurvivesConcurrentPolls) {
  // A consumer thread polls in a tight loop while the producer ingests single
  // arrivals, alternating between two single-slot definitions, and moves
  // definition 0 between shards 0 and 2 after every 10 of them. A poll
  // sweeps the shards in index order, so it may pass the source before it
  // publishes its pre-barrier block and reach the destination after it has
  // implanted and published post-barrier output; only the hold keeps that
  // output back until the pre-barrier block can be released first.
  // Definition 1's shard sits between the two in sweep order and its
  // worker publishes every other arrival, which widens that window: with
  // two shards a broken hold is caught in far fewer runs, and a consumer
  // that yields between polls hardly ever catches it.
  constexpr int kArrivals = 100000;
  constexpr int kMigrateEvery = 10;
  RuntimeOptions options;
  options.shards = 3;
  options.ordering = OrderingTier::kPerDefinitionOrder;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0}, options);
  const std::array<std::string, 2> sensors = {"SA", "SB"};
  for (const std::string& sensor : sensors) {
    rt.add_definition(EventDefinition{EventTypeId("T_" + sensor),
                                      {{"x", SlotFilter::observation(SensorId(sensor))}},
                                      core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                                   core::RelationalOp::kGt, 0.0),
                                      seconds(60),
                                      {},
                                      ConsumptionMode::kConsume});
  }
  ASSERT_EQ(rt.shard_of(0), 0u);
  ASSERT_EQ(rt.shard_of(1), 1u);

  const std::string ctx = "concurrent-poll migration";
  // A stall prints the snapshot. The spinning consumer makes this leg slow
  // under ThreadSanitizer (about 90 s on 2 CPUs), hence twice the usual
  // deadline.
  const oracle::RunDeadline deadline(rt, ctx, 2 * oracle::kRunDeadline);
  // Releases are checked as they arrive, so the run keeps no copy of the
  // stream: every definition's stamps must strictly ascend.
  std::array<std::uint64_t, 2> last{};
  std::uint64_t released = 0;
  std::string violation;  // the first step back; empty while none
  const auto check = [&](const std::vector<TaggedInstance>& batch) {
    for (const TaggedInstance& t : batch) {
      ++released;
      if (!violation.empty()) continue;
      if (t.def > 1 || t.stamp <= last[t.def]) {
        violation = "def " + std::to_string(t.def) + " released stamp " +
                    std::to_string(t.stamp) + " at release " + std::to_string(released) +
                    (t.def > 1 ? "" : " after stamp " + std::to_string(last[t.def]));
        continue;
      }
      last[t.def] = t.stamp;
    }
  };
  std::atomic<bool> produced{false};
  std::thread consumer([&] {
    while (!produced.load(std::memory_order_acquire)) check(rt.poll_tagged());
  });
  TimePoint now = TimePoint::epoch();
  std::uint64_t issued = 0;
  for (int i = 0; i < kArrivals; ++i) {
    now += time_model::milliseconds(1);
    rt.ingest(core::Entity(obs(1, sensors[i % 2], static_cast<std::uint64_t>(i), now, {0, 0},
                               50.0)),
              now);
    if ((i + 1) % kMigrateEvery == 0) {
      issued += rt.migrate_definition(0, rt.shard_of(0) == 0 ? 2 : 0) ? 1 : 0;
    }
  }
  produced.store(true, std::memory_order_release);
  consumer.join();
  check(oracle::flush_tagged_within(rt, ctx));

  EXPECT_TRUE(violation.empty()) << ctx << ": " << violation;
  // Every arrival matches its definition once, at its own stamp.
  EXPECT_EQ(released, static_cast<std::uint64_t>(kArrivals)) << ctx;
  EXPECT_EQ(issued, static_cast<std::uint64_t>(kArrivals / kMigrateEvery)) << ctx;
}

// ---------------------------------------------------------------------------
// API units.
// ---------------------------------------------------------------------------

TEST(OrderingApiTest, MovingOneOfATypesDefinitionsIsAcceptedInCascadeMode) {
  // Spreading a type over shards under cascade is legal since the
  // coordinator renumbers per-type sequences at dispatch time.
  RuntimeOptions options;
  options.shards = 2;
  options.cascade = true;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def : cascade_tier_definitions("CX")) rt.add_definition(def);
  const std::size_t one[] = {1};
  EXPECT_TRUE(rt.move_definitions(one, 1 - rt.shard_of(1)));
  EXPECT_NE(rt.shard_of(0), rt.shard_of(1));
  EXPECT_EQ(rt.stats().splits, 1u);
}

TEST(OrderingApiTest, WatermarkStartsAtZeroAndBoundsChecksThrow) {
  RuntimeOptions options;
  options.shards = 2;
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  for (const EventDefinition& def :
       ordering_definitions(ConsumptionMode::kUnrestricted, "WB")) {
    rt.add_definition(def);
  }
  EXPECT_EQ(rt.low_watermark(), 0u);
  const std::size_t unknown[] = {99};
  const std::size_t zero[] = {0};
  EXPECT_THROW((void)rt.move_definitions(unknown, 0), std::out_of_range);
  EXPECT_THROW((void)rt.move_definitions(zero, 99), std::out_of_range);
  EXPECT_FALSE(rt.move_definitions(zero, rt.shard_of(0)));  // already there: no-op
  EXPECT_EQ(rt.stats().migrations, 0u);
}

}  // namespace
}  // namespace stem::runtime
