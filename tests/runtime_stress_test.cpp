#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ordering_oracle.hpp"
#include "runtime/sharded_runtime.hpp"
#include "sim/random.hpp"

/// Stress/soak suite for the lock-free ingest path: bursty producers
/// against a randomly-stalled consumer shard (via RuntimeOptions::
/// stall_hook) over >= 100k arrivals, asserting byte-exactness against
/// the sequential engine, the queue_capacity bound on max_inbox, and
/// clean shutdown() while producers sit parked in backpressure. Runs
/// under the TSan CI leg with reduced volume.

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

#if defined(__SANITIZE_THREAD__)
#define STEM_STRESS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STEM_STRESS_TSAN 1
#endif
#endif

#if defined(STEM_STRESS_TSAN)
constexpr int kSoakArrivals = 20'000;
#else
constexpr int kSoakArrivals = 100'000;
#endif

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

/// Cheap per-arrival work so the suite's volume goes into the ingest path,
/// not the engines: one keyed threshold per sensor plus a wildcard
/// definition whose host shard receives the *full* stream — exactly the
/// shard the stall hook throttles, so backpressure engages for real.
std::vector<EventDefinition> stress_definitions(const std::string& tag) {
  std::vector<EventDefinition> defs;
  defs.push_back(EventDefinition{EventTypeId("WALL_" + tag),
                                 {{"w", SlotFilter::any()}},
                                 core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                              core::RelationalOp::kGt, 90.0),
                                 seconds(60),
                                 {},
                                 ConsumptionMode::kConsume});
  for (int i = 0; i < 4; ++i) {
    defs.push_back(EventDefinition{
        EventTypeId("ST" + std::to_string(i) + "_" + tag),
        {{"x", SlotFilter::observation(SensorId("SS" + std::to_string(i)))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
        seconds(60),
        {},
        ConsumptionMode::kConsume});
  }
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
  for (int i = 0; i < n; ++i) {
    now += time_model::milliseconds(1 + rng.uniform_int(0, 9));
    const int sensor = static_cast<int>(rng.uniform_int(0, 3));
    s.entities.push_back(core::Entity(obs(1, "SS" + std::to_string(sensor),
                                          static_cast<std::uint64_t>(i), now,
                                          {rng.uniform(0, 24), rng.uniform(0, 24)},
                                          rng.uniform(0, 100))));
    s.nows.push_back(now);
  }
  return s;
}

/// Deterministic stateless stall decision usable from any worker thread.
bool stall_tick(std::uint64_t tick) {
  std::uint64_t h = tick * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h % 101 == 0;
}

TEST(RuntimeStressTest, BurstyProducerVsStalledConsumerStaysExact) {
  const Stream stream = make_stream(42, kSoakArrivals);
  const auto defs = stress_definitions("SX");

  DetectionEngine sequential(ObserverId("OB"), core::Layer::kCyber, {0, 0});
  for (const EventDefinition& def : defs) sequential.add_definition(def);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < stream.entities.size(); ++i) {
    for (const EventInstance& inst : sequential.observe(stream.entities[i], stream.nows[i])) {
      want.push_back(describe(inst));
    }
  }

  constexpr std::size_t kQueue = 64;
  constexpr std::size_t kMaxBurst = 512;
  RuntimeOptions options;
  options.shards = 4;
  options.queue_capacity = kQueue;
  // Randomly stall whichever worker hosts the wildcard definition (it
  // sees every arrival): ~1% of its work items sleep, so the inbox fills
  // to its bound, producers park, and the consumer wakes them — repeatedly.
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::size_t> stalled_shard{0};
  options.stall_hook = [&](std::size_t shard) {
    if (shard != stalled_shard.load(std::memory_order_relaxed)) return;
    if (stall_tick(ticks.fetch_add(1, std::memory_order_relaxed))) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  };
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  const oracle::RunDeadline deadline(rt, "bursty");  // a stall prints the snapshot
  for (const EventDefinition& def : defs) rt.add_definition(def);
  stalled_shard.store(rt.shard_of(0), std::memory_order_relaxed);  // wildcard host

  // Bursty ingest: mostly small batches, occasionally a burst well above
  // queue_capacity (the oversized-batch admission path).
  sim::Rng bursts(7);
  std::vector<std::string> got;
  const auto collect = [&](std::vector<EventInstance> instances) {
    for (const EventInstance& inst : instances) got.push_back(describe(inst));
  };
  std::size_t i = 0;
  while (i < stream.entities.size()) {
    const std::size_t burst = bursts.chance(0.05)
                                  ? kMaxBurst
                                  : static_cast<std::size_t>(bursts.uniform_int(1, 48));
    const std::size_t n = std::min(burst, stream.entities.size() - i);
    rt.ingest_batch(std::span(stream.entities).subspan(i, n),
                    std::span(stream.nows).subspan(i, n));
    if (bursts.chance(0.25)) collect(rt.poll());
    i += n;
  }
  collect(oracle::flush_within(rt, "bursty"));

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k], want[k]) << "instance " << k;

  // Backpressure bounds inbox depth: at most queue_capacity arrivals are
  // admitted, except a single oversized burst into an empty inbox.
  const RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.arrivals, stream.entities.size());
  EXPECT_LE(stats.max_inbox, std::max(kQueue, kMaxBurst));
  EXPECT_GT(stats.max_inbox, 0u);
}

TEST(RuntimeStressTest, ConcurrentBurstyProducersConserveEverything) {
  // Byte-exactness is single-producer territory (concurrent producers
  // interleave stamps nondeterministically); with 4 racing producers the
  // oracle is conservation: per-type instance counts, arrival totals, and
  // the inbox bound must hold on every interleaving.
  constexpr std::uint64_t kProducers = 4;
  const int per_producer = kSoakArrivals / 8;
  std::vector<Stream> streams;
  std::vector<std::uint64_t> want_count(kProducers, 0);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    // One sensor per producer: each definition's instance count depends
    // only on its own producer's (in-order) sub-stream.
    sim::Rng rng(1000 + p);
    Stream s;
    TimePoint now = TimePoint::epoch();
    for (int i = 0; i < per_producer; ++i) {
      now += time_model::milliseconds(1 + rng.uniform_int(0, 9));
      const double value = rng.uniform(0, 100);
      if (value > 50.0) ++want_count[p];
      s.entities.push_back(core::Entity(obs(static_cast<int>(p), "SS" + std::to_string(p),
                                            static_cast<std::uint64_t>(i), now,
                                            {rng.uniform(0, 24), rng.uniform(0, 24)}, value)));
      s.nows.push_back(now);
    }
    streams.push_back(std::move(s));
  }

  constexpr std::size_t kQueue = 32;
  RuntimeOptions options;
  options.shards = 4;
  options.queue_capacity = kQueue;
  std::atomic<std::uint64_t> ticks{0};
  options.stall_hook = [&](std::size_t) {
    if (stall_tick(ticks.fetch_add(1, std::memory_order_relaxed))) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
  const oracle::RunDeadline deadline(rt, "producers");
  // No wildcard here: each arrival goes to exactly one shard, so the
  // per-type counts are independent of producer interleaving.
  for (int i = 0; i < 4; ++i) {
    rt.add_definition(EventDefinition{
        EventTypeId("ST" + std::to_string(i)),
        {{"x", SlotFilter::observation(SensorId("SS" + std::to_string(i)))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 50.0),
        seconds(60),
        {},
        ConsumptionMode::kConsume});
  }

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&rt, &streams, p] {
      const Stream& s = streams[p];
      sim::Rng bursts(77 + p);
      std::size_t i = 0;
      while (i < s.entities.size()) {
        const std::size_t n = std::min(
            static_cast<std::size_t>(bursts.uniform_int(1, 96)), s.entities.size() - i);
        rt.ingest_batch(std::span(s.entities).subspan(i, n),
                        std::span(s.nows).subspan(i, n));
        i += n;
      }
    });
  }
  for (auto& t : producers) t.join();

  std::map<std::string, std::uint64_t> got_count;
  for (const EventInstance& inst : oracle::flush_within(rt, "producers")) {
    ++got_count[inst.key.event.value()];
  }
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(got_count["ST" + std::to_string(p)], want_count[p]) << "producer " << p;
  }

  // The `value > 50` single-slot definitions ride the routing table's
  // threshold sub-index, so sub-threshold entities match no route and are
  // counted as dropped at ingest — conservation splits the total across
  // arrivals (== the instance-producing half, exactly) and dropped.
  const RuntimeStats stats = rt.stats();
  std::uint64_t want_total = 0;
  for (const std::uint64_t c : want_count) want_total += c;
  EXPECT_EQ(stats.arrivals, want_total);
  EXPECT_EQ(stats.arrivals + stats.dropped,
            kProducers * static_cast<std::uint64_t>(per_producer));
  EXPECT_EQ(stats.engine.entities_in, stats.deliveries);
  EXPECT_LE(stats.max_inbox, std::max<std::uint64_t>(kQueue, 96));
}

TEST(RuntimeStressTest, CleanShutdownMidBackpressure) {
  // A slow consumer (every work item stalls) and a capacity-2 inbox park
  // the producer almost immediately; shutdown() must release it, drain
  // the workers, and leave flush()/poll() returning promptly — across
  // both runtime modes and repeated rounds to catch interleavings.
  for (const bool cascade : {false, true}) {
    for (int round = 0; round < 6; ++round) {
      RuntimeOptions options;
      options.shards = 2;
      options.queue_capacity = 2;
      options.cascade = cascade;
      options.stall_hook = [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      };
      ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
      const std::string ctx =
          "shutdown cascade=" + std::to_string(cascade) + " round=" + std::to_string(round);
      const oracle::RunDeadline deadline(rt, ctx);
      for (const EventDefinition& def : stress_definitions("SD")) rt.add_definition(def);

      const Stream stream = make_stream(900 + round, 4'000);
      std::atomic<bool> producer_done{false};
      std::thread producer([&] {
        // Far more arrivals than the stalled consumer can drain before
        // the main thread calls shutdown: this parks in backpressure.
        for (std::size_t i = 0; i < stream.entities.size(); ++i) {
          rt.ingest(stream.entities[i], stream.nows[i]);
        }
        producer_done.store(true, std::memory_order_seq_cst);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(2 + round));
      rt.shutdown();
      producer.join();  // released by shutdown, remaining ingests no-op
      EXPECT_TRUE(producer_done.load(std::memory_order_seq_cst));

      // Post-shutdown API: flush must not hang on abandoned work, ingest
      // must be a no-op, and stats must stay readable.
      (void)oracle::flush_within(rt, ctx);
      const RuntimeStats stats = rt.stats();
      EXPECT_LE(stats.instances, stats.arrivals * 5);  // sane, no hang
      rt.ingest(stream.entities[0], stream.nows[0]);
      EXPECT_TRUE(rt.poll().empty());
      rt.shutdown();  // idempotent
    }
  }
}

TEST(RuntimeStressTest, ShutdownReleasesAParkedFlush) {
  // A flush parked on outstanding work must return once shutdown()
  // abandons that work. The wildcard definition's shard sleeps before
  // every item, so its 1,000 single-arrival items hold it for seconds; a
  // helper thread parks inside flush_tagged(), and the main thread shuts
  // the runtime down. bounded_flush turns a lost wake-up into a failure
  // with the runtime's snapshot instead of a hang.
  for (const bool cascade : {false, true}) {
    std::atomic<std::size_t> stalled{~std::size_t{0}};
    RuntimeOptions options;
    options.shards = 2;
    options.cascade = cascade;
    options.stall_hook = [&](std::size_t shard) {
      if (shard == stalled.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };
    ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
    const std::string ctx = "parked flush cascade=" + std::to_string(cascade);
    const oracle::RunDeadline deadline(rt, ctx);
    for (const EventDefinition& def : stress_definitions("PF")) rt.add_definition(def);
    stalled.store(rt.shard_of(0), std::memory_order_relaxed);

    const Stream stream = make_stream(4200, 1'000);
    for (std::size_t i = 0; i < stream.entities.size(); ++i) {
      rt.ingest(stream.entities[i], stream.nows[i]);
    }
    std::atomic<bool> flushed{false};
    std::thread helper([&] {
      (void)oracle::bounded_flush(rt, ctx, [&rt] { return rt.flush_tagged(); });
      flushed.store(true, std::memory_order_seq_cst);
    });
    // The stalled shard needs at least 2 s for its items, so the flush
    // cannot have returned yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(flushed.load(std::memory_order_seq_cst)) << ctx;
    rt.shutdown();
    helper.join();
    EXPECT_TRUE(flushed.load(std::memory_order_seq_cst)) << ctx;
    (void)rt.poll();  // post-shutdown API stays usable
  }
}

TEST(RuntimeStressTest, ShutdownRacesMigrationIssuance) {
  // Regression: shutdown() used to close the shard inboxes without holding
  // the ingest lock, so it could interleave inside a migration issuance
  // and drop one half of the extract/implant control pair on a closed
  // inbox while admitting the other — the receive-side worker then waited
  // forever on a ready flag nobody would set, and shutdown()'s join hung.
  // Race ingestion, explicit migrations, rebalance passes, and shutdown
  // hard across both runtime modes; a regression shows up as a stalled
  // round: its RunDeadline fails it with the runtime's snapshot.
  for (const bool cascade : {false, true}) {
    for (int round = 0; round < 8; ++round) {
      RuntimeOptions options;
      options.shards = 4;
      options.queue_capacity = 8;
      options.cascade = cascade;
      ShardedEngineRuntime rt(ObserverId("OB"), core::Layer::kCyber, {0, 0}, options);
      const oracle::RunDeadline deadline(
          rt, "migration race cascade=" + std::to_string(cascade) +
                  " round=" + std::to_string(round));
      for (const EventDefinition& def : stress_definitions("SM")) rt.add_definition(def);

      const Stream stream = make_stream(3000 + round, 3'000);
      std::thread producer([&] {
        std::size_t i = 0;
        while (i < stream.entities.size()) {
          const std::size_t n = std::min<std::size_t>(32, stream.entities.size() - i);
          rt.ingest_batch(std::span(stream.entities).subspan(i, n),
                          std::span(stream.nows).subspan(i, n));
          i += n;
          // A rebalance pass every 64 arrivals: its moves race the
          // migrator's, the ingests and shutdown().
          if (i % 64 == 0) rt.rebalance_now();
        }
      });
      std::atomic<bool> stop_migrator{false};
      std::thread migrator([&] {
        // Ping-pong the wildcard definition (def 0 sees the full stream, so
        // its handshakes always land mid-traffic) until shutdown; the
        // calls degrade to no-ops once the runtime stops.
        std::size_t to = 0;
        while (!stop_migrator.load(std::memory_order_relaxed)) {
          rt.migrate_definition(0, to);
          to = (to + 1) % options.shards;
        }
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 4));
      rt.shutdown();
      stop_migrator.store(true, std::memory_order_relaxed);
      producer.join();
      migrator.join();
      (void)rt.poll();  // post-shutdown API stays usable
      (void)rt.stats();
    }
  }
}

}  // namespace
}  // namespace stem::runtime
