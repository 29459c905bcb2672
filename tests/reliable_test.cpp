#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/engine.hpp"
#include "core/serialize.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "runtime/sharded_runtime.hpp"

/// Reliable-session suite: ReliableEndpoint must deliver every payload to
/// the upper handler exactly once and in order over links that drop,
/// duplicate, and reorder both data and ack frames — the seeded FaultPlan
/// makes each adversarial schedule reproducible. The differential leg
/// closes the loop on the paper's pipeline: a detection engine fed through
/// a 20%-lossy reliable link emits byte-identical instances to one fed the
/// same observations directly.

namespace stem::net {
namespace {

using core::Entity;
using core::ObserverId;
using core::SensorId;
using time_model::milliseconds;
using time_model::seconds;
using time_model::TimePoint;

core::PhysicalObservation obs(std::uint64_t seq, double value, TimePoint t) {
  core::PhysicalObservation o;
  o.mote = ObserverId("MT1");
  o.sensor = SensorId("SR");
  o.seq = seq;
  o.time = t;
  o.location = geom::Location(geom::Point{1, 2});
  o.attributes.set("value", value);
  return o;
}

/// Two reliable endpoints A -> B over one bidirectional link, with a
/// FaultPlan ready to abuse either direction. B records the payloads its
/// upper handler sees, in order.
struct ReliableFixture : ::testing::Test {
  ReliableFixture()
      : network(simulator, sim::Rng(7)),
        plan(0xfa17ULL),
        a(network, NodeId("a"), [](const Message&) {}),
        b(network, NodeId("b"),
          [this](const Message& msg) { delivered.push_back(msg); }) {
    network.connect(NodeId("a"), NodeId("b"),
                    LinkSpec{milliseconds(2), milliseconds(1), 0.0, 0.0});
    network.set_fault_plan(&plan);
  }

  /// Schedules `n` entity sends from A at 10ms spacing, starting at 10ms.
  void feed(int n) {
    for (int i = 0; i < n; ++i) {
      const TimePoint at = TimePoint::epoch() + milliseconds(10 * (i + 1));
      simulator.schedule_at(at, [this, i, at] {
        a.send(NodeId("b"), Entity(obs(static_cast<std::uint64_t>(i), 50.0 + i, at)));
      });
    }
  }

  /// Sequence numbers of the observations B's upper handler received.
  std::vector<std::uint64_t> delivered_seqs() const {
    std::vector<std::uint64_t> seqs;
    for (const Message& m : delivered) {
      seqs.push_back(std::get<Entity>(m.payload).observation().seq);
    }
    return seqs;
  }

  static std::vector<std::uint64_t> iota(int n) {
    std::vector<std::uint64_t> v;
    for (int i = 0; i < n; ++i) v.push_back(static_cast<std::uint64_t>(i));
    return v;
  }

  sim::Simulator simulator;
  Network network;
  FaultPlan plan;
  ReliableEndpoint a;
  ReliableEndpoint b;
  std::vector<Message> delivered;
};

TEST_F(ReliableFixture, LosslessLinkDeliversInOrderWithoutRetransmission) {
  feed(50);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(50));
  EXPECT_EQ(a.stats().data_sent, 50u);
  EXPECT_EQ(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().delivered, 50u);
  EXPECT_EQ(b.stats().duplicates_suppressed, 0u);
  EXPECT_EQ(a.in_flight(), 0u);
}

TEST_F(ReliableFixture, HeavyDataLossIsRepairedByRetransmission) {
  LinkFault fault;
  fault.drop_prob = 0.20;
  plan.on_link(NodeId("a"), NodeId("b"), fault);
  feed(200);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(200));
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().delivered, 200u);
  EXPECT_EQ(a.in_flight(), 0u);
  // Per-link accounting names the cause: the a->b link dropped frames and
  // carried the repairs.
  const LinkCounters& ab = network.stats().link(NodeId("a"), NodeId("b"));
  EXPECT_GT(ab.dropped, 0u);
  EXPECT_GT(ab.retransmitted, 0u);
  EXPECT_EQ(ab.sent, ab.delivered + ab.dropped);
}

TEST_F(ReliableFixture, LostAcksCostRetransmissionsNeverDuplicates) {
  // Drop every second ack: data arrives fine, the sender times out and
  // re-sends, and the receiver must suppress every duplicate and re-ack.
  LinkFault fault;
  fault.drop_every_n = 2;
  plan.on_link(NodeId("b"), NodeId("a"), fault);
  feed(100);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(100));
  EXPECT_EQ(b.stats().delivered, 100u);
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_GT(b.stats().duplicates_suppressed, 0u);
  EXPECT_EQ(a.in_flight(), 0u);
  const LinkCounters& ab = network.stats().link(NodeId("a"), NodeId("b"));
  EXPECT_GT(ab.duplicates_suppressed, 0u);
}

TEST_F(ReliableFixture, NetworkDuplicatedFramesAreSuppressed) {
  LinkFault fault;
  fault.duplicate_prob = 1.0;  // every delivered frame arrives twice
  plan.on_link(NodeId("a"), NodeId("b"), fault);
  feed(40);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(40));
  EXPECT_EQ(b.stats().delivered, 40u);
  EXPECT_GE(b.stats().duplicates_suppressed, 40u);
}

TEST_F(ReliableFixture, ReorderedFramesAreDeliveredInOrder) {
  // Jitter far above the 10ms send spacing scrambles arrival order; the
  // receiver's out-of-order buffer must restore sequence order exactly.
  LinkFault fault;
  fault.reorder_jitter = milliseconds(80);
  plan.on_link(NodeId("a"), NodeId("b"), fault);
  feed(100);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(100));
  EXPECT_EQ(b.stats().delivered, 100u);
}

TEST_F(ReliableFixture, EverythingAtOnce) {
  // Loss + duplication + reordering on data, counted loss on acks.
  LinkFault data;
  data.drop_prob = 0.15;
  data.duplicate_prob = 0.2;
  data.reorder_jitter = milliseconds(50);
  plan.on_link(NodeId("a"), NodeId("b"), data);
  LinkFault acks;
  acks.drop_every_n = 3;
  plan.on_link(NodeId("b"), NodeId("a"), acks);
  feed(150);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(150));
  EXPECT_EQ(b.stats().delivered, 150u);
  EXPECT_EQ(a.in_flight(), 0u);
}

TEST_F(ReliableFixture, PartitionWindowHealsAndDeliveryResumes) {
  // Hard partition of both directions for [200ms, 700ms): frames sent in
  // the window vanish; after healing, retransmission repairs the gap with
  // no duplicate or reordered delivery.
  LinkFault fault;
  fault.partitions.push_back({TimePoint::epoch() + milliseconds(200),
                              TimePoint::epoch() + milliseconds(700)});
  plan.on_link_both(NodeId("a"), NodeId("b"), fault);
  feed(100);
  simulator.run();
  EXPECT_EQ(delivered_seqs(), iota(100));
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_EQ(a.in_flight(), 0u);
}

TEST_F(ReliableFixture, PermanentPartitionDegradesObservably) {
  // Partition that never heals, finite retries: the sender must give up
  // (bounded work), count the abandoned frames, and clear its in-flight
  // window — degradation is visible in counters, never silent.
  ReliableEndpoint::Options opts;
  opts.max_retries = 4;
  ReliableEndpoint c(network, NodeId("c"), [](const Message&) {}, opts);
  network.connect(NodeId("c"), NodeId("b"),
                  LinkSpec{milliseconds(2), milliseconds(1), 0.0, 0.0});
  LinkFault wall;
  wall.partitions.push_back({TimePoint::epoch(), TimePoint::max()});
  plan.on_link_both(NodeId("c"), NodeId("b"), wall);
  for (int i = 0; i < 5; ++i) {
    const TimePoint at = TimePoint::epoch() + milliseconds(10 * (i + 1));
    simulator.schedule_at(at, [&c, i, at] {
      c.send(NodeId("b"), Entity(obs(static_cast<std::uint64_t>(i), 50.0, at)));
    });
  }
  simulator.run();
  EXPECT_EQ(c.stats().gave_up, 5u);
  EXPECT_EQ(c.in_flight(), 0u);
  EXPECT_GT(c.stats().retransmits, 0u);
}

TEST_F(ReliableFixture, PlainFramesInteroperate) {
  // A legacy node sends kPlain to a reliable endpoint: passthrough to the
  // upper handler, no session state, no ack traffic.
  network.register_node(NodeId("legacy"), [](const Message&) {});
  network.connect(NodeId("legacy"), NodeId("b"),
                  LinkSpec{milliseconds(2), milliseconds(1), 0.0, 0.0});
  Message msg;
  msg.src = NodeId("legacy");
  msg.dst = NodeId("b");
  msg.payload = Entity(obs(99, 1.0, TimePoint::epoch()));
  network.send(std::move(msg));
  simulator.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].kind, FrameKind::kPlain);
  EXPECT_EQ(delivered_seqs(), std::vector<std::uint64_t>{99});
  EXPECT_EQ(b.stats().acks_sent, 0u);
  EXPECT_EQ(b.stats().delivered, 0u);  // reliable-session counter untouched
}

/// Differential leg: the detection pipeline behind a 20%-lossy reliable
/// link is byte-identical to the same engine fed directly. The receiving
/// endpoint feeds its engine at *delivery* time; the reference engine
/// consumes the identical (entity, time) pairs, so any loss, duplication,
/// or reordering the session failed to mask would change the instance
/// stream.
TEST(ReliableDifferential, LossyLinkPreservesDetectionStream) {
  sim::Simulator simulator;
  Network network(simulator, sim::Rng(11));
  FaultPlan plan(0xd1ffULL);
  LinkFault fault;
  fault.drop_prob = 0.20;
  fault.duplicate_prob = 0.1;
  plan.on_link_both(NodeId("src"), NodeId("dst"), fault);
  network.set_fault_plan(&plan);

  const core::EventDefinition def{
      core::EventTypeId("HOT"),
      {{"x", core::SlotFilter::observation(SensorId("SR"))}},
      core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 55.0),
      seconds(60),
      {},
      core::ConsumptionMode::kConsume};
  core::DetectionEngine behind_link(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  core::DetectionEngine reference(ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  behind_link.add_definition(def);
  reference.add_definition(def);

  std::vector<std::string> got;
  std::vector<std::pair<Entity, TimePoint>> fed;
  ReliableEndpoint dst(network, NodeId("dst"), [&](const Message& msg) {
    const Entity& e = std::get<Entity>(msg.payload);
    fed.emplace_back(e, simulator.now());
    for (const core::EventInstance& inst : behind_link.observe(e, simulator.now())) {
      std::ostringstream os;
      os << inst.key << "@" << inst.gen_time << " V=" << inst.attributes;
      got.push_back(os.str());
    }
  });
  ReliableEndpoint src(network, NodeId("src"), [](const Message&) {});
  network.connect(NodeId("src"), NodeId("dst"),
                  LinkSpec{milliseconds(2), milliseconds(1), 0.0, 0.0});

  sim::Rng values(42);
  for (int i = 0; i < 300; ++i) {
    const TimePoint at = TimePoint::epoch() + milliseconds(5 * (i + 1));
    const double v = values.uniform(0, 100);
    simulator.schedule_at(at, [&src, i, v, at] {
      src.send(NodeId("dst"), Entity(obs(static_cast<std::uint64_t>(i), v, at)));
    });
  }
  simulator.run();

  ASSERT_EQ(fed.size(), 300u);  // exactly once each
  EXPECT_GT(src.stats().retransmits, 0u);
  std::vector<std::string> want;
  for (const auto& [entity, at] : fed) {
    for (const core::EventInstance& inst : reference.observe(entity, at)) {
      std::ostringstream os;
      os << inst.key << "@" << inst.gen_time << " V=" << inst.attributes;
      want.push_back(os.str());
    }
  }
  EXPECT_GT(want.size(), 0u);
  ASSERT_EQ(got, want);
}

/// The ISSUE 7 acceptance scenario in one piece: a seeded fault plan with
/// ≥5% link loss in front of a sharded runtime whose workers crash
/// mid-stream. The reliable session repairs the wire, checkpoint+replay
/// repairs the shards, and the merged emission stream is byte-identical
/// to a sequential engine fed the delivered stream — with every fault
/// counter nonzero to prove the faults actually fired.
TEST(ReliableDifferential, LossyLinkIntoCrashingShardedRuntimeEndToEnd) {
  sim::Simulator simulator;
  Network network(simulator, sim::Rng(13));
  FaultPlan plan(0xe2eULL);
  LinkFault fault;
  fault.drop_prob = 0.10;
  plan.on_link_both(NodeId("src"), NodeId("dst"), fault);
  network.set_fault_plan(&plan);

  auto polls = std::make_shared<std::atomic<std::uint64_t>>(0);
  runtime::RuntimeOptions options;
  options.shards = 4;
  options.checkpoint_epoch = 16;
  options.crash_hook = [polls](std::size_t) {
    const std::uint64_t n = polls->fetch_add(1, std::memory_order_relaxed) + 1;
    return n == 11 || n == 37;
  };
  runtime::ShardedEngineRuntime sharded(core::ObserverId("OB"), core::Layer::kCyberPhysical,
                                        {0, 0}, options);
  core::DetectionEngine sequential(core::ObserverId("OB"), core::Layer::kCyberPhysical, {0, 0});
  for (const char* sensor : {"SR", "SR2"}) {
    const core::EventDefinition def{
        core::EventTypeId(std::string("HOT_") + sensor),
        {{"x", core::SlotFilter::observation(SensorId(sensor))}},
        core::c_attr(core::ValueAggregate::kAverage, "value", {0}, core::RelationalOp::kGt, 55.0),
        seconds(60),
        {},
        core::ConsumptionMode::kConsume};
    sharded.add_definition(def);
    sequential.add_definition(def);
  }

  std::vector<std::pair<Entity, TimePoint>> fed;
  ReliableEndpoint dst(network, NodeId("dst"), [&](const Message& msg) {
    const Entity& e = std::get<Entity>(msg.payload);
    fed.emplace_back(e, simulator.now());
    sharded.ingest(e, simulator.now());
  });
  ReliableEndpoint src(network, NodeId("src"), [](const Message&) {});
  network.connect(NodeId("src"), NodeId("dst"),
                  LinkSpec{milliseconds(2), milliseconds(1), 0.0, 0.0});

  sim::Rng values(9);
  for (int i = 0; i < 400; ++i) {
    const TimePoint at = TimePoint::epoch() + milliseconds(5 * (i + 1));
    const double v = values.uniform(0, 100);
    simulator.schedule_at(at, [&src, i, v, at] {
      core::PhysicalObservation o = obs(static_cast<std::uint64_t>(i), v, at);
      if (i % 2 == 1) o.sensor = SensorId("SR2");
      src.send(NodeId("dst"), Entity(std::move(o)));
    });
  }
  simulator.run();

  ASSERT_EQ(fed.size(), 400u);
  const auto describe = [](const core::EventInstance& inst) {
    std::ostringstream os;
    os << inst.key << "@" << inst.gen_time << " V=" << inst.attributes;
    return os.str();
  };
  std::vector<std::string> got;
  for (const core::EventInstance& inst : sharded.flush()) got.push_back(describe(inst));
  std::vector<std::string> want;
  for (const auto& [entity, at] : fed) {
    for (const core::EventInstance& inst : sequential.observe(entity, at)) {
      want.push_back(describe(inst));
    }
  }
  EXPECT_GT(want.size(), 0u);
  ASSERT_EQ(got, want);

  // Every layer's fault machinery demonstrably fired.
  EXPECT_GT(src.stats().retransmits, 0u);
  // Reaping is asynchronous: flush() does not wait for a worker that died
  // holding no unpublished arrivals, so the supervisor may have counted a
  // crash whose recovery is still running. Give it a bounded moment, as
  // the crash-recovery suite does.
  runtime::RuntimeStats stats = sharded.stats();
  for (int spin = 0; spin < 2000 && stats.recoveries < stats.crashes; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = sharded.stats();
  }
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_GE(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, stats.crashes);
  EXPECT_EQ(stats.instances, want.size());
}

}  // namespace
}  // namespace stem::net
