#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/fifo.hpp"

/// The join buffers' storage: core::Fifo keeps FIFO order under
/// pop_front / erase_if, supports lower_bound over its contiguous range,
/// holds no heap once empty, and relocates O(1) elements per operation
/// even in steady state at a fixed cap. The engine legs fill a
/// consume-mode join's private slot buffers and a retain-mode shared
/// stream past max_buffer, then prune them empty.

namespace stem::core {
namespace {

static_assert(sizeof(Fifo<int>) <= 24, "every slot buffer and feedback queue pays this");

std::vector<int> contents(const Fifo<int>& f) { return {f.begin(), f.end()}; }

/// Element type that counts every move (construction and assignment).
struct Counted {
  static inline std::size_t moves = 0;
  int v = 0;

  explicit Counted(int x) : v(x) {}
  Counted(Counted&& o) noexcept : v(o.v) { ++moves; }
  Counted& operator=(Counted&& o) noexcept {
    v = o.v;
    ++moves;
    return *this;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() = default;
};

TEST(EngineBufferTest, FifoKeepsOrderUnderPopAndEraseIf) {
  Fifo<int> f;
  for (int i = 0; i < 10; ++i) f.push_back(i);
  f.pop_front();
  f.pop_front();
  EXPECT_EQ(contents(f), (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(f.front(), 2);
  EXPECT_EQ(f.back(), 9);
  EXPECT_EQ(f[3], 5);

  EXPECT_EQ(f.erase_if([](int v) { return v % 3 == 0; }), 3u);
  EXPECT_EQ(contents(f), (std::vector<int>{2, 4, 5, 7, 8}));

  // Pushes after a partial pop and an erase append behind the survivors.
  for (int i = 10; i < 14; ++i) f.push_back(i);
  f.pop_front();
  EXPECT_EQ(contents(f), (std::vector<int>{4, 5, 7, 8, 10, 11, 12, 13}));

  // Contiguous ascending range: lower_bound finds present and absent keys.
  EXPECT_EQ(*std::lower_bound(f.begin(), f.end(), 7), 7);
  EXPECT_EQ(*std::lower_bound(f.begin(), f.end(), 9), 10);
  EXPECT_EQ(std::lower_bound(f.begin(), f.end(), 14), f.end());
  EXPECT_EQ(std::lower_bound(f.begin(), f.end(), 0), f.begin());
}

TEST(EngineBufferTest, FifoPopFrontLeavesOtherElementsInPlace) {
  Fifo<int> f;
  for (int i = 0; i < 6; ++i) f.push_back(i);
  const int* last = &f.back();
  const int* third = &f[2];
  f.pop_front();
  f.pop_front();
  EXPECT_EQ(&f.back(), last);
  EXPECT_EQ(&f.front(), third);
}

TEST(EngineBufferTest, EmptyFifoHoldsNoHeap) {
  Fifo<int> popped;
  EXPECT_EQ(popped.capacity(), 0u);
  for (int i = 0; i < 5; ++i) popped.push_back(i);
  EXPECT_GT(popped.capacity(), 0u);
  while (!popped.empty()) popped.pop_front();
  EXPECT_EQ(popped.capacity(), 0u);

  Fifo<int> erased;
  for (int i = 0; i < 5; ++i) erased.push_back(i);
  erased.pop_front();
  EXPECT_EQ(erased.erase_if([](int) { return true; }), 4u);
  EXPECT_TRUE(erased.empty());
  EXPECT_EQ(erased.capacity(), 0u);

  Fifo<int> cleared;
  for (int i = 0; i < 5; ++i) cleared.push_back(i);
  cleared.clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(cleared.capacity(), 0u);

  // An emptied FIFO is reusable.
  cleared.push_back(7);
  EXPECT_EQ(contents(cleared), (std::vector<int>{7}));
}

TEST(EngineBufferTest, CapacityFollowsPeakSinceEmpty) {
  Fifo<int> f;
  for (const int pop_every : {1000, 2, 3, 5}) {
    std::size_t peak = 0;
    for (int i = 0; i < 300; ++i) {
      f.push_back(i);
      peak = std::max(peak, f.size());
      // Less than 8/3 of the peak; exactly twice it when only pushing.
      EXPECT_LT(3 * f.capacity(), 8 * peak + 3) << "pop every " << pop_every << ", push " << i;
      if (pop_every == 1000) {
        EXPECT_LE(f.capacity(), 2 * peak);
      }
      if (i % pop_every == 0) f.pop_front();
    }
    while (!f.empty()) f.pop_front();
    EXPECT_EQ(f.capacity(), 0u);
  }
}

TEST(EngineBufferTest, AmortizedMovesPerOperationAtFixedCap) {
  // 48 and 96 fill three quarters of their arrays, the costliest case.
  for (const std::size_t cap : {1u, 5u, 33u, 48u, 64u, 96u, 256u}) {
    Fifo<Counted> f;
    for (std::size_t i = 0; i < cap; ++i) f.emplace_back(static_cast<int>(i));
    Counted::moves = 0;
    // Steady state at the cap: every push is followed by one pop, as in a
    // slot buffer that evicts its oldest entry on each insert.
    constexpr std::size_t kOps = 100'000;
    for (std::size_t i = 0; i < kOps; ++i) {
      f.emplace_back(static_cast<int>(cap + i));
      f.pop_front();
      ASSERT_LE(f.capacity(), 4 * cap);
    }
    // At most three relocations per push, plus the temporary a push into
    // a full array moves in.
    EXPECT_LE(Counted::moves, 4 * kOps) << "cap " << cap;
    ASSERT_EQ(f.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(f[i].v, static_cast<int>(kOps + i)) << "cap " << cap;
    }
  }
}

TEST(EngineBufferTest, RelocationKeepsEveryElementOnce) {
  // Shared owners count the copies alive: a relocation that destroyed an
  // element twice or leaked one would move the count. Caps 3 and 6 fill
  // three quarters of their arrays, where a slide overlaps its source.
  const auto token = std::make_shared<int>(0);
  for (const std::size_t cap : {1u, 3u, 6u, 7u}) {
    Fifo<std::shared_ptr<int>> f;
    for (std::size_t i = 0; i < 1000; ++i) {
      f.push_back(token);
      if (f.size() > cap) f.pop_front();
      ASSERT_EQ(static_cast<std::size_t>(token.use_count()), 1 + f.size()) << "cap " << cap;
    }
    f.erase_if([](const std::shared_ptr<int>&) { return true; });
    EXPECT_EQ(token.use_count(), 1) << "cap " << cap;
  }
}

using geom::Location;
using geom::Point;
using time_model::seconds;
using time_model::TimePoint;

PhysicalObservation obs(const char* sensor, std::uint64_t seq, TimePoint t) {
  PhysicalObservation o;
  o.mote = ObserverId("MT1");
  o.sensor = SensorId(sensor);
  o.seq = seq;
  o.time = t;
  o.location = Location(Point{0, 0});
  o.attributes.set("value", 1.0);
  return o;
}

std::uint64_t buffered(const DetectionEngine& eng, std::uint32_t def) {
  std::vector<std::pair<std::uint32_t, DefinitionLoad>> loads;
  eng.collect_definition_loads(loads);
  for (const auto& [d, load] : loads) {
    if (d == def) return load.buffered;
  }
  ADD_FAILURE() << "no load for definition " << def;
  return 0;
}

TEST(EngineBufferTest, ConsumeJoinFillsPastCapThenPrunesEmpty) {
  EngineOptions opts;
  opts.max_buffer = 4;
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0}, opts);
  const auto def = static_cast<std::uint32_t>(eng.add_definition(EventDefinition{
      EventTypeId("TRIPLE"),
      {{"x", SlotFilter::observation(SensorId("SA"))},
       {"y", SlotFilter::observation(SensorId("SB"))},
       {"z", SlotFilter::observation(SensorId("SC"))}},
      c_and({c_time(0, time_model::TemporalOp::kBefore, 1),
             c_time(1, time_model::TemporalOp::kBefore, 2)}),
      seconds(100),
      {},
      ConsumptionMode::kConsume}));

  // Ten x and ten y arrivals with no z: nothing binds, and each slot
  // buffer keeps its newest four (six evictions per slot).
  const TimePoint t0(1'000'000);
  std::size_t emitted = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    emitted += eng.observe(Entity(obs("SA", i, t0 + seconds(2 * i))), t0 + seconds(2 * i)).size();
    emitted += eng.observe(Entity(obs("SB", i, t0 + seconds(2 * i + 1))),
                           t0 + seconds(2 * i + 1))
                   .size();
  }
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(eng.stats().evicted, 12u);
  EXPECT_EQ(buffered(eng, def), 8u);

  // One z binds the oldest surviving x (seq 6) and y (seq 6) and consumes
  // all three participants.
  const TimePoint tz = t0 + seconds(30);
  const auto out = eng.observe(Entity(obs("SC", 0, tz)), tz);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].provenance.size(), 3u);
  EXPECT_EQ(out[0].provenance[0].seq, 6u);
  EXPECT_EQ(out[0].provenance[1].seq, 6u);
  EXPECT_EQ(buffered(eng, def), 6u);

  // Far past the window every remaining entry expires.
  eng.prune(tz + seconds(1000));
  EXPECT_EQ(eng.stats().evicted, 18u);
  EXPECT_EQ(buffered(eng, def), 0u);
  EXPECT_EQ(eng.stats().instances_out, 1u);
}

TEST(EngineBufferTest, SharedStreamFillsPastCapThenPrunesEmpty) {
  EngineOptions opts;
  opts.max_buffer = 40;  // past the spatial index's activation occupancy
  DetectionEngine eng(ObserverId("OB"), Layer::kSensor, {0, 0}, opts);
  // Two retain-mode definitions with equal slot filters and windows
  // share both slot streams; the first guards y by distance to x, so the
  // x stream carries a spatial index once it is full enough.
  const auto near = static_cast<std::uint32_t>(eng.add_definition(EventDefinition{
      EventTypeId("NEAR"),
      {{"x", SlotFilter::observation(SensorId("SA"))},
       {"y", SlotFilter::observation(SensorId("SB"))}},
      c_and({c_time(0, time_model::TemporalOp::kBefore, 1),
             c_distance(0, 1, RelationalOp::kLe, 10.0)}),
      seconds(100),
      {},
      ConsumptionMode::kUnrestricted}));
  const auto far = static_cast<std::uint32_t>(eng.add_definition(EventDefinition{
      EventTypeId("FAR"),
      {{"x", SlotFilter::observation(SensorId("SA"))},
       {"y", SlotFilter::observation(SensorId("SB"))}},
      c_distance(0, 1, RelationalOp::kGt, 10.0),
      seconds(100),
      {},
      ConsumptionMode::kUnrestricted}));

  // Fifty x arrivals: the shared x stream keeps its newest forty, and
  // each of the ten evictions counts once per subscriber.
  const TimePoint t0(1'000'000);
  std::size_t emitted = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    emitted += eng.observe(Entity(obs("SA", i, t0 + seconds(i))), t0 + seconds(i)).size();
  }
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(eng.stats().evicted, 20u);
  EXPECT_EQ(buffered(eng, near), 40u);
  EXPECT_EQ(buffered(eng, far), 40u);

  // One y binds every buffered x for NEAR and none for FAR.
  const TimePoint ty = t0 + seconds(60);
  const auto out = eng.observe(Entity(obs("SB", 0, ty)), ty);
  EXPECT_EQ(out.size(), 40u);
  for (const EventInstance& inst : out) EXPECT_EQ(inst.key.event, EventTypeId("NEAR"));
  EXPECT_EQ(buffered(eng, near), 41u);

  eng.prune(ty + seconds(1000));
  EXPECT_EQ(eng.stats().evicted, 20u + 2u * 41u);
  EXPECT_EQ(buffered(eng, near), 0u);
  EXPECT_EQ(buffered(eng, far), 0u);
  EXPECT_EQ(eng.stats().instances_out, 40u);
}

}  // namespace
}  // namespace stem::core
