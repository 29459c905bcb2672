#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "runtime/mpsc_ring.hpp"

/// Units and torture for the lock-free MPSC ingest ring. The
/// single-threaded units pin down the sequence protocol's edge geometry
/// (capacity rounding, capacity-1 rings, index wrap at the uint32
/// boundary, peek/pop-front slot release, close semantics); the
/// multi-threaded legs prove no loss, no duplication, and per-producer
/// FIFO under 8 concurrent producers, plus the blocking push's park/wake
/// path. The consumer never blocks in the ring (the runtime's worker
/// parks on its own eventcount), so the tests' consumers spin on
/// try_pop. Runs under the TSan CI leg with reduced volumes.

namespace stem::runtime {
namespace {

#if defined(__SANITIZE_THREAD__)
#define STEM_RING_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STEM_RING_TSAN 1
#endif
#endif

#if defined(STEM_RING_TSAN)
constexpr std::uint64_t kItemsPerProducer = 15'000;
#else
constexpr std::uint64_t kItemsPerProducer = 100'000;
#endif
constexpr std::uint64_t kProducers = 8;

/// Consumer side of the concurrent legs: spins on try_pop until an item
/// arrives.
template <typename T>
T pop_spin(MpscRing<T>& ring) {
  T out{};
  while (!ring.try_pop(out)) std::this_thread::yield();
  return out;
}

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(4096).capacity(), 4096u);
  EXPECT_EQ(MpscRing<int>(4097).capacity(), 8192u);
  EXPECT_EQ(MpscRing<int>(0).capacity(), 1u);  // clamped, never zero
}

TEST(MpscRingTest, SingleThreadedFifo) {
  MpscRing<int> ring(8);
  for (int lap = 0; lap < 5; ++lap) {  // > capacity total: exercises wrap
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(lap * 8 + i));
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_FALSE(ring.try_push(999));  // full
    int out = -1;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 8 + i);
    }
    EXPECT_FALSE(ring.try_pop(out));  // empty
    EXPECT_EQ(ring.size(), 0u);
  }
}

TEST(MpscRingTest, CapacityOneRingAlternates) {
  MpscRing<int> ring(1);
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(int{i}));
    ASSERT_FALSE(ring.try_push(int{i}));  // one slot only
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, i);
    ASSERT_FALSE(ring.try_pop(out));
  }
}

TEST(MpscRingTest, FrontPeeksWithoutConsuming) {
  MpscRing<int> ring(4);
  EXPECT_EQ(ring.front(), nullptr);
  ASSERT_TRUE(ring.try_push(7));
  ASSERT_TRUE(ring.try_push(8));
  int* head = ring.front();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, 7);
  *head = 70;  // consumer may mutate the head in place (cursor pattern)
  ASSERT_EQ(*ring.front(), 70);
  ring.pop_front();
  ASSERT_EQ(*ring.front(), 8);
  ring.pop_front();
  EXPECT_EQ(ring.front(), nullptr);
}

TEST(MpscRingTest, PopFrontReleasesSlotForNextLap) {
  MpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  ASSERT_FALSE(ring.try_push(3));
  ring.pop_front();
  ASSERT_TRUE(ring.try_push(3));  // freed slot immediately claimable
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 3);
}

TEST(MpscRingTest, SurvivesUint32IndexWrap) {
  // Start a few slots before the uint32 boundary: every comparison in the
  // protocol must go through signed wraparound differences, so FIFO and
  // fullness behave identically across the wrap.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    MpscRing<std::uint64_t> ring(capacity, std::numeric_limits<std::uint32_t>::max() - 5);
    std::uint64_t popped = 0;
    std::uint64_t pushed = 0;
    std::uint64_t out = 0;
    // Interleave so the cursors cross the boundary mid-traffic.
    while (popped < 1000) {
      while (pushed < 1000 && ring.try_push(std::uint64_t{pushed})) ++pushed;
      ASSERT_TRUE(ring.try_pop(out)) << "capacity=" << capacity;
      ASSERT_EQ(out, popped) << "capacity=" << capacity;
      ++popped;
    }
    EXPECT_EQ(ring.size(), 0u);
  }
}

TEST(MpscRingTest, CloseFailsPushesAndDrainsPops) {
  MpscRing<int> ring(4);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.push(2));
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.push(3));  // discarded, no block
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));  // drains the remainder...
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.try_pop(out));  // ...then reports empty
  EXPECT_EQ(ring.size(), 0u);
  ring.close();  // idempotent
}

TEST(MpscRingTest, MovesPayloadOwnership) {
  // pop_front must destroy the payload when releasing the slot, so
  // resources (refcounted batches in the runtime) free promptly.
  const auto tracked = std::make_shared<int>(42);
  MpscRing<std::shared_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::shared_ptr<int>(tracked)));
  EXPECT_EQ(tracked.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(tracked.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Concurrency torture.
// ---------------------------------------------------------------------------

/// 8 producers x 100k items each through a ring far smaller than the
/// total volume: every item must arrive exactly once, and each producer's
/// items must arrive in that producer's program order. Items encode
/// (producer, sequence) so both properties are checked directly.
void run_producer_torture(std::size_t ring_capacity, std::uint32_t start_pos) {
  MpscRing<std::uint64_t> ring(ring_capacity, start_pos);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kItemsPerProducer; ++i) {
        ASSERT_TRUE(ring.push((p << 32) | i));  // blocking: ring never closes
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t total = 0;
  while (total < kProducers * kItemsPerProducer) {
    const std::uint64_t item = pop_spin(ring);
    const std::uint64_t p = item >> 32;
    const std::uint64_t seq = item & 0xffffffffULL;
    ASSERT_LT(p, kProducers);
    // Exactly-once + per-producer FIFO in one assertion: a lost item
    // shows as a skip, a duplicate or reorder as a non-increment.
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " at total " << total;
    ++next_seq[p];
    ++total;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ring.size(), 0u);
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kItemsPerProducer);
}

TEST(MpscRingTortureTest, EightProducersNoLossNoDupPerProducerOrder) {
  run_producer_torture(/*ring_capacity=*/1024, /*start_pos=*/0);
}

TEST(MpscRingTortureTest, TinyRingMaximalContention) {
  // A 2-slot ring forces every producer through the full/park path and
  // the consumer through constant wrap.
  run_producer_torture(/*ring_capacity=*/2, /*start_pos=*/0);
}

TEST(MpscRingTortureTest, ConcurrentTrafficAcrossUint32Wrap) {
  // The claim/release cursors cross the uint32 boundary while 8 producers
  // race: wraparound arithmetic must stay exact under contention.
  run_producer_torture(/*ring_capacity=*/64,
                       std::numeric_limits<std::uint32_t>::max() - 1000);
}

TEST(MpscRingBlockingTest, PushParksWhenFullAndWakesOnPop) {
  MpscRing<int> ring(1);
  ASSERT_TRUE(ring.try_push(0));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(ring.push(1));  // parks: ring is full
    pushed.store(true, std::memory_order_seq_cst);
  });
  // The producer cannot complete until the consumer frees the slot. A
  // short sleep is not proof of parking, but a wrongly-succeeding push
  // would trip the FIFO assertions below deterministically.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(pop_spin(ring), 0);
  EXPECT_EQ(pop_spin(ring), 1);  // lands once the freed slot wakes the producer
  producer.join();
  EXPECT_TRUE(pushed.load(std::memory_order_seq_cst));
}

TEST(MpscRingTortureTest, CloseLosesNoAdmittedItems) {
  // Races close() against producers mid-claim, many rounds. The exactness
  // contract under test: every push() that returned true is popped, and a
  // claim that races the close and loses reports false (its tombstone
  // stays invisible) — no admitted item is lost, none is invented.
#if defined(STEM_RING_TSAN)
  constexpr int kRounds = 60;
#else
  constexpr int kRounds = 250;
#endif
  for (int round = 0; round < kRounds; ++round) {
    MpscRing<std::uint64_t> ring(8);
    std::atomic<std::uint64_t> admitted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        std::uint64_t v = 1;
        while (ring.push(v)) {  // false once closed
          admitted.fetch_add(1, std::memory_order_relaxed);
          ++v;
        }
      });
    }
    std::atomic<std::uint64_t> popped{0};
    std::thread consumer([&] {
      std::uint64_t out = 0;
      while (!ring.closed()) {
        if (ring.try_pop(out)) {
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
    // Let traffic build, then slam the door mid-flight (vary the timing a
    // little so the close lands in different phases of the claim protocol).
    std::this_thread::sleep_for(std::chrono::microseconds(20 + 13 * (round % 11)));
    ring.close();
    for (auto& t : producers) t.join();
    consumer.join();
    // Every claim is published now: drain what the consumer left. A
    // producer that read closed_ == false and won the tail CAS after the
    // close published a tombstone, not an item; the drain must skip it,
    // leaving the cursors level.
    std::uint64_t leftover = 0;
    while (ring.try_pop(leftover)) popped.fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(popped.load(std::memory_order_seq_cst),
              admitted.load(std::memory_order_seq_cst))
        << "round " << round;
    EXPECT_EQ(ring.size(), 0u) << "round " << round;
  }
}

TEST(MpscRingBlockingTest, CloseWakesParkedProducer) {
  MpscRing<int> ring(1);
  ASSERT_TRUE(ring.try_push(0));
  std::thread producer([&] {
    EXPECT_FALSE(ring.push(1));  // parked full, released by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ring.close();
  producer.join();
}

TEST(MpscRingBlockingTest, BoundedOccupancyUnderBlockingProducers) {
  // With blocking push the ring's occupancy can never exceed its slot
  // count — checked continuously while 4 producers hammer a tiny ring.
  constexpr std::uint64_t kPerProducer = 5'000;
  MpscRing<std::uint64_t> ring(4);
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < 4; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ring.push((p << 32) | i));
      }
    });
  }
  for (std::uint64_t n = 0; n < 4 * kPerProducer; ++n) {
    ASSERT_LE(ring.size(), ring.capacity());
    (void)pop_spin(ring);
  }
  for (auto& t : producers) t.join();
}

}  // namespace
}  // namespace stem::runtime
