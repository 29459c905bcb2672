#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/inbox_queue.hpp"

/// Units and torture for the segmented shard inbox. The single-threaded
/// units pin down FIFO order across segment boundaries, peek/pop-front
/// semantics, close, and the memory contract (a drained queue keeps at
/// most two segments; destruction frees queued items). The concurrent leg
/// proves no loss, no duplication and per-producer FIFO with 8 producers
/// serialized by a mutex — the queue's precondition, which the runtime
/// meets with its ingest lock — against a spinning consumer. Runs under
/// the TSan CI leg with reduced volumes.

namespace stem::runtime {
namespace {

#if defined(__SANITIZE_THREAD__)
#define STEM_INBOX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STEM_INBOX_TSAN 1
#endif
#endif

#if defined(STEM_INBOX_TSAN)
constexpr std::uint64_t kItemsPerProducer = 15'000;
#else
constexpr std::uint64_t kItemsPerProducer = 100'000;
#endif
constexpr std::uint64_t kProducers = 8;
constexpr std::size_t kCells = InboxQueue<int>::kSegmentCells;

TEST(InboxQueueTest, SingleThreadedFifo) {
  InboxQueue<int> q;
  int out = -1;
  EXPECT_FALSE(q.try_pop(out));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
}

TEST(InboxQueueTest, FifoAcrossSegmentBoundariesWithInterleavedPops) {
  // Pushes outrun pops by a varying margin, so the head and tail cross
  // well over 100 segment boundaries at different offsets from each other.
  InboxQueue<std::uint64_t> q;
  constexpr std::uint64_t kTotal = 150 * kCells + 17;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t out = 0;
  while (popped < kTotal) {
    const std::uint64_t burst = 1 + (pushed * 7) % 97;
    for (std::uint64_t i = 0; i < burst && pushed < kTotal; ++i) ASSERT_TRUE(q.push(pushed++));
    const std::uint64_t drain = 1 + (popped * 5) % 89;
    for (std::uint64_t i = 0; i < drain && popped < pushed; ++i) {
      ASSERT_TRUE(q.try_pop(out));
      ASSERT_EQ(out, popped++);
    }
  }
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_LE(q.segments(), 2u);
}

TEST(InboxQueueTest, FrontPeeksWithoutConsuming) {
  InboxQueue<int> q;
  EXPECT_EQ(q.front(), nullptr);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  int* head = q.front();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, 7);
  *head = 70;  // consumer may mutate the head in place (cursor pattern)
  ASSERT_EQ(*q.front(), 70);
  q.pop_front();
  ASSERT_EQ(*q.front(), 8);
  q.pop_front();
  EXPECT_EQ(q.front(), nullptr);
}

TEST(InboxQueueTest, PopFrontDestroysPayload) {
  // pop_front must destroy the payload at once, so resources (refcounted
  // batches in the runtime) free promptly.
  const auto tracked = std::make_shared<int>(42);
  InboxQueue<std::shared_ptr<int>> q;
  ASSERT_TRUE(q.push(tracked));
  EXPECT_EQ(tracked.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(InboxQueueTest, CloseFailsPushesAndDrainsPops) {
  InboxQueue<int> q;
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // discarded
  int out = -1;
  EXPECT_TRUE(q.try_pop(out));  // drains the remainder...
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.try_pop(out));  // ...then reports empty
  q.close();                     // idempotent
  EXPECT_FALSE(q.push(4));
}

TEST(InboxQueueTest, DrainedQueueKeepsAtMostTwoSegments) {
  InboxQueue<std::uint64_t> q;
  EXPECT_EQ(q.segments(), 1u);
  constexpr std::uint64_t kBurst = 10'000;
  for (std::uint64_t i = 0; i < kBurst; ++i) ASSERT_TRUE(q.push(i));
  // A burst allocates segments to hold it...
  EXPECT_EQ(q.segments(), kBurst / kCells + 1);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    ASSERT_EQ(out, i);
  }
  // ...and draining retires all but the live segment and one spare.
  EXPECT_LE(q.segments(), 2u);
  // Steady traffic afterwards reuses the spare instead of allocating.
  for (std::uint64_t i = 0; i < 20 * kCells; ++i) {
    ASSERT_TRUE(q.push(i));
    ASSERT_TRUE(q.try_pop(out));
    ASSERT_EQ(out, i);
  }
  EXPECT_LE(q.segments(), 2u);
}

TEST(InboxQueueTest, DestroyedWithItemsQueuedFreesThem) {
  // Items left queued at destruction (and the spare) are freed; the ASan
  // legs' leak check covers the segments, the use count the payloads.
  const auto tracked = std::make_shared<int>(1);
  {
    InboxQueue<std::shared_ptr<int>> q;
    for (std::size_t i = 0; i < 3 * kCells + 5; ++i) ASSERT_TRUE(q.push(tracked));
    for (std::size_t i = 0; i < kCells + 2; ++i) q.pop_front();  // leaves a spare
    EXPECT_EQ(tracked.use_count(), static_cast<long>(2 * kCells + 3 + 1));
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Concurrency torture.
// ---------------------------------------------------------------------------

TEST(InboxQueueTortureTest, EightSerializedProducersNoLossNoDupPerProducerOrder) {
  // 8 producers x 100k items, each push under one mutex as the runtime's
  // ingest lock does, against a consumer that spins on try_pop: every
  // item must arrive exactly once, and each producer's items in that
  // producer's program order. Items encode (producer, sequence).
  InboxQueue<std::uint64_t> q;
  std::mutex producer_mutex;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &producer_mutex, p] {
      for (std::uint64_t i = 0; i < kItemsPerProducer; ++i) {
        const std::lock_guard lk(producer_mutex);
        ASSERT_TRUE(q.push((p << 32) | i));
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t total = 0;
  std::uint64_t item = 0;
  while (total < kProducers * kItemsPerProducer) {
    if (!q.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
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
  EXPECT_FALSE(q.try_pop(item));
  EXPECT_LE(q.segments(), 2u);
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kItemsPerProducer);
}

}  // namespace
}  // namespace stem::runtime
