#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace stem::runtime {

/// Destructive-interference padding unit. hardware_destructive_interference_size
/// is not constexpr-usable on every libstdc++ configuration, so the usual
/// 64-byte x86/ARM line is hardcoded (128 on Apple/ARM big cores would only
/// cost a prefetch pair, not correctness).
inline constexpr std::size_t kCacheLine = 64;

/// Futex-shaped park/wake rendezvous (an *eventcount*): waiters register,
/// re-check their own predicate, then sleep on an epoch word; notifiers pay
/// one uncontended atomic load when nobody is parked. The seq_cst fences on
/// registration (waiter) and on the waiter-count probe (notifier) form the
/// classic Dekker pair: either the notifier observes the registered waiter
/// and bumps the epoch, or the waiter's post-registration predicate check
/// observes the notifier's state change — a wakeup is never lost.
///
/// Usage (waiter):                     Usage (notifier):
///   ticket = ec.prepare_wait();         <make predicate true>;
///   if (predicate) ec.cancel_wait();    ec.notify_all();
///   else           ec.wait(ticket);
///
/// The predicate state must itself be read with seq_cst (or via a seq_cst
/// RMW) between prepare_wait and wait for the Dekker argument to hold.
class EventCount {
 public:
  /// Registers the caller as a potential sleeper and returns the epoch
  /// ticket to sleep on. Must be paired with exactly one cancel_wait() or
  /// wait(). The full fence pairs with the one in notify_all(): whatever
  /// ordering the caller's predicate loads use, either this registration
  /// is visible to the notifier's waiter probe, or the notifier's
  /// predicate change is visible to the re-check that follows.
  std::uint32_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() noexcept { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  /// Sleeps until the epoch moves past `ticket` (returns immediately when
  /// it already has). Spurious returns are fine — callers loop.
  void wait(std::uint32_t ticket) noexcept {
    epoch_.wait(ticket, std::memory_order_seq_cst);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Wakes every registered sleeper. One fence + load when nobody waits.
  void notify_all() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
  }

 private:
  alignas(kCacheLine) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

/// Unbounded single-consumer FIFO built from linked fixed-size segments,
/// so its memory follows how many items are queued rather than a
/// preallocated capacity (the shape of the segment lists in LCRQ —
/// Morrison & Afek, PPoPP 2013 — without their multi-producer claims).
///
/// **Precondition: callers serialize the producers.** push() and close()
/// must never run concurrently with each other (the runtime holds its
/// ingest lock around both); the single consumer runs concurrently with
/// them. A producer writes the tail cell, links a fresh segment when that
/// cell was its segment's last, and then release-stores the published
/// tail count; the consumer acquire-loads that count, so it sees both the
/// cell and any link it needs to step past the segment.
///
/// **Memory.** The consumer retires a segment once it has stepped past
/// it. It keeps one retired segment as a spare, which the producer takes
/// back (an atomic exchange hands it over) before allocating, and frees
/// the rest. A drained queue therefore holds at most two segments.
///
/// **Consumer API.** Peek with front(), mutate the head in place if
/// needed, then pop_front() — which destroys the payload at once so
/// resources it holds (e.g. refcounted batches) free promptly — or
/// try_pop(). The consumer never blocks here; it parks on its own
/// eventcount, which producers notify after pushing. close() fails every
/// later push; the consumer still drains what was pushed before it.
template <typename T>
class InboxQueue {
 public:
  static constexpr std::size_t kSegmentCells = 64;

  InboxQueue() : head_seg_(new Segment), tail_seg_(head_seg_) {}

  InboxQueue(const InboxQueue&) = delete;
  InboxQueue& operator=(const InboxQueue&) = delete;

  /// Frees every segment, destroying items still queued.
  ~InboxQueue() {
    for (Segment* seg = head_seg_; seg != nullptr;) {
      Segment* next = seg->next.load(std::memory_order_relaxed);
      delete seg;
      seg = next;
    }
    delete spare_.load(std::memory_order_relaxed);
  }

  /// Appends `value`; false (value discarded) once closed. Producers only,
  /// serialized by the caller.
  bool push(T value) {
    if (closed_) return false;
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    const std::size_t cell = pos % kSegmentCells;
    tail_seg_->cells[cell] = std::move(value);
    if (cell == kSegmentCells - 1) {
      // Acquire pairs with the consumer's release exchange: the spare's
      // reset cells and cleared link happen before its reuse here.
      Segment* seg = spare_.exchange(nullptr, std::memory_order_acquire);
      if (seg == nullptr) {
        seg = new Segment;
        segments_.fetch_add(1, std::memory_order_relaxed);
      }
      tail_seg_->next.store(seg, std::memory_order_relaxed);
      tail_seg_ = seg;
    }
    tail_.store(pos + 1, std::memory_order_release);  // publishes cell and link
    return true;
  }

  /// Fails every later push; the consumer drains what remains.
  /// Idempotent. Serialized with push() by the caller.
  void close() noexcept { closed_ = true; }

  /// Peeks the head item without consuming it; nullptr when empty.
  /// Consumer only. The pointer stays valid until pop_front().
  [[nodiscard]] T* front() noexcept {
    if (head_ == tail_seen_) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
      if (head_ == tail_seen_) return nullptr;
    }
    return &head_seg_->cells[head_ % kSegmentCells];
  }

  /// Consumes the head item (must follow a non-null front()), destroying
  /// its payload. Consumer only.
  void pop_front() noexcept {
    head_seg_->cells[head_ % kSegmentCells] = T{};
    if (++head_ % kSegmentCells != 0) return;
    // Stepped past the segment: the producer linked its successor before
    // publishing the item just consumed, so `next` is set.
    Segment* done = head_seg_;
    head_seg_ = done->next.load(std::memory_order_relaxed);
    done->next.store(nullptr, std::memory_order_relaxed);
    // Only the consumer fills the spare, so a displaced one is its own
    // earlier retiree, untouched by the producer.
    if (Segment* extra = spare_.exchange(done, std::memory_order_release)) {
      delete extra;
      segments_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Non-blocking pop; false when empty. Consumer only.
  bool try_pop(T& out) {
    T* item = front();
    if (item == nullptr) return false;
    out = std::move(*item);
    pop_front();
    return true;
  }

  /// Segments allocated (queued-through plus the spare); exact at
  /// quiescence.
  [[nodiscard]] std::size_t segments() const noexcept {
    return segments_.load(std::memory_order_relaxed);
  }

 private:
  struct Segment {
    T cells[kSegmentCells]{};
    std::atomic<Segment*> next{nullptr};
  };

  // Consumer side.
  Segment* head_seg_;
  std::uint64_t head_ = 0;       ///< items consumed
  std::uint64_t tail_seen_ = 0;  ///< last tail_ the consumer loaded
  // Producer side (serialized by the caller).
  alignas(kCacheLine) Segment* tail_seg_;
  std::atomic<std::uint64_t> tail_{0};  ///< items published
  bool closed_ = false;
  // Handed between the two sides.
  alignas(kCacheLine) std::atomic<Segment*> spare_{nullptr};
  std::atomic<std::size_t> segments_{1};
};

}  // namespace stem::runtime
