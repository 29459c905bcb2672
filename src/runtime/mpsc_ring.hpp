#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace stem::runtime {

/// Destructive-interference padding unit. hardware_destructive_interference_size
/// is not constexpr-usable on every libstdc++ configuration, so the usual
/// 64-byte x86/ARM line is hardcoded (128 on Apple/ARM big cores would only
/// cost a prefetch pair, not correctness).
inline constexpr std::size_t kCacheLine = 64;

/// Polite spin hint for consumer/producer spin phases.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

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

/// Bounded lock-free multi-producer / single-consumer ring.
///
/// Protocol (Vyukov bounded-queue sequence scheme, restricted to one
/// consumer): every cell carries a sequence word. A producer claims the
/// tail slot with a CAS when the cell's sequence says "empty for this
/// lap" (seq == pos), writes the payload, and publishes with a release
/// store of seq = pos + 1. The consumer reads head's cell when
/// seq == pos + 1 and releases the slot for the next lap with
/// seq = pos + capacity. Claim order is FIFO, so the consumer observes
/// every producer's items in that producer's program order, with no loss
/// or duplication; a claimed-but-unpublished slot merely makes the
/// consumer wait (order is never given away).
///
/// Positions are deliberately 32-bit and all comparisons go through signed
/// wraparound differences, so the protocol survives index wrap at the
/// uint32 boundary by construction (capacity must stay below 2^30); the
/// `start_pos` constructor parameter exists so tests can begin a ring a
/// few slots before the wrap point and prove it.
///
/// Blocking semantics: push() parks on an internal EventCount while the
/// ring is full (bounded-queue backpressure). The consumer never blocks
/// here: it peeks (front()/pop_front()) or try_pop()s, so a caller can
/// interleave this ring with other work sources, consume an item only
/// when an external admission rule allows it, and park on its own
/// eventcount (producers wake it after their push). close() wakes parked
/// producers: subsequent pushes fail, while the consumer can still drain
/// every item pushed before it. A claim that races close() and loses
/// publishes a consumer-invisible tombstone instead of an item (its push
/// returns false).
template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two (see capacity()).
  explicit MpscRing(std::size_t capacity, std::uint32_t start_pos = 0)
      : mask_(static_cast<std::uint32_t>(
            std::bit_ceil(capacity < 1 ? std::size_t{1} : capacity) - 1)),
        cells_(std::make_unique<Cell[]>(static_cast<std::size_t>(mask_) + 1)),
        tail_(start_pos),
        head_(start_pos) {
    // Seed by *position*, not array index: cell (pos & mask) must read
    // seq == pos for the first lap even when start_pos is not a multiple
    // of the capacity (the wrap tests start mid-lap on purpose).
    for (std::uint32_t i = 0; i <= mask_; ++i) {
      const std::uint32_t pos = start_pos + i;
      cells_[pos & mask_].seq.store(pos, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return static_cast<std::size_t>(mask_) + 1;
  }

  /// Approximate item count (exact at quiescence).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::uint32_t>(tail_.load(std::memory_order_acquire) -
                                      head_.load(std::memory_order_acquire));
  }

  /// Non-blocking push; false when the ring is full or closed. Any
  /// thread.
  bool try_push(T&& value) { return try_push_ref(value); }

  /// Blocking push: parks while full, returns false (value discarded) once
  /// the ring is closed. Any thread.
  bool push(T value) {
    for (;;) {
      if (closed_.load(std::memory_order_seq_cst)) return false;
      if (try_push_ref(value)) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      const std::uint32_t ticket = space_.prepare_wait();
      if (try_push_ref(value)) {
        space_.cancel_wait();
        return true;
      }
      if (closed_.load(std::memory_order_seq_cst)) {
        space_.cancel_wait();
        return false;
      }
      space_.wait(ticket);
    }
  }

  /// Peeks the head item without consuming it; nullptr when empty.
  /// Consumer thread only. The pointer stays valid until pop_front().
  [[nodiscard]] T* front() noexcept {
    for (;;) {
      const std::uint32_t pos = head_.load(std::memory_order_relaxed);
      Cell& cell = cells_[pos & mask_];
      const std::uint32_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::int32_t>(seq - (pos + 1)) < 0) return nullptr;  // empty
      if (!cell.poisoned) return &cell.value;
      // Tombstone: a push claimed this slot, then observed close() and
      // published a poisoned cell instead of an item (see try_push_ref).
      // Never surfaced to callers — release the slot and look again.
      release_slot(pos, cell);
    }
  }

  /// Releases the head slot (must follow a non-null front()). Consumer
  /// thread only. Destroys the payload before handing the slot back so
  /// resources held by the item (e.g. refcounted batches) free promptly.
  void pop_front() noexcept {
    const std::uint32_t pos = head_.load(std::memory_order_relaxed);
    release_slot(pos, cells_[pos & mask_]);
  }

  /// Non-blocking pop; false when empty. Consumer thread only.
  bool try_pop(T& out) {
    T* item = front();
    if (item == nullptr) return false;
    out = std::move(*item);
    pop_front();
    return true;
  }

  /// Closes the ring: wakes every parked producer; push() fails from here
  /// on, the consumer drains what remains. Idempotent, any thread.
  void close() noexcept {
    closed_.store(true, std::memory_order_seq_cst);
    space_.notify_all();
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<std::uint32_t> seq{0};
    /// Claim-raced-close tombstone: published instead of an item when the
    /// producer observed closed_ only after winning the tail CAS. Written
    /// before (and read after) seq's release/acquire hand-off. Packed
    /// beside seq: for an 8-byte-aligned T a cell is 8 + sizeof(T) bytes.
    bool poisoned = false;
    T value{};
  };

  /// Hands the head slot back for the next lap (consumer thread only).
  void release_slot(std::uint32_t pos, Cell& cell) noexcept {
    cell.value = T{};
    cell.poisoned = false;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_release);
    space_.notify_all();
  }

  bool try_push_ref(T& value) {
    std::uint32_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      // Fullness by cursor distance, not cell sequence: a capacity-1 ring
      // has identical "published" and "empty next lap" sequence values
      // (pos + 1 == pos + capacity), so the sequence alone cannot reject
      // the overwrite. head_ only grows, so a passing check stays valid
      // for the claimed pos, and the consumer's release-store of head_
      // orders the cell's slot release before this claim observes it.
      if (static_cast<std::uint32_t>(pos - head_.load(std::memory_order_acquire)) > mask_) {
        return false;  // full: all capacity() slots are outstanding
      }
      Cell& cell = cells_[pos & mask_];
      const std::uint32_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int32_t diff = static_cast<std::int32_t>(seq - pos);
      if (diff == 0) {
        // seq_cst success ordering: the claim must take a place in the
        // total order against close()'s store — on x86 the lock-prefixed
        // CAS is sequentially consistent anyway, so the hot path pays
        // nothing.
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          if (closed_.load(std::memory_order_seq_cst)) {
            // The claim raced close() and lost: a consumer draining the
            // closed ring may already have judged it exhausted up to this
            // claim, so an item published here could be abandoned.
            // Publish a tombstone instead (front() skips and releases it)
            // and report failure — the item is not admitted.
            cell.poisoned = true;
            cell.seq.store(pos + 1, std::memory_order_release);
            return false;
          }
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry against the new tail.
      } else if (diff < 0) {
        return false;  // full: the consumer has not released this lap's slot
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  const std::uint32_t mask_;
  const std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLine) std::atomic<std::uint32_t> tail_;  ///< producers' claim cursor
  alignas(kCacheLine) std::atomic<std::uint32_t> head_;  ///< consumer cursor
  alignas(kCacheLine) EventCount space_;                 ///< producers park when full
  std::atomic<bool> closed_{false};
};

}  // namespace stem::runtime
