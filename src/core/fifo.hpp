#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace stem::core {

/// FIFO whose storage follows its occupancy: the live elements are the
/// contiguous range [head, end) of one array. It backs the engine's join
/// buffers (private slot buffers and shared slot streams) and the sharded
/// runtime's cascade feedback queues, which sit empty or nearly so most of
/// the time — a std::deque would hold a map and a node even then.
///
/// **Memory.** An empty FIFO holds no heap: the array is freed when the
/// last element leaves (pop_front, erase_if or clear). The array doubles
/// only when live elements fill more than three quarters of it, so a
/// non-empty FIFO holds less than 8/3 of its peak since it was last empty
/// (exactly twice when it fills without pops). Capacities are powers of
/// two, so the arrays of many FIFOs that fill and empty over and over
/// share a few allocator size classes.
///
/// **Speed.** push_back and pop_front are amortized O(1). pop_front only
/// destroys the head element; push_back into a full array either slides
/// the live range down over the popped slots (when they are at least a
/// quarter of the array) or doubles it. After either, at least a quarter
/// of the array is free, so each push pays for at most three element
/// moves — also in steady state at a fixed cap, where every push is
/// followed by one pop.
///
/// **Access.** Iterators are plain pointers (contiguous), so lower_bound,
/// indexed cursors and range-for work as on a vector.
///
/// **References.** push_back may relocate every element and erase_if
/// shifts the survivors; pop_front invalidates only the popped element.
/// Nothing else moves an element. The engine relies on this between a
/// slot insert and the consumption that ends the same enumeration:
/// try_bindings holds pointers into the buffers in that window, during
/// which no buffer is pushed to or popped.
template <class T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "relocation moves elements and must not throw");

 public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  Fifo(Fifo&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        head_(std::exchange(o.head_, 0)),
        end_(std::exchange(o.end_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  Fifo& operator=(Fifo&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      head_ = std::exchange(o.head_, 0);
      end_ = std::exchange(o.end_, 0);
      cap_ = std::exchange(o.cap_, 0);
    }
    return *this;
  }
  ~Fifo() { release(); }

  [[nodiscard]] bool empty() const { return head_ == end_; }
  [[nodiscard]] std::size_t size() const { return end_ - head_; }
  /// Allocated element slots (0 exactly when no heap is held).
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] T* begin() { return data_ + head_; }
  [[nodiscard]] T* end() { return data_ + end_; }
  [[nodiscard]] const T* begin() const { return data_ + head_; }
  [[nodiscard]] const T* end() const { return data_ + end_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[head_ + i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[head_ + i]; }
  [[nodiscard]] T& front() { return data_[head_]; }
  [[nodiscard]] T& back() { return data_[end_ - 1]; }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (end_ == cap_) {
      T fresh(std::forward<Args>(args)...);  // `args` may name an element about to move
      make_room();
      return construct_back(std::move(fresh));
    }
    return construct_back(std::forward<Args>(args)...);
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void pop_front() {
    std::destroy_at(data_ + head_);
    if (++head_ == end_) release();
  }

  /// Removes every element matching `pred`, keeping the others in order;
  /// returns how many were removed.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    T* const kept_end = std::remove_if(begin(), end(), pred);
    const auto removed = static_cast<std::size_t>(end() - kept_end);
    std::destroy(kept_end, end());
    end_ -= static_cast<std::uint32_t>(removed);
    if (empty()) release();
    return removed;
  }

  void clear() { release(); }

 private:
  template <class... Args>
  T& construct_back(Args&&... args) {
    T* const slot = data_ + end_;
    std::construct_at(slot, std::forward<Args>(args)...);
    ++end_;
    return *slot;
  }

  /// Called with the array full (end == cap).
  void make_room() {
    const std::uint32_t live = end_ - head_;
    if (head_ > 0 && 4 * std::size_t{head_} >= cap_) {
      // Slide the live range down to the front. The first `fresh`
      // destinations are popped (destroyed) slots; the rest, when the
      // ranges overlap, hold elements already moved from.
      const std::uint32_t fresh = std::min(head_, live);
      std::uninitialized_move(data_ + head_, data_ + head_ + fresh, data_);
      std::move(data_ + head_ + fresh, data_ + end_, data_ + fresh);
      std::destroy(data_ + std::max(head_, live), data_ + end_);
    } else {
      const std::size_t want = cap_ == 0 ? 1 : 2 * std::size_t{cap_};
      if (want > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("Fifo: capacity exceeds 2^32 elements");
      }
      T* const grown = std::allocator<T>{}.allocate(want);
      std::uninitialized_move(begin(), end(), grown);
      std::destroy(begin(), end());
      if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
      data_ = grown;
      cap_ = static_cast<std::uint32_t>(want);
    }
    head_ = 0;
    end_ = live;
  }

  void release() noexcept {
    if (data_ == nullptr) return;
    std::destroy(begin(), end());
    std::allocator<T>{}.deallocate(data_, cap_);
    data_ = nullptr;
    head_ = end_ = cap_ = 0;
  }

  T* data_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t end_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace stem::core
