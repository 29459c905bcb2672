#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace stem::core {

/// Event type -> `u32` id, for an owner that already holds each type's
/// string: the sharded runtime (its definitions' specs) and each
/// DetectionEngine (its sequence counters). The table stores ids only, in
/// one open-addressed array that is at most half full, with linear
/// probing; a lookup reads a stored id's type back through the owner's
/// `key_of(id)`, which returns something comparable with a
/// `std::string_view`. No string, node or pointer into the owner's storage
/// is kept, so the owner may reallocate that storage between calls.
/// Insertion is amortized O(1); ids are never removed.
class EventTypeTable {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The id stored under `type`, or kNone.
  template <typename KeyOf>
  [[nodiscard]] std::uint32_t find(std::string_view type, const KeyOf& key_of) const {
    return slots_.empty() ? kNone : slots_[probe(type, key_of)];
  }

  /// Stores `id` under `type` unless the type already has an id. Returns
  /// the type's id (the first one stored for it) and whether `id` was
  /// stored. `key_of(id)` is read only for ids already in the table.
  template <typename KeyOf>
  std::pair<std::uint32_t, bool> insert(std::string_view type, std::uint32_t id,
                                        const KeyOf& key_of) {
    if (2 * (size_ + 1) > slots_.size()) grow(key_of);
    std::uint32_t& slot = slots_[probe(type, key_of)];
    if (slot != kNone) return {slot, false};
    slot = id;
    ++size_;
    return {id, true};
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  [[nodiscard]] static std::size_t hash(std::string_view type) {
    return std::hash<std::string_view>{}(type);
  }

  /// The slot holding `type`'s id, or the empty slot where it belongs.
  /// Terminates because the table is never full.
  template <typename KeyOf>
  [[nodiscard]] std::size_t probe(std::string_view type, const KeyOf& key_of) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(type) & mask;
    while (slots_[i] != kNone && std::string_view(key_of(slots_[i])) != type) i = (i + 1) & mask;
    return i;
  }

  template <typename KeyOf>
  void grow(const KeyOf& key_of) {
    std::vector<std::uint32_t> old(slots_.empty() ? 8 : 2 * slots_.size(), kNone);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint32_t id : old) {
      if (id == kNone) continue;
      std::size_t i = hash(key_of(id)) & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<std::uint32_t> slots_;  ///< power-of-two size; kNone = empty
  std::size_t size_ = 0;
};

}  // namespace stem::core
