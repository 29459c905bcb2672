#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/event_type_table.hpp"

/// core::EventTypeTable: ids keyed by type strings the owner holds. The
/// table keeps no key, so every test owns its keys in a vector and reads
/// them back by id, as the runtime (through its specs) and each engine
/// (through its sequence counters) do.

namespace stem::core {
namespace {

std::string numbered(std::string prefix, const std::uint32_t i) {
  prefix += std::to_string(i);
  return prefix;
}

struct Owner {
  std::vector<std::string> keys;
  EventTypeTable table;

  [[nodiscard]] auto key_of() const {
    return [this](const std::uint32_t id) -> const std::string& { return keys[id]; };
  }
  /// Registers `key` the way the owners do: the next id, unless the type
  /// already has one.
  std::uint32_t add(const std::string& key) {
    const auto [id, inserted] =
        table.insert(key, static_cast<std::uint32_t>(keys.size()), key_of());
    if (inserted) keys.push_back(key);
    return id;
  }
  [[nodiscard]] std::uint32_t find(const std::string& key) const {
    return table.find(key, key_of());
  }
};

TEST(EventTypeTableTest, EmptyTableFindsNothing) {
  const Owner owner;
  EXPECT_EQ(owner.find("T"), EventTypeTable::kNone);
  EXPECT_EQ(owner.find(""), EventTypeTable::kNone);
  EXPECT_EQ(owner.table.size(), 0u);
}

TEST(EventTypeTableTest, EveryKeyIsFoundAfterEveryGrowth) {
  constexpr std::uint32_t kKeys = 100'000;
  Owner owner;
  std::size_t checked_through = 0;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(owner.add(numbered("T", i)), i);
    // The table doubles when it would pass half full: right after each
    // growth, every key inserted so far must still be found under its id.
    const std::size_t n = owner.table.size();
    if ((n & (n - 1)) == 0 || n == kKeys) {
      for (std::uint32_t k = 0; k < n; ++k) {
        ASSERT_EQ(owner.find(numbered("T", k)), k) << "after " << n << " keys";
      }
      checked_through = n;
    }
  }
  EXPECT_EQ(checked_through, kKeys);
  EXPECT_EQ(owner.table.size(), kKeys);
  EXPECT_EQ(owner.find(numbered("T", kKeys)), EventTypeTable::kNone);
  EXPECT_EQ(owner.find("T"), EventTypeTable::kNone);
}

TEST(EventTypeTableTest, KeysLongerThanTheSmallStringBuffer) {
  Owner owner;
  // Long keys share a long prefix and differ only at the end, so equal
  // hashes modulo the table size still have to be told apart by content.
  const std::string prefix(200, 'x');
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(owner.add(numbered(prefix, i)), i);
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(owner.find(numbered(prefix, i)), i);
  }
  EXPECT_EQ(owner.find(prefix), EventTypeTable::kNone);
  EXPECT_EQ(owner.find(prefix + "1000"), EventTypeTable::kNone);
}

TEST(EventTypeTableTest, RepeatedInsertsReturnTheFirstId) {
  Owner owner;
  EXPECT_EQ(owner.add("HOT"), 0u);
  EXPECT_EQ(owner.add("CP"), 1u);
  for (std::uint32_t id = 100; id < 200; ++id) {
    const auto [got, inserted] = owner.table.insert("HOT", id, owner.key_of());
    EXPECT_EQ(got, 0u);
    EXPECT_FALSE(inserted);
  }
  EXPECT_EQ(owner.table.size(), 2u);
  EXPECT_EQ(owner.keys.size(), 2u);
  EXPECT_EQ(owner.find("HOT"), 0u);
  EXPECT_EQ(owner.find("CP"), 1u);
}

TEST(EventTypeTableTest, OwnerStorageMayReallocateBetweenCalls) {
  // The table holds ids, never views into the owner's strings: keys that
  // move with every vector reallocation (short ones live inside the
  // std::string object) and keys freed and rebuilt by the owner stay
  // reachable. Under AddressSanitizer a table that kept a view would read
  // freed memory here.
  const auto key_for = [](const std::uint32_t i) {
    return numbered(i % 2 == 0 ? "S" : std::string(40, 'L'), i);
  };
  Owner owner;
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(owner.add(key_for(i)), i);
    owner.keys.shrink_to_fit();  // reallocate the key storage every time
  }
  std::vector<std::string> moved;
  moved.reserve(owner.keys.size());
  for (std::string& key : owner.keys) moved.push_back(std::move(key));
  owner.keys = std::move(moved);
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(owner.find(key_for(i)), i);
}

}  // namespace
}  // namespace stem::core
