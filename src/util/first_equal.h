// Deduplication of items by content through 64-bit content keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace desmine::util {

/// Finds the first of the items that are equal by content, through their
/// 64-bit content keys: an open-addressing table sized for a known number
/// of items, at most half full.
class FirstEqual {
 public:
  explicit FirstEqual(std::size_t items) {
    std::size_t capacity = 8;
    while (capacity < 2 * items) capacity *= 2;
    slots_.assign(capacity, Slot{0, kNone});
  }

  /// The earliest item j added with `key` for which same(j) holds; when
  /// there is none, adds item k and returns k. A key that identifies its
  /// items exactly needs a `same` that always holds.
  template <typename Same>
  std::size_t find_or_add(std::uint64_t key, std::size_t k, const Same& same) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> 32;; ++i) {
      Slot& slot = slots_[i & mask];
      if (slot.item == kNone) {
        slot = {key, k};
        return k;
      }
      if (slot.key == key && same(slot.item)) return slot.item;
    }
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Slot {
    std::uint64_t key;
    std::size_t item;
  };
  std::vector<Slot> slots_;
};

}  // namespace desmine::util
