// SlotTable: values keyed by 64-bit ids that the caller hands out, stored
// in recycled slots.
//
// Values live in a std::deque, so a live value's address never moves while
// the table grows or other ids come and go.  erase() keeps the slot's T
// object, and a later insert() hands that object back for the caller to
// overwrite: a value that owns vectors keeps their capacity, so steady
// insert/erase churn allocates nothing.
//
// An open-addressing index maps ids to slots: the home bucket by Fibonacci
// hashing, (id × 2^64/φ) >> shift, linear probing, a load factor of at most
// 1/2 (the index doubles past it), and backward-shift deletion, so erases
// leave no tombstones behind.  Fibonacci hashing matters because callers
// hand out ids in sequence: an identity hash would pack every live id into
// one probe run, and each erase would then shift the whole run.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace lp::util {

template <typename T>
class SlotTable {
 public:
  /// Makes `id`, which must not be live, live and returns its value: a
  /// value-initialized T in a new slot, or whatever T an erase left in a
  /// recycled slot.  The caller overwrites it.
  T& insert(std::uint64_t id) {
    assert(find(id) == nullptr);
    if (2 * (size_ + 1) > index_.size()) grow();
    std::uint32_t slot = 0;
    if (free_.empty()) {
      assert(values_.size() < kEmpty);
      slot = static_cast<std::uint32_t>(values_.size());
      values_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    place(Entry{id, slot});
    ++size_;
    return values_[slot];
  }

  /// The live value of `id`, or nullptr.
  [[nodiscard]] T* find(std::uint64_t id) {
    const std::size_t i = position(id);
    return i == kNotFound ? nullptr : &values_[index_[i].slot];
  }
  [[nodiscard]] const T* find(std::uint64_t id) const {
    const std::size_t i = position(id);
    return i == kNotFound ? nullptr : &values_[index_[i].slot];
  }

  /// Makes `id` dead, keeping its slot's T for a later insert.  Returns
  /// whether `id` was live.
  bool erase(std::uint64_t id) {
    std::size_t hole = position(id);
    if (hole == kNotFound) return false;
    free_.push_back(index_[hole].slot);
    --size_;
    // Backward shift: an entry later in the probe run moves into the hole
    // unless its home bucket lies cyclically in (hole, entry].
    for (std::size_t j = next(hole); index_[j].slot != kEmpty; j = next(j)) {
      const std::size_t mask = index_.size() - 1;
      if (((j - home(index_[j].id)) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole].slot = kEmpty;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Calls f(id, value) for every live id, in index order (not id order).
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : index_) {
      if (e.slot != kEmpty) f(e.id, values_[e.slot]);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinIndex = 16;

  struct Entry {
    std::uint64_t id{0};
    std::uint32_t slot{kEmpty};
  };

  [[nodiscard]] std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (index_.size() - 1);
  }

  /// Index position of live `id`, or kNotFound.
  [[nodiscard]] std::size_t position(std::uint64_t id) const {
    if (index_.empty()) return kNotFound;
    for (std::size_t i = home(id);; i = next(i)) {
      if (index_[i].slot == kEmpty) return kNotFound;
      if (index_[i].id == id) return i;
    }
  }

  /// Puts `e` in the first empty bucket of its probe run.
  void place(Entry e) {
    std::size_t i = home(e.id);
    while (index_[i].slot != kEmpty) i = next(i);
    index_[i] = e;
  }

  void grow() {
    std::vector<Entry> old = std::exchange(
        index_, std::vector<Entry>(index_.empty() ? kMinIndex : 2 * index_.size()));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (const Entry& e : old) {
      if (e.slot != kEmpty) place(e);
    }
  }

  std::deque<T> values_;
  std::vector<std::uint32_t> free_;  ///< dead slots, reused last-freed first
  std::vector<Entry> index_;         ///< empty, or a power of two in size
  unsigned shift_{64};               ///< 64 - log2(index_.size())
  std::size_t size_{0};
};

}  // namespace lp::util
