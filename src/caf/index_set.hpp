// caf::IndexSet — a set of image ranks in insertion order, sized by the
// ranks it holds rather than by the machine.
//
// Per-image host tables keyed by a peer (the conduit's put-target tracker,
// the RPC engine's sender rows) hold only the peers a run contacts: an
// n-entry array per image costs n² entries over the machine (256 MiB of
// one-byte flags at 16k images), nearly all of them never read. Lookups
// probe an open-addressing table of positions (load ≤ 1/2), so find() and
// insert() stay O(1) however many peers an image contacts; clear() is
// O(size()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace caf {

class IndexSet {
 public:
  /// Position of `key` in insertion order, or -1 when absent.
  std::int32_t find(int key) const {
    if (slots_.empty()) return -1;
    for (std::size_t h = home(key);; h = (h + 1) & mask()) {
      const std::int32_t pos = slots_[h];
      if (pos < 0 || keys_[static_cast<std::size_t>(pos)] == key) return pos;
    }
  }
  bool contains(int key) const { return find(key) >= 0; }

  /// Adds `key` if absent. Returns its position in insertion order.
  std::int32_t insert(int key) {
    const std::int32_t found = find(key);
    if (found >= 0) return found;
    const auto pos = static_cast<std::int32_t>(keys_.size());
    keys_.push_back(key);
    if (2 * keys_.size() > slots_.size()) {
      grow();
    } else {
      place(pos);
    }
    return pos;
  }

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Removes every member and keeps the table. Members leave in reverse
  /// insertion order, so each one's probe run, which holds only members
  /// inserted before it, is still intact when its slot is emptied.
  void clear() {
    for (std::size_t i = keys_.size(); i-- > 0;) {
      std::size_t h = home(keys_[i]);
      while (slots_[h] != static_cast<std::int32_t>(i)) h = (h + 1) & mask();
      slots_[h] = -1;
    }
    keys_.clear();
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hash of `key` onto the table's `bits_` index bits.
  std::size_t home(int key) const {
    return (static_cast<std::uint32_t>(key) * 0x9E3779B9u) >> (32 - bits_);
  }
  void place(std::int32_t pos) {
    std::size_t h = home(keys_[static_cast<std::size_t>(pos)]);
    while (slots_[h] >= 0) h = (h + 1) & mask();
    slots_[h] = pos;
  }
  /// Doubles the table and re-places every member in insertion order.
  void grow() {
    bits_ = slots_.empty() ? 4 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, -1);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      place(static_cast<std::int32_t>(i));
    }
  }

  std::vector<int> keys_;
  std::vector<std::int32_t> slots_;  ///< position into keys_, -1 when empty
  unsigned bits_ = 0;
};

}  // namespace caf
