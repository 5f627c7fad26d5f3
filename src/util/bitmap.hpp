// Dense bitset over a contiguous index range with an ascending-order scan.
//
// Backs the simulator's busy-node set: each shard keeps one bitmap over
// its own node range (bit i = node begin + i), so membership updates are
// single-word OR/AND-NOT and the per-cycle scan costs one countr_zero per
// live bit plus one load per 64-bit word — O(busy) instead of O(nodes).
// Shards never share a bitmap, so no word is written by two threads.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace gcube {

class NodeBitmap {
 public:
  /// Sizes the bitmap for indices [0, bits) and clears every bit.
  void reset(std::uint64_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  /// Clears every bit, keeping the size.
  void clear_all() noexcept { std::fill(words_.begin(), words_.end(), 0); }
  /// Sets every bit in [0, size), a word at a time.
  void set_all() noexcept {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    if ((bits_ & 63) != 0) {
      words_.back() = (std::uint64_t{1} << (bits_ & 63)) - 1;
    }
  }

  void set(std::uint64_t i) noexcept {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear(std::uint64_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::uint64_t i, bool value) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }
  [[nodiscard]] bool test(std::uint64_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Calls f(i) for every set bit in ascending index order. Each word is
  /// scanned from a copy, so f may clear (or set) bits of the word being
  /// visited without perturbing the iteration.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t live = words_[w];
      while (live != 0) {
        const auto bit = static_cast<std::uint64_t>(std::countr_zero(live));
        live &= live - 1;
        f((static_cast<std::uint64_t>(w) << 6) | bit);
      }
    }
  }

 private:
  std::uint64_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace gcube
