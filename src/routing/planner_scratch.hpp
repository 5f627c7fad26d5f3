// Flat, reusable scratch for the planners' breadth-first searches.
//
// The fault-aware planners (global_bfs in ftgcr.cpp, the subcube searches in
// hypercube_ft.cpp, informed_eh_route in freh.cpp) all run a plain FIFO BFS
// over a space whose nodes map onto a dense index range [0, slots): node
// labels for a whole cube or an EH structure, the compacted in-cube
// coordinates (compact_bits) for a subcube. BfsScratch gives each search
// three arrays indexed by slot — a visit stamp, one 32-bit value (arrival
// dimension or distance, the caller's choice) and a FIFO — that live in
// thread-local storage and are reused across searches. Visited state is
// reset by bumping an epoch, not by clearing, so a search costs nothing
// beyond the slots it touches, and no search hashes or allocates once the
// thread's arrays have grown to the largest space it has searched.
//
// One search per thread at a time: a second BfsScratch on the same thread
// while the first is alive throws (the searches above never nest).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"
#include "util/bits.hpp"

namespace gcube {

class BfsScratch {
 public:
  /// Leases the calling thread's scratch for a search over `slots` dense
  /// indices, every one unvisited and the FIFO empty.
  explicit BfsScratch(std::uint64_t slots);
  ~BfsScratch();
  BfsScratch(const BfsScratch&) = delete;
  BfsScratch& operator=(const BfsScratch&) = delete;

  [[nodiscard]] bool visited(std::uint32_t slot) const noexcept {
    return s_.stamp[slot] == s_.epoch;
  }
  /// Marks `slot` visited and stores its value.
  void visit(std::uint32_t slot, std::uint32_t value) noexcept {
    s_.stamp[slot] = s_.epoch;
    s_.value[slot] = value;
  }
  /// Value stored by visit(). Precondition: visited(slot).
  [[nodiscard]] std::uint32_t value(std::uint32_t slot) const noexcept {
    return s_.value[slot];
  }

  void push(NodeId u) { s_.fifo.push_back(u); }
  [[nodiscard]] bool empty() const noexcept { return head_ == s_.fifo.size(); }
  NodeId pop() noexcept { return s_.fifo[head_++]; }

 private:
  struct Storage {
    std::vector<std::uint32_t> stamp;
    std::vector<std::uint32_t> value;
    std::vector<NodeId> fifo;
    std::uint32_t epoch = 0;
    bool leased = false;
  };
  static Storage& storage() noexcept;

  Storage& s_;
  std::size_t head_ = 0;
};

/// Gathers the bits of `v` selected by `mask` into the low popcount(mask)
/// bits, in ascending order (a portable pext): the dense slot of node v in
/// the subcube spanned by `mask`.
[[nodiscard]] constexpr std::uint32_t compact_bits(NodeId v,
                                                   NodeId mask) noexcept {
  std::uint32_t out = 0;
  Dim j = 0;
  for (NodeId m = mask; m != 0; m &= m - 1, ++j) {
    out |= bit(v, lsb_index(m)) << j;
  }
  return out;
}

/// Distinct links met by one walk, in first-seen order. A walk meets a
/// handful of faults, so a linear scan beats hashing.
class LinkTally {
 public:
  /// Records link (u, c); returns true iff it had not been recorded.
  bool insert(NodeId u, Dim c) {
    const LinkId l = LinkId::of(u, c);
    for (const LinkId& seen : seen_) {
      if (seen == l) return false;
    }
    seen_.push_back(l);
    return true;
  }

 private:
  std::vector<LinkId> seen_;
};

}  // namespace gcube
