#include "fault/fault_set.hpp"

#include "util/error.hpp"

namespace gcube {

void FaultSet::fail_node(NodeId u) {
  GCUBE_REQUIRE(u < pow2(kMaxDimension),
                "node id must be below 2^kMaxDimension");
  const std::size_t w = u >> 6;
  if (w >= node_bits_.size()) node_bits_.resize(w + 1, 0);
  const std::uint64_t bit = std::uint64_t{1} << (u & 63);
  if ((node_bits_[w] & bit) != 0) return;
  node_bits_[w] |= bit;
  faulty_nodes_.push_back(u);
  ++version_;
}

void FaultSet::fail_link(NodeId u, Dim c) {
  GCUBE_REQUIRE(c < kMaxDimension, "link dimension must be below kMaxDimension");
  GCUBE_REQUIRE(u < pow2(kMaxDimension),
                "node id must be below 2^kMaxDimension");
  const LinkId l = LinkId::of(u, c);
  if (l.lo >= link_masks_.size()) link_masks_.resize(l.lo + std::size_t{1}, 0);
  const std::uint32_t bit = std::uint32_t{1} << c;
  if ((link_masks_[l.lo] & bit) != 0) return;
  link_masks_[l.lo] |= bit;
  faulty_links_.push_back(l);
  ++version_;
}

bool FaultSet::repair_node(NodeId u) {
  if (!node_faulty(u)) return false;
  node_bits_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
  std::erase(faulty_nodes_, u);
  ++version_;
  ++generation_;  // entry removed: incremental cursors are invalid
  return true;
}

bool FaultSet::repair_link(NodeId u, Dim c) {
  if (c >= kMaxDimension || !link_marked(u, c)) return false;
  const LinkId l = LinkId::of(u, c);
  link_masks_[l.lo] &= ~(std::uint32_t{1} << c);
  std::erase(faulty_links_, l);
  ++version_;
  ++generation_;  // entry removed: incremental cursors are invalid
  return true;
}

void FaultSet::clear() {
  if (!empty()) {
    ++version_;
    ++generation_;
  }
  faulty_nodes_.clear();
  faulty_links_.clear();
  node_bits_.clear();
  link_masks_.clear();
}

}  // namespace gcube
