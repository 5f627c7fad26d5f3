// Fault sets: which nodes and links of a network are broken.
//
// Simulation assumption (3) of the paper: a faulty node makes all of its
// incident links faulty. FaultSet therefore distinguishes a link being
// *marked* faulty (an A/B-category link error) from a link being *unusable*
// (marked faulty, or either endpoint node faulty) — routing cares about the
// latter, categorization (fault/categorize.hpp) about the former.
//
// Storage is dense and grows on demand to the highest id seen: one bit per
// node id up to the highest faulty node, and one 32-bit dimension mask per
// lower link endpoint up to the highest marked link's lower endpoint (bit c
// of masks[lo] set iff link (lo, c) is marked). That is 1 bit + 4 B per id
// up to the highest faulty id, and every query is at most three indexed
// loads with no hashing. Ids above the grown size read as fault-free. The
// insertion-ordered vectors carry the deterministic enumeration order.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bits.hpp"

namespace gcube {

/// Identifies one undirected link by its lower endpoint (bit c cleared) and
/// dimension.
struct LinkId {
  NodeId lo;  // endpoint with bit `dim` == 0
  Dim dim;

  /// Canonical id of the link in dimension c incident to u.
  [[nodiscard]] static LinkId of(NodeId u, Dim c) noexcept {
    return {u & ~(NodeId{1} << c), c};
  }
  [[nodiscard]] NodeId hi() const noexcept { return flip_bit(lo, dim); }
  friend bool operator==(const LinkId&, const LinkId&) = default;
};

class FaultSet {
 public:
  /// Marks node u faulty. Idempotent. Throws std::invalid_argument unless
  /// u < 2^kMaxDimension (the dense bitmap is sized by the id).
  void fail_node(NodeId u);

  /// Marks the link in dimension c at node u faulty (either endpoint may be
  /// given). Idempotent. Throws std::invalid_argument unless
  /// u < 2^kMaxDimension and c < kMaxDimension.
  void fail_link(NodeId u, Dim c);

  /// Clears node u's fault mark (a transient fault healed — the node
  /// rebooted). Returns true iff u was faulty. Any link fault marks that
  /// were recorded independently of the node remain in place.
  bool repair_node(NodeId u);

  /// Clears the fault mark of the link in dimension c at node u (either
  /// endpoint may be given). Returns true iff the link was marked. The link
  /// stays unusable while either endpoint node is still faulty.
  bool repair_link(NodeId u, Dim c);

  [[nodiscard]] bool node_faulty(NodeId u) const noexcept {
    const std::size_t w = u >> 6;
    return w < node_bits_.size() && ((node_bits_[w] >> (u & 63)) & 1u) != 0;
  }

  /// True iff the link itself carries a fault mark (independent of endpoint
  /// node status). Precondition: c < 32.
  [[nodiscard]] bool link_marked(NodeId u, Dim c) const noexcept {
    const NodeId lo = LinkId::of(u, c).lo;
    return lo < link_masks_.size() && ((link_masks_[lo] >> c) & 1u) != 0;
  }

  /// True iff a packet may traverse the link in dimension c from node u:
  /// the link is not marked faulty and neither endpoint node is faulty.
  [[nodiscard]] bool link_usable(NodeId u, Dim c) const noexcept {
    return !link_marked(u, c) && !node_faulty(u) &&
           !node_faulty(flip_bit(u, c));
  }

  /// Mutation counter: bumped whenever the fault set actually changes —
  /// failures AND repairs. Consumers that cache fault-dependent plans (the
  /// routers' per-hop memoization) compare versions instead of subscribing
  /// to callbacks; entries stamped before a repair go stale exactly like
  /// entries stamped before a failure.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Number of mutations that *discarded* entries: clear() calls and
  /// successful repairs. Incremental consumers of the insertion-order
  /// vectors (fault/overlay.hpp) use this to tell "entries appended" from
  /// "entries removed", which a version move alone cannot distinguish —
  /// after a removal the vectors are no longer a superset of what the
  /// consumer already applied, so it must rebuild.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  [[nodiscard]] std::size_t node_fault_count() const {
    return faulty_nodes_.size();
  }
  [[nodiscard]] std::size_t link_fault_count() const {
    return faulty_links_.size();
  }
  [[nodiscard]] bool empty() const {
    return faulty_nodes_.empty() && faulty_links_.empty();
  }

  /// Faulty nodes / marked links in insertion order (deterministic).
  [[nodiscard]] const std::vector<NodeId>& faulty_nodes() const {
    return faulty_nodes_;
  }
  [[nodiscard]] const std::vector<LinkId>& faulty_links() const {
    return faulty_links_;
  }

  void clear();

 private:
  std::vector<NodeId> faulty_nodes_;
  std::vector<LinkId> faulty_links_;
  std::vector<std::uint64_t> node_bits_;   // bit u: node u faulty
  std::vector<std::uint32_t> link_masks_;  // [lo] bit c: link (lo, c) marked
  std::uint64_t version_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace gcube
