// Fault overlay: dense per-node link-usability masks over a FaultSet.
//
// The FaultSet answers link_usable(u, c) with up to three loads from its
// dense storage, without knowing whether the link exists; the simulator
// asks once per packet-hop. The overlay flattens the answer into one 32-bit mask per
// node — bit c set iff the dimension-c link exists at u AND is usable — so
// a hop costs a single load. It is refreshed incrementally from the
// FaultSet's insertion-ordered fault vectors whenever its version moves.
// It also answers the sparse-patch question the next-hop fabric needs:
// node_clean(u) is true iff u is farther than distance 1 from every faulty
// node and has no incident marked link, i.e. every existing link of u is
// usable, so a precomputed fault-free hop can be taken with no per-link
// check at all.
//
// Concurrency contract: refresh() runs only at the simulator's serial
// points (run start and after fault-schedule application); worker threads
// read the masks between those points without synchronization.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"
#include "topology/topology.hpp"
#include "util/bitmap.hpp"

namespace gcube {

class FaultOverlay {
 public:
  /// Builds the full-link masks for `topo` (one Topology::link_mask call
  /// per node) and resets to the fault-free state with whole-word fills.
  /// The topology must outlive the overlay.
  void attach(const Topology& topo);

  /// Brings the masks up to date with `faults`. Incremental: only fault
  /// entries appended since the last refresh are applied (a generation()
  /// move — FaultSet::clear() or a repair — forces a full rebuild, since
  /// removals cannot be replayed through append cursors). No-op when the
  /// version is unchanged.
  void refresh(const FaultSet& faults);

  /// Bit c set iff the dimension-c link exists at u and is usable.
  [[nodiscard]] std::uint32_t usable_mask(NodeId u) const noexcept {
    return usable_[u];
  }
  /// Every existing link of u present in the topology (fault-independent).
  [[nodiscard]] std::uint32_t full_mask(NodeId u) const noexcept {
    return full_[u];
  }
  [[nodiscard]] bool link_usable(NodeId u, Dim c) const noexcept {
    return (usable_[u] >> c) & 1u;
  }
  /// True iff no fault touches u or any neighbor of u: all its links are
  /// usable, so fault-oblivious next hops from u are safe. Served from a
  /// dense bitmap — one load + shift on the steering hot path, instead of
  /// two mask loads and a compare.
  [[nodiscard]] bool node_clean(NodeId u) const noexcept {
    return clean_.test(u);
  }

 private:
  void apply_node(NodeId v);
  void apply_link(LinkId l);
  void rebuild(const FaultSet& faults);
  void reclean(NodeId u) noexcept {
    clean_.assign(u, usable_[u] == full_[u]);
  }

  const Topology* topo_ = nullptr;
  std::vector<std::uint32_t> full_;
  std::vector<std::uint32_t> usable_;
  NodeBitmap clean_;  // bit u == (usable_[u] == full_[u]), kept in lockstep
  // Cursors into FaultSet::faulty_nodes() / faulty_links(); entries before
  // them are already reflected in usable_.
  std::size_t nodes_seen_ = 0;
  std::size_t links_seen_ = 0;
  std::uint64_t version_seen_ = ~std::uint64_t{0};
  std::uint64_t generation_seen_ = 0;
};

}  // namespace gcube
