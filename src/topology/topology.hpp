// Topology interface.
//
// Every interconnection network in this library (binary hypercube, Gaussian
// Cube, Gaussian Graph/Tree, Exchanged Hypercube) shares one structural
// property: node labels are bit strings and every link connects two labels
// differing in exactly one bit — the link's *dimension*. A topology is
// therefore fully described by a predicate `has_link(node, dim)`, which keeps
// topologies O(1)-queryable with no stored adjacency, so simulations with
// 2^14+ nodes stay cheap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bits.hpp"

namespace gcube {

class Topology {
 public:
  virtual ~Topology() = default;

  /// Number of label bits n; dimensions are 0 .. n-1. Nodes are 0 .. 2^n - 1.
  [[nodiscard]] virtual Dim dims() const noexcept = 0;

  /// True iff node `u` has a link in dimension `c` (to node u ^ (1<<c)).
  /// The predicate is symmetric in every topology here: has_link(u, c) ==
  /// has_link(u ^ (1<<c), c). Preconditions: u < node_count(), c < dims().
  [[nodiscard]] virtual bool has_link(NodeId u, Dim c) const noexcept = 0;

  /// Every dimension in which `u` has a link, as a bitmask: bit c set iff
  /// has_link(u, c). The default asks has_link once per dimension;
  /// topologies with a closed form override it.
  [[nodiscard]] virtual std::uint32_t link_mask(NodeId u) const noexcept;

  /// Human-readable name, e.g. "GC(10,4)".
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] std::uint64_t node_count() const noexcept {
    return pow2(dims());
  }

  /// The node reached from `u` along dimension `c` (caller must have checked
  /// has_link).
  [[nodiscard]] static NodeId neighbor(NodeId u, Dim c) noexcept {
    return flip_bit(u, c);
  }

  /// All dimensions in which `u` has a link, ascending.
  [[nodiscard]] std::vector<Dim> link_dims(NodeId u) const;

  /// Node degree.
  [[nodiscard]] Dim degree(NodeId u) const;

  /// All neighbors of `u`, ascending by dimension.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId u) const;

  /// Total number of links in the network (counted once per link).
  [[nodiscard]] std::uint64_t link_count() const;
};

/// The ordinary binary hypercube H_n: every node has a link in every
/// dimension. Equals GC(n, 1) — with modulus 1 every congruence condition is
/// vacuous — and serves as the baseline topology in benchmarks.
class Hypercube final : public Topology {
 public:
  explicit Hypercube(Dim n);

  [[nodiscard]] Dim dims() const noexcept override { return n_; }
  [[nodiscard]] bool has_link(NodeId, Dim) const noexcept override {
    return true;
  }
  [[nodiscard]] std::uint32_t link_mask(NodeId) const noexcept override {
    return static_cast<std::uint32_t>(low_mask(n_));
  }
  [[nodiscard]] std::string name() const override;

 private:
  Dim n_;
};

}  // namespace gcube
