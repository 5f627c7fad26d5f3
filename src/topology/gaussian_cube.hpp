// Gaussian Cube GC(n, M) — the paper's subject topology (its §2).
//
// GC(n, M) has 2^n nodes with n-bit labels. In the original definition,
// nodes p and p ^ (1<<c) are linked iff p ≡ c (mod M') with
// M' = min(2^c, M). The paper shows M must effectively be a power of two:
// for any other M the network decomposes into disconnected subnetworks each
// isomorphic to a smaller power-of-two GC (see is_connected_modulus and the
// topology tests). This class therefore requires M = 2^alpha and exposes the
// paper's equivalent local rule (Theorem 1):
//
//   has_link(p, c)  <=>  p mod 2^m == c mod 2^m,  m = min(c, alpha)
//
// which specializes to: every node has a dimension-0 link; for c in [1,alpha]
// the low c bits of p must equal c; for c > alpha the low alpha bits of p
// must equal c mod 2^alpha.
//
// The two-level structure the routing strategy exploits:
//  * ending class EC(k) = nodes whose low alpha bits equal k (paper Def. 2);
//    classes are the vertices of the Gaussian Tree T_alpha, and links in
//    dimensions < alpha are exactly the tree edges between classes;
//  * inside EC(k) only dimensions Dim(k) = {c in [alpha, n-1] : c ≡ k
//    (mod 2^alpha)} carry links, and EC(k) splits into disjoint binary
//    hypercubes GEEC(k, t) of dimension |Dim(k)| (paper Def. 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.hpp"
#include "util/bits.hpp"

namespace gcube {

class GaussianCube final : public Topology {
 public:
  /// Constructs GC(n, M). Requires 1 <= n <= kMaxDimension and M a power of
  /// two (throws std::invalid_argument otherwise — use is_connected_modulus
  /// to screen). M > 2^n is equivalent to M = 2^n and is clamped.
  GaussianCube(Dim n, std::uint64_t modulus);

  [[nodiscard]] Dim dims() const noexcept override { return n_; }
  [[nodiscard]] bool has_link(NodeId u, Dim c) const noexcept override {
    const Dim m = c < alpha_ ? c : alpha_;
    return low_bits(u, m) == (c & low_mask(m));
  }
  [[nodiscard]] std::string name() const override;

  /// Every dimension in which u has a link, as a bitmask (bit c set iff
  /// has_link(u, c)). Link existence depends only on the low alpha bits, so
  /// this is one lookup in a 2^alpha-entry table.
  [[nodiscard]] std::uint32_t link_mask(NodeId u) const noexcept override {
    return link_mask_[low_bits(u, alpha_)];
  }

  /// alpha = log2(M), clamped to n.
  [[nodiscard]] Dim alpha() const noexcept { return alpha_; }
  /// The (clamped) modulus M = 2^alpha.
  [[nodiscard]] std::uint64_t modulus() const noexcept { return pow2(alpha_); }

  /// Number of ending classes, 2^alpha.
  [[nodiscard]] std::uint32_t class_count() const noexcept {
    return static_cast<std::uint32_t>(pow2(alpha_));
  }

  /// The ending class of node u: its low alpha bits (a vertex of T_alpha).
  [[nodiscard]] NodeId ending_class(NodeId u) const noexcept {
    return low_bits(u, alpha_);
  }

  /// Dim(k) as a bitmask over label bits: bit c set iff c in [alpha, n-1]
  /// and c ≡ k (mod 2^alpha). Precondition: k < class_count().
  [[nodiscard]] NodeId high_dims_mask(NodeId k) const noexcept {
    return high_dims_mask_[k];
  }

  /// Dim(k) as an ascending list of dimensions.
  [[nodiscard]] std::vector<Dim> high_dims(NodeId k) const;

  /// |Dim(k)| — the dimension of every GEEC hypercube of class k. This is
  /// the paper's N(k) (Theorem 3) and t_k (Figure 4).
  [[nodiscard]] Dim high_dim_count(NodeId k) const noexcept {
    return popcount(high_dims_mask_[k]);
  }

  /// Bits that identify which GEEC hypercube of its class a node lies in:
  /// everything outside the low alpha bits and outside Dim(k).
  [[nodiscard]] NodeId geec_fixed_mask(NodeId k) const noexcept {
    return low_bits(~(low_mask(alpha_) | high_dims_mask_[k]), n_);
  }

  /// Canonical GEEC identifier of node u: two nodes are in the same GEEC
  /// hypercube iff they are in the same ending class and have equal keys.
  [[nodiscard]] NodeId geec_key(NodeId u) const noexcept {
    return u & geec_fixed_mask(ending_class(u));
  }

  /// The original congruence-based link rule for arbitrary modulus (no
  /// power-of-two requirement). Used to cross-validate Theorem 1 and to
  /// demonstrate the decomposition for non-power-of-two M.
  [[nodiscard]] static bool has_link_original(Dim n, std::uint64_t modulus,
                                              NodeId u, Dim c) noexcept;

  /// True iff GC(n, modulus) is connected, i.e. modulus is 1 or a power of
  /// two (paper §2: any other modulus splits the network).
  [[nodiscard]] static bool is_connected_modulus(std::uint64_t modulus) noexcept {
    return is_pow2(modulus);
  }

 private:
  Dim n_;
  Dim alpha_;
  std::vector<NodeId> high_dims_mask_;  // indexed by ending class
  std::vector<std::uint32_t> link_mask_;  // indexed by ending class
};

}  // namespace gcube
