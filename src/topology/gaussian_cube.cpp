#include "topology/gaussian_cube.hpp"

#include "util/error.hpp"

namespace gcube {

GaussianCube::GaussianCube(Dim n, std::uint64_t modulus) : n_(n) {
  GCUBE_REQUIRE(n >= 1 && n <= kMaxDimension, "GC dimension out of range");
  GCUBE_REQUIRE(is_pow2(modulus),
                "GC modulus must be a power of two; any other modulus yields "
                "a disconnected network (paper §2)");
  const Dim a = log2_exact(modulus);
  alpha_ = a < n ? a : n;
  high_dims_mask_.assign(pow2(alpha_), 0);
  for (Dim c = alpha_; c < n_; ++c) {
    high_dims_mask_[c & low_mask(alpha_)] |= NodeId{1} << c;
  }
  link_mask_.assign(pow2(alpha_), 0);
  for (NodeId k = 0; k < link_mask_.size(); ++k) {
    for (Dim c = 0; c < n_; ++c) {
      if (has_link(k, c)) link_mask_[k] |= std::uint32_t{1} << c;
    }
  }
}

std::string GaussianCube::name() const {
  return "GC(" + std::to_string(n_) + "," + std::to_string(pow2(alpha_)) + ")";
}

std::vector<Dim> GaussianCube::high_dims(NodeId k) const {
  std::vector<Dim> out;
  NodeId mask = high_dims_mask_[k];
  while (mask != 0) {
    out.push_back(lsb_index(mask));
    mask &= mask - 1;
  }
  return out;
}

bool GaussianCube::has_link_original(Dim n, std::uint64_t modulus, NodeId u,
                                     Dim c) noexcept {
  if (c >= n) return false;
  const std::uint64_t two_c = pow2(c);
  const std::uint64_t m = two_c < modulus ? two_c : modulus;
  // Both endpoints must be congruent to c mod m; they differ only in bit c,
  // so checking u suffices when 2^c >= m, but we check both for fidelity to
  // the original definition (and correctness for any m).
  const NodeId v = flip_bit(u, c);
  return (u % m) == (c % m) && (v % m) == (c % m);
}

}  // namespace gcube
