#include "topology/topology.hpp"

#include "util/error.hpp"

namespace gcube {

std::vector<Dim> Topology::link_dims(NodeId u) const {
  std::vector<Dim> out;
  const Dim n = dims();
  out.reserve(n);
  for (Dim c = 0; c < n; ++c) {
    if (has_link(u, c)) out.push_back(c);
  }
  return out;
}

std::uint32_t Topology::link_mask(NodeId u) const noexcept {
  static_assert(kMaxDimension <= 32, "a link mask is one 32-bit word");
  std::uint32_t mask = 0;
  const Dim n = dims();
  for (Dim c = 0; c < n; ++c) {
    if (has_link(u, c)) mask |= std::uint32_t{1} << c;
  }
  return mask;
}

Dim Topology::degree(NodeId u) const {
  Dim deg = 0;
  const Dim n = dims();
  for (Dim c = 0; c < n; ++c) {
    if (has_link(u, c)) ++deg;
  }
  return deg;
}

std::vector<NodeId> Topology::neighbors(NodeId u) const {
  std::vector<NodeId> out;
  const Dim n = dims();
  out.reserve(n);
  for (Dim c = 0; c < n; ++c) {
    if (has_link(u, c)) out.push_back(neighbor(u, c));
  }
  return out;
}

std::uint64_t Topology::link_count() const {
  std::uint64_t twice = 0;
  const std::uint64_t nodes = node_count();
  for (std::uint64_t u = 0; u < nodes; ++u) {
    twice += degree(static_cast<NodeId>(u));
  }
  return twice / 2;
}

Hypercube::Hypercube(Dim n) : n_(n) {
  GCUBE_REQUIRE(n >= 1 && n <= kMaxDimension, "hypercube dimension out of range");
}

std::string Hypercube::name() const { return "H_" + std::to_string(n_); }

}  // namespace gcube
