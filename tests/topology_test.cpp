// Topology tests: binary hypercube, Gaussian Cube GC(n, M) (paper §2).
//
// Highlights:
//  * Theorem 1's local link rule agrees with the original congruence
//    definition for every node, dimension, and power-of-two modulus;
//  * non-power-of-two moduli decompose the network into disconnected
//    subnetworks (the reason the paper restricts M to powers of two);
//  * GC(n, 1) is exactly the binary hypercube;
//  * Dim(k), GEEC masks, and class structure behave as Definition 2/6 says.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <tuple>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "topology/gaussian_cube.hpp"
#include "topology/topology.hpp"

namespace gcube {
namespace {

TEST(Hypercube, BasicProperties) {
  const Hypercube h(4);
  EXPECT_EQ(h.dims(), 4u);
  EXPECT_EQ(h.node_count(), 16u);
  EXPECT_EQ(h.name(), "H_4");
  for (NodeId u = 0; u < 16; ++u) {
    EXPECT_EQ(h.degree(u), 4u);
  }
  EXPECT_EQ(h.link_count(), 32u);  // n * 2^(n-1)
}

TEST(Hypercube, RejectsBadDimension) {
  EXPECT_THROW(Hypercube(0), std::invalid_argument);
  EXPECT_THROW(Hypercube(kMaxDimension + 1), std::invalid_argument);
}

TEST(Hypercube, NeighborsFlipOneBit) {
  const Hypercube h(3);
  const auto nb = h.neighbors(0b101);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0b100u);
  EXPECT_EQ(nb[1], 0b111u);
  EXPECT_EQ(nb[2], 0b001u);
}

TEST(GaussianCube, RejectsNonPowerOfTwoModulus) {
  EXPECT_THROW(GaussianCube(6, 3), std::invalid_argument);
  EXPECT_THROW(GaussianCube(6, 12), std::invalid_argument);
  EXPECT_THROW(GaussianCube(6, 0), std::invalid_argument);
}

TEST(GaussianCube, AlphaClampsToN) {
  const GaussianCube gc(3, 1024);  // M = 2^10 > 2^3
  EXPECT_EQ(gc.alpha(), 3u);
  EXPECT_EQ(gc.modulus(), 8u);
}

TEST(GaussianCube, ModulusOneIsHypercube) {
  const GaussianCube gc(5, 1);
  const Hypercube h(5);
  EXPECT_EQ(gc.alpha(), 0u);
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = 0; c < 5; ++c) {
      EXPECT_TRUE(gc.has_link(u, c)) << "u=" << u << " c=" << c;
    }
  }
  EXPECT_EQ(gc.link_count(), h.link_count());
}

// Theorem 1: the local rule matches the original congruence definition for
// all power-of-two moduli.
class GcTheorem1Test : public ::testing::TestWithParam<std::tuple<Dim, int>> {
};

TEST_P(GcTheorem1Test, LocalRuleMatchesOriginalDefinition) {
  const auto [n, alpha_exp] = GetParam();
  const std::uint64_t modulus = pow2(static_cast<Dim>(alpha_exp));
  const GaussianCube gc(n, modulus);
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = 0; c < n; ++c) {
      EXPECT_EQ(gc.has_link(u, c),
                GaussianCube::has_link_original(n, modulus, u, c))
          << "n=" << n << " M=" << modulus << " u=" << u << " c=" << c;
      // The class link-mask table answers the same question per node.
      EXPECT_EQ(bit(gc.link_mask(u), c) == 1, gc.has_link(u, c))
          << "n=" << n << " M=" << modulus << " u=" << u << " c=" << c;
    }
    EXPECT_EQ(gc.link_mask(u) & ~low_mask(n), 0u) << "no links beyond n";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallCubes, GcTheorem1Test,
    ::testing::Combine(::testing::Values<Dim>(2, 3, 4, 5, 6, 7, 8, 9),
                       ::testing::Values(0, 1, 2, 3)));

TEST(GaussianCube, EveryNodeHasDimensionZeroLink) {
  for (const Dim n : {4u, 6u, 8u}) {
    for (const std::uint64_t m : {1u, 2u, 4u, 8u}) {
      const GaussianCube gc(n, m);
      for (NodeId u = 0; u < gc.node_count(); ++u) {
        EXPECT_TRUE(gc.has_link(u, 0));
      }
    }
  }
}

TEST(GaussianCube, LinkRuleIsSymmetric) {
  const GaussianCube gc(8, 4);
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = 0; c < 8; ++c) {
      EXPECT_EQ(gc.has_link(u, c), gc.has_link(flip_bit(u, c), c));
    }
  }
}

TEST(GaussianCube, PowerOfTwoModulusIsConnected) {
  for (const Dim n : {4u, 6u, 8u}) {
    for (const std::uint64_t m : {1u, 2u, 4u}) {
      const GaussianCube gc(n, m);
      EXPECT_TRUE(is_connected(Graph(gc))) << gc.name();
    }
  }
}

// Paper §2: a non-power-of-two modulus leaves no link in any dimension
// c > floor(log2 M), so the network splits into exactly
// 2^(n - 1 - floor(log2 M)) disconnected subnetworks (one per combination
// of the untouched top bits).
TEST(GaussianCube, NonPowerOfTwoModulusDecomposesExactly) {
  for (const Dim n : {5u, 6u, 7u}) {
    for (const std::uint64_t m : {3u, 5u, 6u, 7u, 12u}) {
      Graph g(pow2(n));
      for (NodeId u = 0; u < g.node_count(); ++u) {
        for (Dim c = 0; c < n; ++c) {
          const NodeId v = flip_bit(u, c);
          if (u < v && GaussianCube::has_link_original(n, m, u, c)) {
            g.add_edge(u, v);
          }
        }
      }
      EXPECT_FALSE(GaussianCube::is_connected_modulus(m));
      const Dim top_bits = n - 1 - log2_exact(std::bit_floor(m));
      EXPECT_EQ(component_count(g), pow2(top_bits))
          << "n=" << n << " M=" << m;
    }
  }
}

TEST(GaussianCube, EndingClassIsLowBits) {
  const GaussianCube gc(8, 4);  // alpha = 2
  EXPECT_EQ(gc.class_count(), 4u);
  EXPECT_EQ(gc.ending_class(0b10110111), 0b11u);
  EXPECT_EQ(gc.ending_class(0b10110100), 0b00u);
}

TEST(GaussianCube, HighDimsMatchCongruence) {
  for (const Dim n : {5u, 8u, 11u}) {
    for (const Dim a : {1u, 2u, 3u}) {
      const GaussianCube gc(n, pow2(a));
      for (NodeId k = 0; k < gc.class_count(); ++k) {
        const auto dims = gc.high_dims(k);
        EXPECT_EQ(dims.size(), gc.high_dim_count(k));
        NodeId mask = 0;
        for (const Dim c : dims) {
          EXPECT_GE(c, a);
          EXPECT_LT(c, n);
          EXPECT_EQ(c & low_mask(a), k);
          mask |= NodeId{1} << c;
        }
        EXPECT_EQ(mask, gc.high_dims_mask(k));
      }
    }
  }
}

TEST(GaussianCube, HighDimsPartitionHighDimensions) {
  const GaussianCube gc(11, 4);
  NodeId all = 0;
  for (NodeId k = 0; k < gc.class_count(); ++k) {
    EXPECT_EQ(all & gc.high_dims_mask(k), 0u) << "classes must not overlap";
    all |= gc.high_dims_mask(k);
  }
  EXPECT_EQ(all, low_mask(11) & ~low_mask(2));
}

TEST(GaussianCube, HighDimLinksStayInClass) {
  const GaussianCube gc(9, 4);
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = gc.alpha(); c < gc.dims(); ++c) {
      if (!gc.has_link(u, c)) continue;
      EXPECT_EQ(gc.ending_class(u), gc.ending_class(flip_bit(u, c)));
      EXPECT_EQ(gc.ending_class(u), c & low_mask(gc.alpha()))
          << "a high link exists only at the class owning its dimension";
    }
  }
}

TEST(GaussianCube, GeecKeyConstantWithinGeecAndSizeIsPow2Dim) {
  const GaussianCube gc(9, 4);
  // Nodes with equal (class, key) form hypercubes of dimension |Dim(k)|:
  // count group sizes.
  std::map<std::pair<NodeId, NodeId>, std::size_t> sizes;
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    ++sizes[{gc.ending_class(u), gc.geec_key(u)}];
  }
  for (const auto& [id, size] : sizes) {
    EXPECT_EQ(size, pow2(gc.high_dim_count(id.first)));
  }
}

TEST(GaussianCube, GeecIsConnectedHypercube) {
  const GaussianCube gc(8, 2);
  // Every high-dimension link connects two nodes of the same GEEC, and
  // within a GEEC every Dim(k) link exists.
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    const NodeId k = gc.ending_class(u);
    for (NodeId m = gc.high_dims_mask(k); m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      ASSERT_TRUE(gc.has_link(u, c));
      EXPECT_EQ(gc.geec_key(u), gc.geec_key(flip_bit(u, c)));
    }
  }
}

TEST(GaussianCube, NameFormatting) {
  EXPECT_EQ(GaussianCube(10, 4).name(), "GC(10,4)");
  EXPECT_EQ(GaussianCube(6, 1).name(), "GC(6,1)");
}

TEST(GaussianCube, DegreeAccounting) {
  // Each node: 1 (dim 0) + links in tree dims + |Dim(class)|.
  const GaussianCube gc(8, 4);
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    Dim expected = 0;
    for (Dim c = 0; c < 8; ++c) expected += gc.has_link(u, c);
    EXPECT_EQ(gc.degree(u), expected);
    EXPECT_GE(gc.degree(u), 1u);  // dimension 0 always present
  }
}

// Link dilution: GC(n, M) has far fewer links than H_n for M > 1, and the
// count decreases as M grows (the paper's motivation for scaling density).
TEST(GaussianCube, LinkDilutionMonotoneInModulus) {
  const Dim n = 10;
  std::uint64_t prev = Hypercube(n).link_count();
  for (const std::uint64_t m : {2u, 4u, 8u}) {
    const std::uint64_t links = GaussianCube(n, m).link_count();
    EXPECT_LT(links, prev) << "M=" << m;
    prev = links;
  }
}

}  // namespace
}  // namespace gcube
