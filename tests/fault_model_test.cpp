// Fault model tests: FaultSet, A/B/C categorization (Definitions 3-5),
// N(k)/t_k closed form, and the T(GC) tolerance bound (Figure 4).
#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/categorize.hpp"
#include "fault/fault_set.hpp"
#include "fault/tolerance_bound.hpp"
#include "topology/gaussian_cube.hpp"

namespace gcube {
namespace {

TEST(FaultSet, NodeFaults) {
  FaultSet f;
  EXPECT_TRUE(f.empty());
  f.fail_node(3);
  f.fail_node(3);  // idempotent
  EXPECT_EQ(f.node_fault_count(), 1u);
  EXPECT_TRUE(f.node_faulty(3));
  EXPECT_FALSE(f.node_faulty(4));
}

TEST(FaultSet, LinkFaultsCanonicalizeEndpoints) {
  FaultSet f;
  f.fail_link(0b101, 1);  // same link as at 0b111
  EXPECT_TRUE(f.link_marked(0b101, 1));
  EXPECT_TRUE(f.link_marked(0b111, 1));
  f.fail_link(0b111, 1);  // idempotent from either end
  EXPECT_EQ(f.link_fault_count(), 1u);
}

TEST(FaultSet, LinkUsableIncludesEndpointNodes) {
  FaultSet f;
  EXPECT_TRUE(f.link_usable(0, 2));
  f.fail_node(0b100);
  EXPECT_FALSE(f.link_usable(0, 2));      // endpoint faulty
  EXPECT_TRUE(f.link_usable(0, 1));       // unrelated link fine
  f.fail_link(0, 1);
  EXPECT_FALSE(f.link_usable(0, 1));
  EXPECT_FALSE(f.link_usable(0b010, 1));  // other endpoint view
}

TEST(FaultSet, ClearResets) {
  FaultSet f;
  f.fail_node(1);
  f.fail_link(0, 0);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.link_usable(0, 0));
}

TEST(FaultSet, LinkFailAndRepairThroughEitherEndpoint) {
  FaultSet f;
  f.fail_link(0b1101, 1);  // given by the upper endpoint
  EXPECT_TRUE(f.link_marked(0b1111, 1));
  EXPECT_FALSE(f.link_usable(0b1101, 1));
  EXPECT_FALSE(f.link_marked(0b1101, 0));  // same node, other dimension
  EXPECT_FALSE(f.link_marked(0b1101, 2));
  EXPECT_TRUE(f.repair_link(0b1111, 1));  // repaired through the other end
  EXPECT_FALSE(f.link_marked(0b1101, 1));
  EXPECT_TRUE(f.link_usable(0b1111, 1));
  EXPECT_EQ(f.link_fault_count(), 0u);
  EXPECT_FALSE(f.repair_link(0b1101, 1));
}

TEST(FaultSet, IdempotentMutationsMoveVersionAndGenerationOnlyOnChange) {
  FaultSet f;
  f.fail_node(9);
  f.fail_link(4, 3);
  EXPECT_EQ(f.version(), 2u);
  EXPECT_EQ(f.generation(), 0u);
  f.fail_node(9);
  f.fail_link(0b1100, 3);  // same link from its upper endpoint
  EXPECT_EQ(f.version(), 2u);
  EXPECT_EQ(f.node_fault_count(), 1u);
  EXPECT_EQ(f.link_fault_count(), 1u);
  EXPECT_FALSE(f.repair_node(8));     // never failed
  EXPECT_FALSE(f.repair_link(4, 2));  // never marked
  EXPECT_EQ(f.version(), 2u);
  EXPECT_EQ(f.generation(), 0u);
  EXPECT_TRUE(f.repair_node(9));
  EXPECT_EQ(f.version(), 3u);
  EXPECT_EQ(f.generation(), 1u);
  EXPECT_FALSE(f.repair_node(9));
  EXPECT_TRUE(f.repair_link(4, 3));
  EXPECT_FALSE(f.repair_link(4, 3));
  EXPECT_EQ(f.version(), 4u);
  EXPECT_EQ(f.generation(), 2u);
  EXPECT_TRUE(f.empty());
  f.clear();  // nothing to discard
  EXPECT_EQ(f.version(), 4u);
  EXPECT_EQ(f.generation(), 2u);
}

TEST(FaultSet, QueriesBeyondTheGrownStorageReadFaultFree) {
  FaultSet f;
  f.fail_node(70);    // node bitmap grows to two words
  f.fail_link(5, 2);  // link masks grow to lower endpoint 1
  const NodeId far = (NodeId{1} << kMaxDimension) - 1;
  EXPECT_FALSE(f.node_faulty(128));
  EXPECT_FALSE(f.node_faulty(far));
  EXPECT_FALSE(f.link_marked(far, 0));
  EXPECT_FALSE(f.link_marked(1u << 20, 20));
  EXPECT_TRUE(f.link_usable(far, kMaxDimension - 1));
  EXPECT_FALSE(f.repair_node(far));
  EXPECT_FALSE(f.repair_link(far, 3));
  EXPECT_FALSE(f.repair_link(0, 31));  // beyond any dimension
  EXPECT_TRUE(f.node_faulty(70));
  EXPECT_TRUE(f.link_marked(1, 2));
}

TEST(FaultSet, ClearAndCopiesAnswerLikeTheOriginal) {
  FaultSet f;
  f.fail_node(3);
  f.fail_node(200);
  f.fail_link(17, 4);
  f.fail_link(6, 0);
  const FaultSet copy = f;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.faulty_nodes(), f.faulty_nodes());
  EXPECT_EQ(copy.faulty_links(), f.faulty_links());
  EXPECT_EQ(copy.version(), f.version());
  EXPECT_EQ(copy.generation(), f.generation());
  for (NodeId u = 0; u < 512; ++u) {
    EXPECT_EQ(copy.node_faulty(u), f.node_faulty(u)) << u;
    for (Dim c = 0; c < 9; ++c) {
      EXPECT_EQ(copy.link_usable(u, c), f.link_usable(u, c)) << u << "/" << c;
    }
  }
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.node_faulty(200));
  EXPECT_FALSE(f.link_marked(17, 4));
  EXPECT_TRUE(copy.node_faulty(200));  // the copy owns its storage
  EXPECT_TRUE(copy.link_marked(1, 4));
  f.fail_node(3);  // usable again after clear()
  EXPECT_TRUE(f.node_faulty(3));
  EXPECT_EQ(f.node_fault_count(), 1u);
}

TEST(FaultSet, RejectsIdsBeyondTheLabelSpace) {
  FaultSet f;
  const NodeId too_far = NodeId{1} << kMaxDimension;
  EXPECT_THROW(f.fail_node(too_far), std::invalid_argument);
  EXPECT_THROW(f.fail_node(~NodeId{0}), std::invalid_argument);
  EXPECT_THROW(f.fail_link(too_far, 0), std::invalid_argument);
  EXPECT_THROW(f.fail_link(0, kMaxDimension), std::invalid_argument);
  EXPECT_THROW(f.fail_link(0, kMaxDimension + 1), std::invalid_argument);
  EXPECT_THROW(f.fail_link(0, 40), std::invalid_argument);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.version(), 0u);
  // The top of the label space is fine: the last node, and the top
  // dimension's link given by its upper endpoint (lower endpoint 0).
  f.fail_node(too_far - 1);
  f.fail_link(NodeId{1} << (kMaxDimension - 1), kMaxDimension - 1);
  EXPECT_TRUE(f.node_faulty(too_far - 1));
  EXPECT_TRUE(f.link_marked(0, kMaxDimension - 1));
}

TEST(LinkId, HiEndpoint) {
  const LinkId l = LinkId::of(0b1011, 1);
  EXPECT_EQ(l.lo, 0b1001u);
  EXPECT_EQ(l.hi(), 0b1011u);
}

TEST(Categorize, LinkFaultsByDimension) {
  const GaussianCube gc(8, 4);  // alpha = 2
  EXPECT_EQ(categorize_link_fault(gc, 0), FaultCategory::B);
  EXPECT_EQ(categorize_link_fault(gc, 1), FaultCategory::B);
  EXPECT_EQ(categorize_link_fault(gc, 2), FaultCategory::A);
  EXPECT_EQ(categorize_link_fault(gc, 7), FaultCategory::A);
}

TEST(Categorize, NodeFaultsByClassDims) {
  // GC(5, 4): alpha = 2, classes 0..3. Dim(k) = {c in [2,4] : c ≡ k mod 4}:
  // Dim(0) = {4}, Dim(1) = {}, Dim(2) = {2}, Dim(3) = {3}.
  const GaussianCube gc(5, 4);
  EXPECT_EQ(gc.high_dim_count(1), 0u);
  EXPECT_EQ(categorize_node_fault(gc, 0b00001), FaultCategory::B);
  EXPECT_EQ(categorize_node_fault(gc, 0b00000), FaultCategory::C);
  EXPECT_EQ(categorize_node_fault(gc, 0b00010), FaultCategory::C);
}

TEST(Categorize, CountsAll) {
  const GaussianCube gc(5, 4);
  FaultSet f;
  f.fail_link(0b00000, 4);  // A (dim 4 >= alpha)
  f.fail_link(0b00000, 0);  // B (tree dim)
  f.fail_node(0b00001);     // B (class 1 has no high dims)
  f.fail_node(0b00010);     // C
  const CategoryCounts counts = categorize_all(gc, f);
  EXPECT_EQ(counts.a, 1u);
  EXPECT_EQ(counts.b, 2u);
  EXPECT_EQ(counts.c, 1u);
  EXPECT_EQ(counts.total(), 4u);
  EXPECT_FALSE(counts.only_a());
}

TEST(Categorize, ToString) {
  EXPECT_EQ(to_string(FaultCategory::A), "A");
  EXPECT_EQ(to_string(FaultCategory::B), "B");
  EXPECT_EQ(to_string(FaultCategory::C), "C");
}

// The closed-form t_k must equal |Dim(k)| by direct enumeration — this is
// the OCR-reconstructed formula of Theorem 3 / Figure 4.
class TkFormulaTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(TkFormulaTest, ClosedFormMatchesEnumeration) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  for (NodeId k = 0; k < gc.class_count(); ++k) {
    EXPECT_EQ(t_k_closed_form(n, alpha, k), gc.high_dim_count(k))
        << "n=" << n << " alpha=" << alpha << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TkFormulaTest,
    ::testing::Combine(::testing::Values<Dim>(2, 3, 5, 8, 11, 14, 20),
                       ::testing::Values<Dim>(0, 1, 2, 3, 4)));

TEST(ToleranceBound, HypercubeCase) {
  // alpha = 0: one class, t_0 = n, a single GEEC (the whole cube), which
  // tolerates n - 1 faults.
  for (const Dim n : {3u, 5u, 8u}) {
    EXPECT_EQ(max_tolerable_faults(n, 0), n - 1);
  }
}

TEST(ToleranceBound, MatchesPerGeecSum) {
  // Independent recomputation: sum over classes of
  // (#GEECs) * (t_k - 1), using the topology's own Dim(k).
  for (const Dim n : {6u, 9u, 12u}) {
    for (const Dim a : {1u, 2u, 3u}) {
      const GaussianCube gc(n, pow2(a));
      std::uint64_t expected = 0;
      for (NodeId k = 0; k < gc.class_count(); ++k) {
        const Dim tk = gc.high_dim_count(k);
        if (tk >= 1) {
          expected += (pow2(n - a) / pow2(tk)) * (tk - 1);
        }
      }
      EXPECT_EQ(max_tolerable_faults(gc), expected)
          << "n=" << n << " alpha=" << a;
    }
  }
}

TEST(ToleranceBound, GrowsWithDimension) {
  // Figure 4's dominant trend: log2 T grows steadily with n at fixed alpha.
  for (const Dim a : {1u, 2u, 3u, 4u}) {
    std::uint64_t prev = 0;
    for (Dim n = a + 4; n <= 20; ++n) {
      const std::uint64_t t = max_tolerable_faults(n, a);
      EXPECT_GE(t, prev) << "n=" << n << " alpha=" << a;
      prev = t;
    }
  }
}

TEST(ToleranceBound, AlphaTradeoff) {
  // Across alpha the bound is NOT monotone: larger alpha means more,
  // smaller GEECs — each tolerates fewer faults but there are more of
  // them, and for large n the count wins. Pin the tradeoff down at both
  // ends (measured behavior; EXPERIMENTS.md discusses the shape).
  EXPECT_GT(max_tolerable_faults(20, 2), max_tolerable_faults(20, 1));
  EXPECT_GT(max_tolerable_faults(20, 3), max_tolerable_faults(20, 2));
  // For small n the dilution wins: fewer usable dimensions per class.
  EXPECT_LT(max_tolerable_faults(6, 3), max_tolerable_faults(6, 1));
}

TEST(ToleranceBound, Log2Helper) {
  EXPECT_DOUBLE_EQ(log2_max_tolerable_faults(3, 0), 1.0);  // T = 2
  EXPECT_DOUBLE_EQ(log2_max_tolerable_faults(1, 1), -1.0);  // T = 0
}

TEST(ToleranceBound, RejectsInvalidParameters) {
  EXPECT_THROW((void)max_tolerable_faults(3, 4), std::invalid_argument);
}

}  // namespace
}  // namespace gcube
