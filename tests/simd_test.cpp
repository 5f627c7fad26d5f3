// SIMD kernel property tests.
//
// Each vectorized hot-path kernel has a scalar reference it must match
// BIT-FOR-BIT at every dispatch level the CPU supports — the tentpole
// contract that lets sim_cli --simd=<level> reproduce identical metrics.
// The determinism suite enforces this end to end through whole simulation
// runs; these tests pin each kernel in isolation on randomized inputs, so
// a lane-ordering or tail-handling bug names the kernel that broke
// instead of surfacing as a diverged histogram three layers up:
//
//  * counter_keys — batched counter_key(seed, node, cycle) derivation;
//  * counter_bernoulli_mask — the exact-integer-threshold Bernoulli scan,
//    including the rate edge cases (0, 1, subnormal-small, NaN) where the
//    float-compare-to-integer-compare rewrite is easiest to get wrong;
//  * NextHopFabric::fault_free_hops — gathered table lookups vs the
//    scalar per-element hop, across shapes with alpha 1..3 (both the
//    pending-dimension branch and the folded tree-edge branch).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "routing/next_hop_table.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace gcube {
namespace {

/// Levels this CPU can execute; levels above detected would clamp inside
/// the dispatcher and silently re-test a lower kernel.
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kSse) {
    levels.push_back(SimdLevel::kSse);
  }
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

TEST(SimdKernels, CounterKeysMatchScalarDerivation) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 16; ++trial) {
    const std::uint64_t seed = rng();
    const std::uint64_t cycle = rng() >> (trial % 40);
    // 67 = two full 32-lane sweeps plus a 3-wide tail.
    std::vector<std::uint32_t> nodes(67);
    for (auto& u : nodes) {
      u = static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 26));
    }
    std::vector<std::uint64_t> want(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      want[i] = counter_key(seed, nodes[i], cycle);
    }
    for (const SimdLevel level : available_levels()) {
      std::vector<std::uint64_t> got(nodes.size(), 0);
      counter_keys(level, seed, cycle, nodes.data(), nodes.size(),
                   got.data());
      EXPECT_EQ(got, want) << "trial " << trial << " level "
                           << to_string(level);
    }
  }
}

TEST(SimdKernels, BernoulliMaskMatchesScalarDraws) {
  const double rates[] = {0.0,   1e-18, 1e-9, 0.02, 0.05,
                          0.375, 0.5,   0.97, 1.0,  std::nan("")};
  Xoshiro256 rng(11);
  for (const double rate : rates) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::uint64_t seed = rng();
      const std::uint64_t cycle = rng() >> 30;
      const auto base = static_cast<std::uint32_t>(rng.below(1u << 20)) * 64u;
      const unsigned count =
          (trial % 2 != 0) ? 64u : 1u + static_cast<unsigned>(trial) * 9u;
      std::uint64_t want = 0;
      for (unsigned i = 0; i < count; ++i) {
        CounterRng draw(counter_key(seed, base + i, cycle));
        if (draw.chance(rate)) want |= std::uint64_t{1} << i;
      }
      for (const SimdLevel level : available_levels()) {
        const std::uint64_t got =
            counter_bernoulli_mask(level, seed, cycle, base, count, rate);
        EXPECT_EQ(got, want)
            << "rate " << rate << " count " << count << " level "
            << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, FaultFreeHopsMatchScalarPerElement) {
  // alpha 1, 2, 3: the three table shapes (alpha 3 = deepest subset fold).
  const std::pair<Dim, std::uint64_t> shapes[] = {{8, 2}, {10, 4}, {12, 8}};
  for (const auto& [n, modulus] : shapes) {
    const GaussianCube gc(n, modulus);
    const NextHopFabric fabric(gc);
    ASSERT_TRUE(fabric.supported()) << gc.name();
    Xoshiro256 rng(31 + n);
    // 61 pairs: 7 full AVX2 groups + a 5-wide scalar tail.
    std::vector<NodeId> cur;
    std::vector<NodeId> dst;
    while (cur.size() < 61) {
      const auto s = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto d = static_cast<NodeId>(rng.below(gc.node_count()));
      if (s == d) continue;
      cur.push_back(s);
      dst.push_back(d);
    }
    std::vector<Dim> want(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      want[i] = fabric.fault_free_hop(cur[i], dst[i]);
    }
    for (const SimdLevel level : available_levels()) {
      std::vector<Dim> got(cur.size(), 0xFF);
      fabric.fault_free_hops(level, cur.size(), cur.data(), dst.data(),
                             got.data());
      EXPECT_EQ(got, want) << gc.name() << " level " << to_string(level);
    }
  }
}

TEST(SimdDispatch, ParseAndClampSemantics) {
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("sse"), SimdLevel::kSse);
  EXPECT_EQ(parse_simd_level("sse4.2"), SimdLevel::kSse);
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("avx512"), std::nullopt);
  EXPECT_EQ(parse_simd_level(""), std::nullopt);
  const SimdLevel entry = simd_level();
  // Requests above the detected level clamp instead of crashing; requests
  // at or below stick exactly.
  set_simd_level(SimdLevel::kAvx2);
  EXPECT_LE(simd_level(), detected_simd_level());
  set_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(simd_level(), SimdLevel::kScalar);
  set_simd_level(entry);
  EXPECT_EQ(simd_level(), entry);
  EXPECT_STREQ(to_string(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(to_string(SimdLevel::kSse), "sse");
  EXPECT_STREQ(to_string(SimdLevel::kAvx2), "avx2");
}

}  // namespace
}  // namespace gcube
