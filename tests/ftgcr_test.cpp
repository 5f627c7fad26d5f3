// FTGCR tests — the paper's headline guarantees (§1 claims 3 & 6, Theorems
// 3 and 5):
//  * fault-free: FTGCR degenerates to the optimal FFGCR route;
//  * under any fault set passing check_ftgcr_precondition, every nonfaulty
//    pair is delivered with a route valid under the faults;
//  * in the A-only Theorem-3 regime the route is at most 2F hops longer
//    than the fault-free optimum (the paper's claim, verbatim); for B/C
//    faults the claim cannot hold as stated and the asserted envelope is
//    relative to the fault-aware optimum (see check_all_pairs);
//  * the in-cube BFS safeguard is never engaged;
//  * the planners' flat breadth-first searches pick hop-for-hop the same
//    routes as the hash-map searches they replaced (kept below as the
//    reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/categorize.hpp"
#include "fault/fault_set.hpp"
#include "fault/preconditions.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "routing/eh_embedding.hpp"
#include "routing/ffgcr.hpp"
#include "routing/freh.hpp"
#include "routing/ftgcr.hpp"
#include "routing/hypercube_ft.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/rng.hpp"

namespace gcube {
namespace {

// Hop-bound checks. The paper claims optimal + 2F; that holds verbatim in
// the A-only Theorem-3 regime (strict_2f). For B/C faults the claim cannot
// hold as stated — there are single-fault configurations where the
// *fault-aware shortest path itself* exceeds optimal + 2F (e.g. GC(5,2)
// with the 0-1 tree link cut: the true optimum between nodes 0 and 1 is 7
// hops versus a fault-free optimum of 1; even Theorem 4's own
// H + 2(F_s+F_t) + 2 is violated by the optimum). See EXPERIMENTS.md. The
// meaningful guarantee, asserted here: FTGCR stays within 2 hops per fault
// plus 6 hops per engaged EH crossing (a blocked crossing costs up to a
// displacement, two extra crossings, and a repair) of the *fault-aware*
// shortest path —
// the cost of the two-level discipline (tree itinerary + structure-confined
// detours) versus an omniscient router. Measured average excess is ~0.01
// hops per pair (bench/abl_route_overhead).
void check_all_pairs(const GaussianCube& gc, const FaultSet& faults,
                     bool strict_2f = false) {
  const FtgcrRouter router(gc, faults);
  const FfgcrRouter baseline(gc);
  const std::size_t total_faults =
      faults.node_fault_count() + faults.link_fault_count();
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    if (faults.node_faulty(s)) continue;
    const auto dist_f = bfs_distances(gc, s, [&faults](NodeId u, Dim c) {
      return faults.link_usable(u, c);
    });
    for (NodeId d = 0; d < gc.node_count(); ++d) {
      if (faults.node_faulty(d)) continue;
      FtgcrStats stats;
      const RoutingResult result = router.plan_with_stats(s, d, stats);
      ASSERT_TRUE(result.delivered()) << gc.name() << " s=" << s << " d=" << d
                                      << ": " << result.failure;
      const Route& route = *result.route;
      ASSERT_EQ(route.source(), s);
      ASSERT_EQ(route.destination(), d);
      const auto check = validate_route(gc, faults, route);
      ASSERT_TRUE(check.ok) << check.reason;
      ASSERT_FALSE(stats.used_fallback)
          << "informed legs never need the BFS safeguard";
      ASSERT_LE(route.length(), dist_f[d] + 2 * total_faults +
                                    6 * stats.freh_crossings)
          << gc.name() << " s=" << s << " d=" << d
          << " (vs fault-aware optimum " << dist_f[d] << ")";
      if (strict_2f) {
        ASSERT_LE(route.length(),
                  baseline.optimal_length(s, d) + 2 * total_faults)
            << gc.name() << " s=" << s << " d=" << d;
      }
    }
  }
}

class FtgcrGridTest : public ::testing::TestWithParam<std::tuple<Dim, Dim>> {};

TEST_P(FtgcrGridTest, FaultFreeMatchesFfgcrExactly) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  const FaultSet none;
  const FtgcrRouter ft(gc, none);
  const FfgcrRouter ff(gc);
  for (NodeId s = 0; s < gc.node_count(); ++s) {
    for (NodeId d = 0; d < gc.node_count(); ++d) {
      const auto a = ft.plan(s, d);
      const auto b = ff.plan(s, d);
      ASSERT_TRUE(a.delivered());
      ASSERT_EQ(a.route->length(), b.route->length());
      ASSERT_TRUE(a.route->is_simple());
    }
  }
}

TEST_P(FtgcrGridTest, SingleLinkFaultsExhaustive) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    for (Dim c = 0; c < n; ++c) {
      if (!gc.has_link(u, c) || bit(u, c) != 0) continue;
      FaultSet f;
      f.fail_link(u, c);
      if (!check_ftgcr_precondition(gc, f)) continue;
      check_all_pairs(gc, f);
    }
  }
}

TEST_P(FtgcrGridTest, SingleNodeFaultsExhaustive) {
  const auto [n, alpha] = GetParam();
  if (alpha > n) GTEST_SKIP();
  const GaussianCube gc(n, pow2(alpha));
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    FaultSet f;
    f.fail_node(u);
    if (!check_ftgcr_precondition(gc, f)) continue;
    check_all_pairs(gc, f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallCubes, FtgcrGridTest,
    ::testing::Combine(::testing::Values<Dim>(4, 5, 6, 7),
                       ::testing::Values<Dim>(0, 1, 2)));

TEST(Ftgcr, RandomMultiFaultCampaign) {
  Xoshiro256 rng(71);
  const std::vector<std::pair<Dim, Dim>> shapes = {
      {6, 1}, {7, 1}, {7, 2}, {8, 1}, {8, 2}};
  for (const auto& [n, alpha] : shapes) {
    const GaussianCube gc(n, pow2(alpha));
    int accepted = 0;
    for (int trial = 0; trial < 300 && accepted < 25; ++trial) {
      FaultSet f;
      const std::uint64_t budget = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < budget; ++i) {
        if (rng.chance(0.4)) {
          f.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
        } else {
          const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
          const auto c = static_cast<Dim>(rng.below(n));
          if (gc.has_link(u, c)) f.fail_link(u, c);
        }
      }
      if (f.empty() || !check_ftgcr_precondition(gc, f)) continue;
      ++accepted;
      check_all_pairs(gc, f);
    }
    EXPECT_GT(accepted, 5) << gc.name();
  }
}

TEST(Ftgcr, TheoremThreeRegimeNeverUsesFallback) {
  // A-category link faults only, under the per-GEEC limit: the paper's
  // adaptive machinery must suffice with no BFS repair.
  Xoshiro256 rng(73);
  const GaussianCube gc(9, 2);
  int accepted = 0;
  for (int trial = 0; trial < 300 && accepted < 30; ++trial) {
    FaultSet f;
    const std::uint64_t budget = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < budget; ++i) {
      const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
      const auto dims = gc.high_dims(gc.ending_class(u));
      if (dims.empty()) continue;
      f.fail_link(u, dims[rng.below(dims.size())]);
    }
    if (f.empty() || !check_theorem3(gc, f)) continue;
    ++accepted;
    check_all_pairs(gc, f, /*strict_2f=*/true);
  }
  EXPECT_GT(accepted, 10);
}

TEST(Ftgcr, FaultySourceOrDestinationRejected) {
  const GaussianCube gc(6, 2);
  FaultSet f;
  f.fail_node(5);
  const FtgcrRouter router(gc, f);
  EXPECT_FALSE(router.plan(5, 9).delivered());
  EXPECT_FALSE(router.plan(9, 5).delivered());
}

TEST(Ftgcr, ReportsHonestFailureWhenPreconditionViolated) {
  // Class 1 of GC(5, 4) has no hypercube dimensions; kill the only tree
  // link between two specific classes' lanes and routing must fail rather
  // than lie.
  const GaussianCube gc(5, 4);
  FaultSet f;
  f.fail_node(0b00001);  // B-category fault in a dimensionless class
  ASSERT_FALSE(check_ftgcr_precondition(gc, f));
  const FtgcrRouter router(gc, f);
  // A pair whose itinerary must pass class 1's faulty lane.
  const auto result = router.plan(0b00000, 0b00011);
  if (result.delivered()) {
    // If a route was found it must still be valid.
    EXPECT_TRUE(validate_route(gc, f, *result.route).ok);
  } else {
    EXPECT_FALSE(result.failure.empty());
  }
}

TEST(Ftgcr, RouteLengthDegradesGracefullyWithFaults) {
  // Average route overhead grows with the number of faults but stays within
  // the 2F bound (claim 3). Aggregate check over random pairs.
  const GaussianCube gc(9, 2);
  Xoshiro256 rng(79);
  const FfgcrRouter baseline(gc);
  for (std::size_t num_faults : {1u, 2u, 3u}) {
    FaultSet f;
    int guard = 0;
    do {
      f.clear();
      while (f.node_fault_count() < num_faults) {
        f.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
      }
    } while (!check_ftgcr_precondition(gc, f) && ++guard < 200);
    ASSERT_TRUE(check_ftgcr_precondition(gc, f));
    const FtgcrRouter router(gc, f);
    for (int i = 0; i < 300; ++i) {
      NodeId s, d;
      do {
        s = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (f.node_faulty(s));
      do {
        d = static_cast<NodeId>(rng.below(gc.node_count()));
      } while (f.node_faulty(d));
      FtgcrStats stats;
      const auto result = router.plan_with_stats(s, d, stats);
      ASSERT_TRUE(result.delivered());
      const auto dist_f = bfs_distances(gc, s, [&f](NodeId u, Dim c) {
        return f.link_usable(u, c);
      });
      ASSERT_LE(result.route->length(),
                dist_f[d] + 2 * num_faults + 6 * stats.freh_crossings);
    }
  }
}

// --- Route identity against the hash-based searches ------------------------
//
// The planners' searches (global_bfs, the subcube BFS behind
// adaptive_subcube_route's safeguard, informed_subcube_route and
// informed_eh_route) run on a flat thread-local scratch. The reference
// versions below are the std::unordered_map + std::deque searches they
// replaced, verbatim in order and tie-breaking; every converted planner must
// reproduce them hop for hop.
namespace ref {

/// First-discovered path from start to dest; `links(u)` lists the usable
/// dimensions at u in the order the search scans them.
template <typename Links>
std::optional<std::vector<Dim>> bfs_path(NodeId start, NodeId dest,
                                         Links links) {
  if (start == dest) return std::vector<Dim>{};
  std::unordered_map<NodeId, std::pair<NodeId, Dim>> prev;
  std::deque<NodeId> queue{start};
  prev.emplace(start, std::make_pair(start, Dim{0}));
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const Dim c : links(u)) {
      const NodeId v = flip_bit(u, c);
      if (prev.contains(v)) continue;
      prev.emplace(v, std::make_pair(u, c));
      if (v == dest) {
        std::vector<Dim> hops;
        for (NodeId w = dest; w != start;) {
          const auto& [from, dim] = prev.at(w);
          hops.push_back(dim);
          w = from;
        }
        std::reverse(hops.begin(), hops.end());
        return hops;
      }
      queue.push_back(v);
    }
  }
  return std::nullopt;
}

/// Hop distances to `dest` over the links `links` lists.
template <typename Links>
std::unordered_map<NodeId, std::uint32_t> bfs_dist(NodeId dest, Links links) {
  std::unordered_map<NodeId, std::uint32_t> dist;
  std::deque<NodeId> queue{dest};
  dist.emplace(dest, 0);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const Dim c : links(u)) {
      const NodeId v = flip_bit(u, c);
      if (dist.emplace(v, dist.at(u) + 1).second) queue.push_back(v);
    }
  }
  return dist;
}

auto mask_links(NodeId dims_mask, const LinkUsablePredicate& usable) {
  return [dims_mask, &usable](NodeId u) {
    std::vector<Dim> out;
    for (NodeId m = dims_mask; m != 0; m &= m - 1) {
      if (usable(u, lsb_index(m))) out.push_back(lsb_index(m));
    }
    return out;
  };
}

std::optional<std::vector<Dim>> global_bfs(const GaussianCube& gc,
                                           const FaultSet& faults,
                                           NodeId start, NodeId dest) {
  return bfs_path(start, dest, [&](NodeId u) {
    std::vector<Dim> out;
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(u, c) && faults.link_usable(u, c)) out.push_back(c);
    }
    return out;
  });
}

struct FaultTally {
  std::unordered_set<std::uint64_t> seen;
  bool insert(NodeId u, Dim c) {
    const LinkId l = LinkId::of(u, c);
    return seen.insert((std::uint64_t{l.lo} << 6) | l.dim).second;
  }
};

RoutingResult adaptive_subcube_route(NodeId start, NodeId dest,
                                     NodeId dims_mask,
                                     const LinkUsablePredicate& usable,
                                     SubcubeFtStats& st) {
  st = SubcubeFtStats{};
  RoutingResult result;
  Route route(start);
  NodeId cur = start;
  NodeId masked = 0;
  Dim last_dim = kMaxDimension + 1;
  FaultTally faults_seen;
  auto note_fault = [&](NodeId u, Dim c) {
    if (faults_seen.insert(u, c)) ++st.faults_encountered;
  };
  const std::size_t budget =
      hamming(start, dest) + 2 * popcount(dims_mask) + 2;
  auto move_along = [&](Dim c) {
    route.append(c);
    cur = flip_bit(cur, c);
    last_dim = c;
  };
  while (cur != dest) {
    if (route.length() > budget) break;
    const NodeId pref = (cur ^ dest) & dims_mask;
    bool moved = false;
    bool last_dim_usable_pref = false;
    for (NodeId m = pref; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (c == last_dim) {
        last_dim_usable_pref = usable(cur, c);
        continue;
      }
      if (usable(cur, c)) {
        move_along(c);
        moved = true;
        break;
      }
      note_fault(cur, c);
    }
    if (!moved && last_dim_usable_pref) {
      move_along(last_dim);
      moved = true;
    }
    if (moved) continue;
    for (NodeId m = dims_mask & ~pref & ~masked; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (c == last_dim) continue;
      if (usable(cur, c)) {
        masked |= NodeId{1} << c;
        move_along(c);
        ++st.spare_hops;
        moved = true;
        break;
      }
      note_fault(cur, c);
    }
    if (!moved && last_dim <= kMaxDimension && usable(cur, last_dim)) {
      masked |= NodeId{1} << last_dim;
      move_along(last_dim);
      ++st.spare_hops;
      moved = true;
    }
    if (!moved) break;
  }
  result.faults_hit = st.faults_encountered;
  if (cur == dest) {
    result.route = std::move(route);
    return result;
  }
  st.used_fallback = true;
  const auto tail = bfs_path(cur, dest, mask_links(dims_mask, usable));
  if (!tail) {
    result.failure = "subcube disconnected between current node and target";
    return result;
  }
  for (const Dim c : *tail) route.append(c);
  result.route = std::move(route);
  return result;
}

RoutingResult informed_subcube_route(NodeId start, NodeId dest,
                                     NodeId dims_mask,
                                     const LinkUsablePredicate& usable,
                                     SubcubeFtStats& st) {
  st = SubcubeFtStats{};
  RoutingResult result;
  {
    Route direct(start);
    NodeId cur = start;
    bool clean = true;
    for (NodeId m = (start ^ dest) & dims_mask; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (!usable(cur, c)) {
        clean = false;
        break;
      }
      direct.append(c);
      cur = flip_bit(cur, c);
    }
    if (clean) {
      result.route = std::move(direct);
      return result;
    }
  }
  const auto dist = bfs_dist(dest, mask_links(dims_mask, usable));
  if (!dist.contains(start)) {
    result.failure = "subcube disconnected between start and destination";
    return result;
  }
  FaultTally faults_seen;
  Route route(start);
  NodeId cur = start;
  while (cur != dest) {
    Dim chosen = kMaxDimension + 1;
    const std::uint32_t here = dist.at(cur);
    for (NodeId m = dims_mask; m != 0; m &= m - 1) {
      const Dim c = lsb_index(m);
      if (!usable(cur, c)) {
        if (faults_seen.insert(cur, c)) ++st.faults_encountered;
        continue;
      }
      const auto it = dist.find(flip_bit(cur, c));
      if (it == dist.end() || it->second != here - 1) continue;
      if (chosen > kMaxDimension || (bit(cur ^ dest, c) == 1 &&
                                     bit(cur ^ dest, chosen) == 0)) {
        chosen = c;
      }
    }
    if (bit(cur ^ dest, chosen) == 0) ++st.spare_hops;
    route.append(chosen);
    cur = flip_bit(cur, chosen);
  }
  result.faults_hit = st.faults_encountered;
  result.route = std::move(route);
  return result;
}

RoutingResult informed_eh_route(const ExchangedHypercube& eh,
                                const EhFaultOracle& oracle, NodeId r,
                                NodeId d, FrehStats& st) {
  st = FrehStats{};
  RoutingResult result;
  if (oracle.node_faulty(r) || oracle.node_faulty(d)) {
    result.failure = "source or destination faulty";
    return result;
  }
  auto links = [&](NodeId u) {
    std::vector<Dim> out;
    for (Dim c = 0; c < eh.dims(); ++c) {
      if (eh.has_link(u, c) && oracle.link_usable(u, c)) out.push_back(c);
    }
    return out;
  };
  const auto dist = bfs_dist(d, links);
  if (!dist.contains(r)) {
    result.failure = "crossing structure disconnected under faults";
    return result;
  }
  Route route(r);
  NodeId cur = r;
  while (cur != d) {
    const std::uint32_t here = dist.at(cur);
    Dim chosen = kMaxDimension + 1;
    for (const Dim c : links(cur)) {
      const auto it = dist.find(flip_bit(cur, c));
      if (it != dist.end() && it->second == here - 1) {
        chosen = c;
        break;
      }
    }
    if (chosen == 0) ++st.crossings;
    route.append(chosen);
    cur = flip_bit(cur, chosen);
  }
  result.route = std::move(route);
  return result;
}

}  // namespace ref

void expect_same_result(const RoutingResult& got, const RoutingResult& want,
                        const char* what, NodeId s, NodeId d) {
  ASSERT_EQ(got.delivered(), want.delivered()) << what << " s=" << s
                                               << " d=" << d;
  EXPECT_EQ(got.failure, want.failure) << what << " s=" << s << " d=" << d;
  EXPECT_EQ(got.faults_hit, want.faults_hit) << what << " s=" << s
                                             << " d=" << d;
  if (got.delivered()) {
    EXPECT_EQ(got.route->hops(), want.route->hops())
        << what << " s=" << s << " d=" << d;
  }
}

/// `nodes` node faults plus up to `links` link marks, deliberately not
/// filtered through check_ftgcr_precondition so that some plans need the
/// FREH crossings and the global re-plan.
FaultSet identity_faults(const GaussianCube& gc, std::size_t nodes,
                         std::size_t links, Xoshiro256& rng) {
  FaultSet f;
  while (f.node_fault_count() < nodes) {
    f.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
  }
  while (f.link_fault_count() < links) {
    const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
    const auto c = static_cast<Dim>(rng.below(gc.dims()));
    if (gc.has_link(u, c)) f.fail_link(u, c);
  }
  return f;
}

/// A nonfaulty node next to a random fault — where the fault branches of
/// the planner engage.
NodeId fault_adjacent(const GaussianCube& gc, const FaultSet& faults,
                      Xoshiro256& rng) {
  for (;;) {
    const NodeId seed = faults.faulty_nodes()[rng.below(
        faults.node_fault_count())];
    const auto c = static_cast<Dim>(rng.below(gc.dims()));
    const NodeId u = flip_bit(seed, c);
    if (gc.has_link(seed, c) && !faults.node_faulty(u)) return u;
  }
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
}

struct IdentityTally {
  std::size_t global_replans = 0;
  std::size_t freh_crossings = 0;
  std::size_t adaptive_fallbacks = 0;
  std::size_t informed_detours = 0;  // informed legs off the direct path
  std::size_t eh_legs = 0;
};

/// Plans fault-adjacent pairs on random fault patterns of GC(n, 4) and
/// checks every converted search against its reference on the same
/// inputs. Returns an FNV-1a digest of every FTGCR plan (pair, outcome,
/// hops).
std::uint64_t check_route_identity(Dim n, std::uint64_t seed,
                                   IdentityTally& tally) {
  const GaussianCube gc(n, 4);
  Xoshiro256 rng(seed);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t pattern = 0; pattern < 6; ++pattern) {
    const FaultSet faults = identity_faults(gc, n + 2 * pattern, n / 2, rng);
    const FtgcrRouter router(gc, faults);
    const LinkUsablePredicate usable = [&faults](NodeId u, Dim c) {
      return faults.link_usable(u, c);
    };
    for (int trial = 0; trial < 40; ++trial) {
      const NodeId s = fault_adjacent(gc, faults, rng);
      const auto d = static_cast<NodeId>(rng.below(gc.node_count()));

      // Whole planner, pinned by digest; its global re-plan directly.
      FtgcrStats stats;
      const RoutingResult plan = router.plan_with_stats(s, d, stats);
      tally.global_replans += stats.global_replans;
      tally.freh_crossings += stats.freh_crossings;
      fnv_mix(digest, (std::uint64_t{s} << 32) | d);
      fnv_mix(digest, plan.delivered() ? plan.route->length() + 1 : 0);
      if (plan.delivered()) {
        for (const Dim c : plan.route->hops()) fnv_mix(digest, c);
      }
      if (!faults.node_faulty(d)) {
        EXPECT_EQ(global_bfs(gc, faults, s, d),
                  ref::global_bfs(gc, faults, s, d))
            << gc.name() << " s=" << s << " d=" << d;
      }

      // In-class legs: s's GEEC, a random target inside it.
      const NodeId mask = gc.high_dims_mask(gc.ending_class(s));
      const NodeId target = (s & ~mask) | (d & mask);
      SubcubeFtStats got_st, want_st;
      expect_same_result(
          informed_subcube_route(s, target, mask, usable, &got_st),
          ref::informed_subcube_route(s, target, mask, usable, want_st),
          "informed_subcube_route", s, target);
      EXPECT_EQ(got_st.spare_hops, want_st.spare_hops);
      EXPECT_EQ(got_st.faults_encountered, want_st.faults_encountered);
      tally.informed_detours += want_st.faults_encountered > 0 ? 1 : 0;
      expect_same_result(
          adaptive_subcube_route(s, target, mask, usable, &got_st),
          ref::adaptive_subcube_route(s, target, mask, usable, want_st),
          "adaptive_subcube_route", s, target);
      EXPECT_EQ(got_st.used_fallback, want_st.used_fallback);
      EXPECT_EQ(got_st.spare_hops, want_st.spare_hops);
      tally.adaptive_fallbacks += want_st.used_fallback ? 1 : 0;

      // Crossing legs: the EH structure between s's class and each tree
      // neighbor, from s to the node whose label is d's low bits.
      const NodeId p = gc.ending_class(s);
      for (Dim c = 0; c < gc.alpha(); ++c) {
        const NodeId q = gc.ending_class(flip_bit(s, c));
        if (!gc.has_link(s, c) || gc.high_dim_count(p) == 0 ||
            gc.high_dim_count(q) == 0) {
          continue;
        }
        const EhEmbedding emb(gc, p, q, s);
        const EhFaultOracle oracle{
            [&](NodeId u) { return faults.node_faulty(emb.from_eh(u)); },
            [&](NodeId u, Dim eh_dim) {
              return faults.link_usable(emb.from_eh(u), emb.to_gc_dim(eh_dim));
            }};
        const NodeId r = emb.to_eh(s);
        const NodeId t = low_bits(d, emb.eh().dims());
        FrehStats got_fs, want_fs;
        expect_same_result(
            informed_eh_route(emb.eh(), oracle, r, t, &got_fs),
            ref::informed_eh_route(emb.eh(), oracle, r, t, want_fs),
            "informed_eh_route", r, t);
        EXPECT_EQ(got_fs.crossings, want_fs.crossings);
        ++tally.eh_legs;
      }
    }
  }
  return digest;
}

TEST(FtgcrRouteIdentity, FlatSearchesMatchHashReferenceHopForHop) {
  // Digests of every sampled FTGCR plan, recorded from the hash-map
  // planner: the whole strategy, not only its searches, is unchanged.
  const std::pair<Dim, std::uint64_t> expected[] = {
      {10, 0xa84fcc286a58fe23ULL},
      {12, 0x1791b266382a7ceaULL},
      {14, 0xa1a97627c7aa90b1ULL}};
  IdentityTally tally;
  for (const auto& [n, digest] : expected) {
    EXPECT_EQ(check_route_identity(n, 0x1D3A7 + n, tally), digest)
        << "GC(" << n << ",4)";
  }
  // Non-vacuous: every converted search was exercised off its fast path.
  EXPECT_GT(tally.global_replans, 0u);
  EXPECT_GT(tally.freh_crossings, 0u);
  EXPECT_GT(tally.adaptive_fallbacks, 0u);
  EXPECT_GT(tally.informed_detours, 0u);
  EXPECT_GT(tally.eh_legs, 0u);
}

}  // namespace
}  // namespace gcube
