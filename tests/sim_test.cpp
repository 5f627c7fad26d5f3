// Simulator tests: determinism, conservation, queueing sanity, traffic,
// metrics arithmetic, dynamic-fault mode, and the parallel sweep helper.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/ecube.hpp"
#include "routing/ffgcr.hpp"
#include "routing/ftgcr.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "sim/traffic.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/simd.hpp"

namespace gcube {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GCUBE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GCUBE_TEST_SANITIZED 1
#endif
#endif

/// This process's peak resident set in bytes (VmHWM in /proc/self/status),
/// or 0 where the field does not exist. VmHWM starts afresh at exec, unlike
/// getrusage's ru_maxrss, which a child inherits from its parent.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

// Simulator state must be sized by the network, not by the run: the same
// cell run 30x longer may not raise the process's peak resident set by
// more than a small allowance. Placed first in the file so that a run of
// the whole binary measures it before other tests raise the peak (ctest
// runs every case in a process of its own).
TEST(NetworkSimMemory, PeakResidentSetDoesNotGrowWithRunLength) {
#ifdef GCUBE_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators quarantine freed memory";
#endif
  if (peak_rss_bytes() == 0) GTEST_SKIP() << "VmHWM is not available";
  GcSimSpec spec;
  spec.n = 12;
  spec.modulus = 4;
  spec.sim.injection_rate = 0.05;
  spec.sim.warmup_cycles = 0;
  spec.sim.threads = 1;
  spec.sim.measure_cycles = 300;
  ASSERT_GT(run_gc_simulation(spec).metrics.delivered, 0u);
  const std::uint64_t short_peak = peak_rss_bytes();
  spec.sim.measure_cycles = 9000;
  ASSERT_GT(run_gc_simulation(spec).metrics.delivered, 0u);
  const std::uint64_t long_peak = peak_rss_bytes();
  EXPECT_LT(long_peak - short_peak, std::uint64_t{2} << 20)
      << "peak RSS " << short_peak << " B after 300 cycles, " << long_peak
      << " B after 9000";
}

SimConfig quick_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.seed = 99;
  return cfg;
}

TEST(NetworkSim, DeterministicForFixedSeed) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  NetworkSim sim1(gc, router, none, quick_config());
  NetworkSim sim2(gc, router, none, quick_config());
  const SimMetrics a = sim1.run();
  const SimMetrics b = sim2.run();
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.total_hops, b.total_hops);
}

TEST(NetworkSim, RerouteHopLimitBeyondTheRecordHopFieldIsRefused) {
  // Packet records count hops in 16 bits and the livelock guard bounds
  // every online-routed packet's count, so the guard must fit them.
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg = quick_config();
  cfg.reroute_hop_limit = 65536;
  try {
    NetworkSim sim(gc, router, none, cfg);
    FAIL() << "a hop limit above 65535 must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos)
        << e.what();
  }
  cfg.reroute_hop_limit = 65535;
  EXPECT_NO_THROW(NetworkSim(gc, router, none, cfg));
}

/// A router whose every plan is `length` hops along dimension 0 (a route
/// that never arrives, which only matters to the hop-count bound).
class LongPlanRouter final : public Router {
 public:
  explicit LongPlanRouter(std::size_t length) : length_(length) {}
  [[nodiscard]] RoutingResult plan(NodeId s, NodeId) const override {
    RoutingResult r;
    r.route = Route(s, std::vector<Dim>(length_, 0));
    return r;
  }
  [[nodiscard]] std::string name() const override { return "long-plan"; }

 private:
  std::size_t length_;
};

TEST(NetworkSim, RouterPlanBeyondTheRecordHopFieldIsRefused) {
  // A planned packet's hop count runs up to its plan's length: a plan of
  // 65536 hops is refused by name at injection instead of wrapping the
  // record's 16-bit count; 65535 hops still fit.
  const Hypercube cube(4);
  const FaultSet none;
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.5;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 3;
  cfg.threads = 1;
  const LongPlanRouter too_long(65536);
  try {
    (void)NetworkSim(cube, too_long, none, cfg).run();
    FAIL() << "a 65536-hop plan must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65535 hops"), std::string::npos)
        << e.what();
  }
  const LongPlanRouter longest(65535);
  const SimMetrics m = NetworkSim(cube, longest, none, cfg).run();
  EXPECT_GT(m.generated, 0u);
}

TEST(NetworkSim, RunBeyondTheFireKeyCycleRangeIsRefused) {
  // Far-heap injection fires are keyed (cycle << 26) | node, so a run of
  // 2^38 cycles or more is refused when the simulator is built, before any
  // cycle runs; the sum is checked without overflowing.
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg = quick_config();
  cfg.measure_cycles = Cycle{1} << 38;
  try {
    NetworkSim sim(gc, router, none, cfg);
    FAIL() << "a 2^38-cycle run must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2^38"), std::string::npos)
        << e.what();
  }
  cfg.warmup_cycles = ~Cycle{0} - 5;
  cfg.measure_cycles = 10;  // the sum wraps to 4
  EXPECT_THROW(NetworkSim(gc, router, none, cfg), std::invalid_argument);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = (Cycle{1} << 38) - 1;
  EXPECT_NO_THROW(NetworkSim(gc, router, none, cfg));
}

TEST(NetworkSim, DifferentSeedsDiffer) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg = quick_config();
  NetworkSim sim1(gc, router, none, cfg);
  cfg.seed = 100;
  NetworkSim sim2(gc, router, none, cfg);
  EXPECT_NE(sim1.run().total_latency, sim2.run().total_latency);
}

TEST(NetworkSim, DeliversTrafficAtLowLoad) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  const SimMetrics m = NetworkSim(gc, router, none, quick_config()).run();
  EXPECT_GT(m.generated, 0u);
  EXPECT_GT(m.delivered, 0u);
  EXPECT_EQ(m.dropped, 0u);
  // At a 5% injection rate delivery should keep up with generation.
  EXPECT_GT(static_cast<double>(m.delivered),
            0.8 * static_cast<double>(m.generated));
}

TEST(NetworkSim, CarryoverDeliveriesNeverInflateTheDeliveryRatio) {
  // Regression: packets generated in the last warmup cycles and completed
  // inside the window used to be counted in `delivered`, so a short window
  // behind a congested warmup could report delivered > generated and
  // delivery_ratio() > 1. They now land in carryover_delivered.
  const GaussianCube gc(8, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg;
  cfg.injection_rate = 0.25;
  cfg.warmup_cycles = 40;
  cfg.measure_cycles = 60;
  cfg.seed = 7;
  for (const bool modern : {true, false}) {
    cfg.fabric = modern;
    cfg.active_set = modern;
    const SimMetrics m = NetworkSim(gc, router, none, cfg).run();
    ASSERT_GT(m.generated, 0u);
    EXPECT_GT(m.carryover_delivered, 0u)
        << "warmup packets should straddle into this window";
    EXPECT_LE(m.delivered, m.generated);
    EXPECT_LE(m.delivery_ratio(), 1.0);
  }
}

TEST(NetworkSim, FabricSteeringMatchesPlannedRoutingBitForBitFaultFree) {
  // With no faults every node is overlay-clean, so a steered packet takes
  // exactly the table hops — which are byte-identical to the plan the
  // legacy path would have attached at injection. Holding the injection
  // realization fixed (active_set off on both sides), the two execution
  // modes must therefore produce identical metrics, not just similar ones.
  const GaussianCube gc(8, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg = quick_config();
  cfg.active_set = false;
  cfg.fabric = true;
  const SimMetrics steered = NetworkSim(gc, router, none, cfg).run();
  cfg.fabric = false;
  const SimMetrics planned = NetworkSim(gc, router, none, cfg).run();
  ASSERT_GT(steered.delivered, 0u);
  EXPECT_TRUE(steered.deterministic_equals(planned));
}

TEST(NetworkSim, LatencyAtLeastHopsPlusOne) {
  // Each hop takes at least one cycle and delivery happens on dequeue at
  // the destination, so latency >= hops per packet; averages must agree.
  const GaussianCube gc(6, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  const SimMetrics m = NetworkSim(gc, router, none, quick_config()).run();
  ASSERT_GT(m.delivered, 0u);
  EXPECT_GE(m.avg_latency(), m.avg_hops());
}

TEST(NetworkSim, CongestionRaisesLatency) {
  const GaussianCube gc(6, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig low = quick_config();
  low.injection_rate = 0.01;
  SimConfig high = quick_config();
  high.injection_rate = 0.30;
  const double lat_low = NetworkSim(gc, router, none, low).run().avg_latency();
  const double lat_high =
      NetworkSim(gc, router, none, high).run().avg_latency();
  EXPECT_GT(lat_high, lat_low);
}

TEST(NetworkSim, FaultyNodesNeverTouchTraffic) {
  const GaussianCube gc(6, 1);
  FaultSet faults;
  faults.fail_node(7);
  const FtgcrRouter router = FtgcrRouter(gc, faults);
  const SimMetrics m = NetworkSim(gc, router, faults, quick_config()).run();
  EXPECT_GT(m.delivered, 0u);
  EXPECT_EQ(m.dropped, 0u);
}

TEST(NetworkSim, HigherServiceRateNeverHurtsLatency) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig slow = quick_config();
  slow.injection_rate = 0.15;
  slow.service_rate = 1;
  SimConfig fast = slow;
  fast.service_rate = 8;
  const double lat_slow =
      NetworkSim(gc, router, none, slow).run().avg_latency();
  const double lat_fast =
      NetworkSim(gc, router, none, fast).run().avg_latency();
  EXPECT_LE(lat_fast, lat_slow)
      << "eager readership (higher service rate) must not slow delivery";
}

TEST(NetworkSim, PeakInFlightGrowsWithLoad) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig low = quick_config();
  low.injection_rate = 0.01;
  SimConfig high = quick_config();
  high.injection_rate = 0.20;
  const auto m_low = NetworkSim(gc, router, none, low).run();
  const auto m_high = NetworkSim(gc, router, none, high).run();
  EXPECT_GT(m_high.peak_in_flight, m_low.peak_in_flight);
}

TEST(NetworkSim, PeakInFlightIsScopedToMeasurementWindow) {
  // Regression: peak_in_flight used to update during warmup too, so a
  // congested warmup polluted a measured statistic. Arrange a run whose
  // in-flight peak falls squarely in warmup — half the network dies on the
  // last warmup cycle — and check the measured peak is lower than what a
  // run measuring from cycle 0 (same seed, same counter-RNG draw streams,
  // same schedule) sees over the full window.
  const GaussianCube gc(8, 2);
  FaultSet live_a;
  const FtgcrRouter router_a(gc, live_a);
  FaultSet live_b;
  const FtgcrRouter router_b(gc, live_b);
  FaultSchedule mass_kill;
  for (NodeId u = 0; u < gc.node_count(); u += 2) {
    mass_kill.fail_node_at(99, u);
  }
  SimConfig gated;
  gated.injection_rate = 0.10;
  gated.seed = 99;
  gated.warmup_cycles = 100;
  gated.measure_cycles = 50;
  SimConfig full = gated;
  full.warmup_cycles = 0;
  full.measure_cycles = 150;
  const SimMetrics m_gated =
      NetworkSim(gc, router_a, live_a, gated, mass_kill).run();
  const SimMetrics m_full =
      NetworkSim(gc, router_b, live_b, full, mass_kill).run();
  EXPECT_GT(m_gated.peak_in_flight, 0u);
  EXPECT_LT(m_gated.peak_in_flight, m_full.peak_in_flight)
      << "warmup congestion leaked into the measured peak";
}

TEST(NetworkSim, ServiceOpsAccountForHops) {
  // Every delivered packet is handled hops+1 times (each forward plus the
  // final delivery), so over a long window service_ops stays close to
  // total_hops + delivered (edges: packets spanning the window boundary).
  const GaussianCube gc(6, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  const auto m = NetworkSim(gc, router, none, quick_config()).run();
  ASSERT_GT(m.delivered, 0u);
  const double expected =
      static_cast<double>(m.total_hops + m.delivered);
  EXPECT_NEAR(static_cast<double>(m.service_ops), expected,
              0.1 * expected);
}

TEST(NetworkSim, UnboundedBuffersNeverDeadlock) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.30;  // heavy load
  const auto m = NetworkSim(gc, router, none, cfg).run();
  EXPECT_FALSE(m.deadlocked);
  EXPECT_EQ(m.stalled_cycles, 0u);
  EXPECT_EQ(m.injections_blocked, 0u);
}

TEST(NetworkSim, GenerousBuffersAtLowLoadBehaveLikeUnbounded) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig bounded = quick_config();
  bounded.injection_rate = 0.02;
  bounded.buffer_limit = 32;
  const auto m = NetworkSim(gc, router, none, bounded).run();
  EXPECT_FALSE(m.deadlocked);
  EXPECT_GT(m.delivered, 0u);
  SimConfig unbounded = bounded;
  unbounded.buffer_limit = 0;
  const auto u = NetworkSim(gc, router, none, unbounded).run();
  EXPECT_EQ(m.delivered, u.delivered)
      << "buffers never filled, so results must be identical";
  EXPECT_EQ(m.total_latency, u.total_latency);
}

TEST(NetworkSim, TinyBuffersUnderSaturationDeadlock) {
  // Store-and-forward with undifferentiated single-slot FIFOs deadlocks
  // under saturation regardless of the routing function (see
  // bench/abl_finite_buffers); the detector must notice and say so.
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.5;
  cfg.buffer_limit = 1;
  cfg.measure_cycles = 2000;
  const auto m = NetworkSim(gc, router, none, cfg).run();
  EXPECT_TRUE(m.deadlocked);
  EXPECT_GT(m.injections_blocked, 0u);
}

// --- Dynamic-fault mode -------------------------------------------------

void expect_same_metrics(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.service_ops, b.service_ops);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.injections_blocked, b.injections_blocked);
  EXPECT_EQ(a.stalled_cycles, b.stalled_cycles);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.latency_histogram.bucket(i), b.latency_histogram.bucket(i));
  }
  EXPECT_TRUE(a.deterministic_equals(b));
}

TEST(DynamicFaults, EmptyScheduleReproducesStaticModeBitForBit) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet static_faults;
  const SimMetrics baseline =
      NetworkSim(gc, router, static_faults, quick_config()).run();
  FaultSet live;
  const FaultSchedule empty;
  const SimMetrics dynamic =
      NetworkSim(gc, router, live, quick_config(), empty).run();
  expect_same_metrics(baseline, dynamic);
  EXPECT_EQ(dynamic.fault_events, 0u);
  EXPECT_EQ(dynamic.reroutes, 0u);
  EXPECT_EQ(dynamic.dropped_en_route(), 0u);
  EXPECT_EQ(dynamic.orphaned_by_node_fault, 0u);
}

TEST(DynamicFaults, EmptyScheduleMatchesStaticUnderStaticFaults) {
  // Same equivalence with a preexisting static fault pattern in place.
  const GaussianCube gc(6, 2);
  FaultSet faults;
  faults.fail_node(9);
  const FtgcrRouter router(gc, faults);
  const SimMetrics baseline =
      NetworkSim(gc, router, faults, quick_config()).run();
  const FaultSchedule empty;
  const SimMetrics dynamic =
      NetworkSim(gc, router, faults, quick_config(), empty).run();
  expect_same_metrics(baseline, dynamic);
}

TEST(DynamicFaults, MidRunNodeFaultOrphansAndReroutes) {
  const GaussianCube gc(7, 1);  // full hypercube: every detour available
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  FaultSchedule schedule;
  // Several node deaths spread across the measurement window; heavy-ish
  // load so each death catches packets in flight.
  schedule.fail_node_at(80, 3);
  schedule.fail_node_at(150, 77);
  schedule.fail_node_at(220, 101);
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.10;
  const SimMetrics m = NetworkSim(gc, router, faults, cfg, schedule).run();
  EXPECT_EQ(m.fault_events, 3u);
  EXPECT_EQ(faults.node_fault_count(), 3u) << "schedule mutates the live set";
  EXPECT_GT(m.delivered, 0u);
  EXPECT_GT(m.reroutes, 0u) << "in-flight packets must notice dead links";
}

TEST(DynamicFaults, DeliveredPathsAreFaultFreeAtTraversalTime) {
  // The simulator GCUBE_REQUIREs that every delivered packet's recorded
  // path replays from src to dst, and refuses to traverse unusable links;
  // a run with many mid-flight faults exercising both is the regression.
  const GaussianCube gc(7, 2);
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  const FaultSchedule schedule =
      FaultSchedule::random_node_faults(gc.node_count(), 0.01, 350, 21, 12);
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.08;
  const SimMetrics m = NetworkSim(gc, router, faults, cfg, schedule).run();
  EXPECT_GT(m.delivered, 0u);
  EXPECT_GT(m.fault_events, 0u);
}

TEST(HopLog, GrowsPastItsReservationAndKeepsEveryHop) {
  // A detour longer than the injection-time reservation doubles the log;
  // every dimension up to kMaxDimension - 1 survives its one-byte slot.
  HopLog log;
  log.reserve(4);
  for (std::uint32_t i = 0; i < 100; ++i) log.push_back(i % kMaxDimension);
  ASSERT_EQ(log.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(log[i], i % kMaxDimension);
  log.clear();  // a retransmit restarts the log in the same buffer
  log.push_back(kMaxDimension - 1);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], kMaxDimension - 1);
  log.release();
  EXPECT_EQ(log.size(), 0u);
  log.push_back(3);  // a released log grows again from nothing
  EXPECT_EQ(log[0], 3u);
}

TEST(NetworkSim, AuditedReplayHoldsWhenSteeredPacketsReroute) {
  // Only the 1-in-64 audited sample records its traversed path in a
  // HopLog; every other packet keeps a bare hop counter. The delivery
  // replay (a GCUBE_REQUIRE inside the simulator) must therefore still
  // see a complete src->dst path for every audited delivery even when
  // mid-run faults force steered packets off their fault-free table hops
  // — the reroutes assertion pins that the tails actually diverged.
  const GaussianCube gc(7, 2);
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  const FaultSchedule schedule =
      FaultSchedule::random_node_faults(gc.node_count(), 0.01, 350, 21, 12);
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.08;
  const SimMetrics m = NetworkSim(gc, router, faults, cfg, schedule).run();
  EXPECT_GT(m.delivered, 500u) << "audited samples must reach delivery";
  EXPECT_GT(m.reroutes, 0u) << "faults must deflect steered packets";
}

TEST(NetworkSim, AuditedReplayRidesEverySimdLevel) {
  // The delivery replay (a GCUBE_REQUIRE on every audited packet's
  // recorded path) must hold when the vector classify and gathered
  // fault-free-hop lookups drive the advance — at every dispatch level
  // the CPU supports, not just the default. Each level runs the same
  // rerouting workload as the replay test above and must reproduce the
  // scalar metrics bit for bit.
  const GaussianCube gc(7, 2);
  const FaultSchedule schedule =
      FaultSchedule::random_node_faults(gc.node_count(), 0.01, 350, 21, 12);
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.08;
  const SimdLevel entry = simd_level();
  set_simd_level(SimdLevel::kScalar);
  FaultSet faults_ref;
  const FtgcrRouter router_ref(gc, faults_ref);
  const SimMetrics reference =
      NetworkSim(gc, router_ref, faults_ref, cfg, schedule).run();
  EXPECT_GT(reference.delivered, 500u) << "audited samples must deliver";
  EXPECT_GT(reference.reroutes, 0u) << "faults must deflect packets";
  for (const SimdLevel level : {SimdLevel::kSse, SimdLevel::kAvx2}) {
    if (level > detected_simd_level()) continue;
    set_simd_level(level);
    FaultSet faults;
    const FtgcrRouter router(gc, faults);
    const SimMetrics m = NetworkSim(gc, router, faults, cfg, schedule).run();
    EXPECT_TRUE(m.deterministic_equals(reference))
        << "simd=" << to_string(level);
  }
  set_simd_level(entry);
}

TEST(NetworkSim, AuditSamplingAndBatchingLeaveMetricsUnchanged) {
  // total_hops is fed by the per-packet hop counter, not the audit tail,
  // and how a cycle's records are batched — one sorted array per shard,
  // departures boxed per destination shard — only changes where records
  // live: one shard and three must reproduce the whole metrics block
  // bit-for-bit, total_hops included, under the same rerouting workload
  // as the replay test.
  const GaussianCube gc(7, 2);
  FaultSet faults_a;
  FaultSet faults_b;
  const FtgcrRouter router_a(gc, faults_a);
  const FtgcrRouter router_b(gc, faults_b);
  const FaultSchedule schedule =
      FaultSchedule::random_node_faults(gc.node_count(), 0.01, 350, 21, 12);
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.08;
  cfg.allow_oversubscribe = true;
  cfg.threads = 1;
  const SimMetrics one = NetworkSim(gc, router_a, faults_a, cfg, schedule).run();
  cfg.threads = 3;
  const SimMetrics three =
      NetworkSim(gc, router_b, faults_b, cfg, schedule).run();
  EXPECT_EQ(one.total_hops, three.total_hops);
  EXPECT_TRUE(one.deterministic_equals(three));
}

TEST(DynamicFaults, FtgcrDegradesMoreGracefullyThanEcube) {
  // The tentpole acceptance claim, in miniature: same mid-run fault
  // arrivals, same traffic seed; FTGCR re-routes around discovered faults
  // while fault-blind e-cube drops every packet whose path died.
  GcSimSpec spec;
  spec.n = 7;
  spec.modulus = 1;
  spec.fault_rate = 0.01;
  spec.fault_seed = 17;
  spec.sim = quick_config();
  spec.sim.injection_rate = 0.05;
  spec.router = SimRouterKind::kFtgcr;
  const GcSimOutcome ft = run_gc_simulation(spec);
  spec.router = SimRouterKind::kEcube;
  const GcSimOutcome ec = run_gc_simulation(spec);
  ASSERT_EQ(ft.fault_events_scheduled, ec.fault_events_scheduled);
  EXPECT_GT(ft.metrics.fault_events, 0u);
  EXPECT_GT(ft.metrics.delivery_ratio(), ec.metrics.delivery_ratio());
  EXPECT_LT(ft.metrics.dropped_en_route(), ec.metrics.dropped_en_route());
}

TEST(DynamicFaults, RejectsOutOfRangeEvents) {
  const GaussianCube gc(6, 2);
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  FaultSchedule bad_node;
  bad_node.fail_node_at(10, 1u << 10);
  EXPECT_THROW(NetworkSim(gc, router, faults, quick_config(), bad_node),
               std::invalid_argument);
  FaultSchedule bad_dim;
  bad_dim.fail_link_at(10, 1, 9);
  EXPECT_THROW(NetworkSim(gc, router, faults, quick_config(), bad_dim),
               std::invalid_argument);
}

TEST(Metrics, OfferedLoadConsistentAcrossBufferLimits) {
  // `generated` counts offered load — including buffer-blocked injections
  // — so the delivery-ratio denominator is the same in finite- and
  // infinite-buffer runs with the same seed.
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  // Load high enough that transient bursts fill a 4-slot buffer and block
  // some injections, but low enough that the run never deadlocks (a
  // deadlocked run ends early and covers a shorter window).
  SimConfig cfg = quick_config();
  cfg.injection_rate = 0.12;
  SimConfig tiny = cfg;
  tiny.buffer_limit = 4;
  const SimMetrics unbounded = NetworkSim(gc, router, none, cfg).run();
  const SimMetrics bounded = NetworkSim(gc, router, none, tiny).run();
  ASSERT_FALSE(bounded.deadlocked);
  EXPECT_GT(bounded.injections_blocked, 0u);
  EXPECT_EQ(bounded.generated, unbounded.generated)
      << "offered load must not depend on buffer_limit";
  EXPECT_EQ(bounded.accepted(),
            bounded.generated - bounded.injections_blocked);
  EXPECT_EQ(unbounded.accepted(), unbounded.generated);
}

TEST(LatencyHistogram, BucketsAndPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  for (Cycle v : {0u, 1u, 1u, 3u, 3u, 3u, 3u, 100u, 100u, 1000u}) {
    h.record(v);
  }
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.bucket(0), 3u);   // 0, 1, 1
  EXPECT_EQ(h.bucket(1), 4u);   // the 3s: [2, 4)
  EXPECT_EQ(h.bucket(6), 2u);   // 100: [64, 128)
  EXPECT_EQ(h.bucket(9), 1u);   // 1000: [512, 1024)
  // p50 falls in the [2,4) bucket; upper edge 3.
  EXPECT_EQ(h.percentile(0.5), 3u);
  // p100 covers the 1000-cycle packet.
  EXPECT_EQ(h.percentile(1.0), 1023u);
  // Percentiles are monotone in q.
  EXPECT_LE(h.percentile(0.1), h.percentile(0.9));
}

TEST(LatencyHistogram, PercentileEdgesAndClamping) {
  // All mass far from bucket 0: p0 must report the first *nonempty*
  // bucket's edge, not bucket 0's, and p100 the last nonempty bucket's.
  LatencyHistogram h;
  for (int i = 0; i < 5; ++i) h.record(100);  // bucket 6: [64, 128)
  h.record(1000);                             // bucket 9: [512, 1024)
  EXPECT_EQ(h.percentile(0.0), 127u);
  EXPECT_EQ(h.percentile(0.5), 127u);
  EXPECT_EQ(h.percentile(1.0), 1023u);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
  // q just under a bucket boundary must not round up past it: 5 of 6
  // deliveries are in bucket 6, so p83 (rank ceil(0.83*6) = 5) stays there.
  EXPECT_EQ(h.percentile(0.83), 127u);
}

TEST(LatencyHistogram, SinglePacketAllPercentilesAgree) {
  LatencyHistogram h;
  h.record(7);  // bucket 2: [4, 8)
  EXPECT_EQ(h.percentile(0.0), 7u);
  EXPECT_EQ(h.percentile(0.5), 7u);
  EXPECT_EQ(h.percentile(1.0), 7u);
}

TEST(LatencyHistogram, SimulationTotalsMatchDeliveries) {
  const GaussianCube gc(7, 2);
  const FfgcrRouter router(gc);
  const FaultSet none;
  const SimMetrics m = NetworkSim(gc, router, none, quick_config()).run();
  EXPECT_EQ(m.latency_histogram.total(), m.delivered);
  // Mean must lie within [p0-ish, p100] edges.
  EXPECT_LE(m.avg_latency(),
            static_cast<double>(m.latency_histogram.percentile(1.0)));
}

TEST(Metrics, Arithmetic) {
  SimMetrics m;
  m.measured_cycles = 100;
  m.delivered = 50;
  m.total_latency = 500;
  m.total_hops = 200;
  EXPECT_DOUBLE_EQ(m.avg_latency(), 10.0);
  EXPECT_DOUBLE_EQ(m.avg_hops(), 4.0);
  EXPECT_DOUBLE_EQ(m.throughput(), 0.5);
  EXPECT_DOUBLE_EQ(m.log2_throughput(), -1.0);
}

TEST(Metrics, EmptySafe) {
  const SimMetrics m;
  EXPECT_DOUBLE_EQ(m.avg_latency(), 0.0);
  EXPECT_DOUBLE_EQ(m.throughput(), 0.0);
  EXPECT_DOUBLE_EQ(m.log2_throughput(), 0.0);
}

TEST(Traffic, DestinationsAvoidFaultsAndSelf) {
  FaultSet faults;
  faults.fail_node(3);
  const UniformTraffic traffic(16, 0.5, faults, 1);
  CounterRng rng(counter_key(1, 0, 0));
  for (int i = 0; i < 500; ++i) {
    const NodeId d = traffic.pick_destination(5, rng);
    EXPECT_NE(d, 5u);
    EXPECT_NE(d, 3u);
    EXPECT_LT(d, 16u);
  }
  EXPECT_FALSE(traffic.eligible(3));
  EXPECT_TRUE(traffic.eligible(5));
}

TEST(Traffic, RejectsBadParameters) {
  const FaultSet none;
  EXPECT_THROW(UniformTraffic(1, 0.5, none, 1), std::invalid_argument);
  EXPECT_THROW(UniformTraffic(16, 1.5, none, 1), std::invalid_argument);
}

TEST(Runner, FaultFreeCellRuns) {
  GcSimSpec spec;
  spec.n = 6;
  spec.modulus = 2;
  spec.sim = quick_config();
  const GcSimOutcome out = run_gc_simulation(spec);
  EXPECT_EQ(out.faults_injected, 0u);
  EXPECT_GT(out.metrics.delivered, 0u);
}

TEST(Runner, FaultyCellRespectsPrecondition) {
  GcSimSpec spec;
  spec.n = 7;
  spec.modulus = 2;
  spec.faulty_nodes = 1;
  spec.sim = quick_config();
  const GcSimOutcome out = run_gc_simulation(spec);
  EXPECT_EQ(out.faults_injected, 1u);
  EXPECT_GT(out.metrics.delivered, 0u);
  EXPECT_EQ(out.metrics.dropped, 0u);
}

TEST(Sweep, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Sweep, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_index(16,
                         [](std::size_t i) {
                           if (i == 7) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(Sweep, ZeroJobsIsFine) {
  parallel_for_index(0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace gcube
