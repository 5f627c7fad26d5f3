// The parallel core's determinism contract, as a property test.
//
// For a fixed seed, the full SimMetrics of a run — latency histogram
// included — must be bit-identical for ANY thread count, because every
// per-node decision depends only on start-of-cycle committed state,
// per-(node, cycle) counter RNG draws, and canonical (source-ascending)
// queue order. The matrix here crosses topologies {GC(8,2), GC(10,4)},
// fault regimes {static pattern, mid-run schedule}, and thread counts
// {1, 2, 4, hardware, auto}; explicit counts above the core count
// genuinely oversubscribe (allow_oversubscribe bypasses the default clamp
// to hardware_concurrency), so this exercises real interleavings even on
// small CI machines. The same binary runs under the ThreadSanitizer CI
// job. Both execution modes are covered: the default next-hop-fabric +
// active-set loop, and the legacy full-scan path. The whole matrix runs
// on the fused cycle loop (one dispatch per run, barrier_serial commits,
// parity-double-buffered boxes, one counting sort per shard and cycle) —
// so every case is also a regression test that fusing the phases changed
// nothing observable.
// The SimdLevelsEqualScalar* cases sweep every SIMD dispatch level the CPU
// supports (scalar, SSE4.2, AVX2) against the scalar threads=1 reference
// across steered and planned traffic, static and scheduled faults, and
// thread counts {1, 2, 4} — the vectorized counter-RNG kernels batch pure
// integer functions, so every level must reproduce the metrics exactly.
// The GoldenDigest cases pin absolute behaviour: fixed GC(10,4) cells
// (deep queues, same-cycle link conflicts, a buffer limit, node faults,
// retry recovery, static faults, a low-rate run over two laps of the
// injection fire wheel, the per-cycle Bernoulli scan feeding deep queues,
// and a finite buffer over deep queues; steered and planned) must hash to
// committed digests at threads 1, 3 and 4 — three shards split the nodes
// unevenly, so arrivals from a shard's own nodes and from its neighbours
// interleave in every queue — and a change to the queue, link-reservation
// or injection-wheel layout cannot move any metric.
//
// Cache counters (SimMetrics::plan_cache / hop_cache) are deliberately NOT
// compared: the hit/miss split depends on which worker reaches a cold key
// first. deterministic_equals() excludes them by contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/simd.hpp"

#include "golden_cells.hpp"

namespace gcube {
namespace {

/// Field-by-field comparison so a contract violation names the metric that
/// diverged instead of a bare deterministic_equals() == false.
void expect_identical(const SimMetrics& got, const SimMetrics& want,
                      const std::string& label) {
  EXPECT_EQ(got.generated, want.generated) << label;
  EXPECT_EQ(got.delivered, want.delivered) << label;
  EXPECT_EQ(got.carryover_delivered, want.carryover_delivered) << label;
  EXPECT_EQ(got.dropped, want.dropped) << label;
  EXPECT_EQ(got.total_latency, want.total_latency) << label;
  EXPECT_EQ(got.total_hops, want.total_hops) << label;
  EXPECT_EQ(got.service_ops, want.service_ops) << label;
  EXPECT_EQ(got.peak_in_flight, want.peak_in_flight) << label;
  EXPECT_EQ(got.injections_blocked, want.injections_blocked) << label;
  EXPECT_EQ(got.stalled_cycles, want.stalled_cycles) << label;
  EXPECT_EQ(got.deadlocked, want.deadlocked) << label;
  EXPECT_EQ(got.fault_events, want.fault_events) << label;
  EXPECT_EQ(got.reroutes, want.reroutes) << label;
  EXPECT_EQ(got.dropped_no_route, want.dropped_no_route) << label;
  EXPECT_EQ(got.dropped_hop_limit, want.dropped_hop_limit) << label;
  EXPECT_EQ(got.repairs_applied, want.repairs_applied) << label;
  EXPECT_EQ(got.parked_retries, want.parked_retries) << label;
  EXPECT_EQ(got.retransmits, want.retransmits) << label;
  EXPECT_EQ(got.gave_up, want.gave_up) << label;
  EXPECT_EQ(got.in_flight_at_end, want.in_flight_at_end) << label;
  EXPECT_EQ(got.orphaned_by_node_fault, want.orphaned_by_node_fault)
      << label;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(got.latency_histogram.bucket(i),
              want.latency_histogram.bucket(i))
        << label << " histogram bucket " << i;
  }
  EXPECT_TRUE(got.deterministic_equals(want)) << label;
}

std::vector<std::uint32_t> thread_matrix() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // 0 = auto (ThreadBudget grant) rides along: whatever it resolves to
  // must produce the same metrics too.
  return {1, 2, 4, hw, 0};
}

void expect_thread_invariant(GcSimSpec spec, const std::string& label) {
  spec.sim.threads = 1;
  const GcSimOutcome baseline = run_gc_simulation(spec);
  ASSERT_GT(baseline.metrics.generated, 0u) << label << ": inert workload";
  for (const std::uint32_t threads : thread_matrix()) {
    if (threads == 1) continue;
    spec.sim.threads = threads;
    const GcSimOutcome outcome = run_gc_simulation(spec);
    expect_identical(outcome.metrics, baseline.metrics,
                     label + " threads=" + std::to_string(threads) +
                         " vs threads=1");
  }
}

/// Pins the process-wide SIMD dispatch level for one scope and restores
/// the entry level on exit, so a failing cell cannot poison later tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prior_(simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(prior_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prior_;
};

/// Every dispatch level this CPU can actually run. Levels above the
/// detected one are excluded rather than requested: set_simd_level would
/// clamp them, silently re-testing kernels already covered.
std::vector<SimdLevel> simd_matrix() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kSse) {
    levels.push_back(SimdLevel::kSse);
  }
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// The SIMD kernels (counter-RNG batches) must be BIT-IDENTICAL to the
/// scalar reference at every dispatch level and thread count: they batch
/// pure integer functions, so vectorization may reorder reads but never
/// change a decision. One scalar threads=1 reference, then every available
/// level × {1, 2, 4} threads against it.
void expect_simd_invariant(GcSimSpec spec, const std::string& label) {
  spec.sim.threads = 1;
  GcSimOutcome reference;
  {
    ScopedSimdLevel pin(SimdLevel::kScalar);
    reference = run_gc_simulation(spec);
  }
  ASSERT_GT(reference.metrics.generated, 0u) << label << ": inert workload";
  for (const SimdLevel level : simd_matrix()) {
    ScopedSimdLevel pin(level);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      spec.sim.threads = threads;
      const GcSimOutcome outcome = run_gc_simulation(spec);
      expect_identical(outcome.metrics, reference.metrics,
                       label + " simd=" + to_string(level) + " threads=" +
                           std::to_string(threads) + " vs scalar threads=1");
    }
  }
}

GcSimSpec base_spec(Dim n, std::uint64_t modulus) {
  GcSimSpec spec;
  spec.n = n;
  spec.modulus = modulus;
  spec.router = SimRouterKind::kFtgcr;
  spec.sim.injection_rate = 0.05;
  spec.sim.warmup_cycles = 30;
  spec.sim.measure_cycles = 200;
  spec.sim.seed = 99;
  // The matrix intentionally runs more workers than this machine has
  // cores; the default clamp would quietly serialize those cells.
  spec.sim.allow_oversubscribe = true;
  return spec;
}

/// Mid-run node and link deaths straddling the warmup boundary, built on
/// the topology's own size so both cells stress orphaning, re-routing, and
/// en-route drops.
FaultSchedule scheduled_faults(const GcSimSpec& spec) {
  const GaussianCube gc(spec.n, spec.modulus);
  const NodeId nodes = static_cast<NodeId>(gc.node_count());
  FaultSchedule schedule;
  schedule.fail_node_at(10, nodes / 3);
  schedule.fail_link_at(10, nodes / 2 + 1, 0);
  schedule.fail_node_at(45, nodes / 5 + 2);
  schedule.fail_link_at(90, nodes - 7, 1);
  schedule.fail_node_at(140, 2 * nodes / 3);
  return schedule;
}

TEST(Determinism, Gc8x2StaticFaults) {
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  expect_thread_invariant(spec, "GC(8,2) static");
}

TEST(Determinism, Gc8x2ScheduledFaults) {
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(spec);
  expect_thread_invariant(spec, "GC(8,2) scheduled");
}

TEST(Determinism, Gc10x4StaticFaults) {
  GcSimSpec spec = base_spec(10, 4);
  spec.faulty_nodes = 6;
  spec.sim.injection_rate = 0.04;
  expect_thread_invariant(spec, "GC(10,4) static");
}

TEST(Determinism, Gc10x4ScheduledFaults) {
  GcSimSpec spec = base_spec(10, 4);
  spec.sim.injection_rate = 0.04;
  spec.schedule = scheduled_faults(spec);
  expect_thread_invariant(spec, "GC(10,4) scheduled");
}

TEST(Determinism, LegacyScanModeIsThreadInvariantToo) {
  // The pre-fabric execution path (full per-node scan, Bernoulli
  // injection, plan-at-injection) stays available behind the toggles and
  // must honor the same contract.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  spec.sim.fabric = false;
  spec.sim.active_set = false;
  expect_thread_invariant(spec, "GC(8,2) legacy scan");
}

TEST(Determinism, FiniteBuffersBackpressureIsThreadInvariant) {
  // Exercises the snapshot-occupancy backpressure path and blocked
  // injections — the part of the contract that replaced live occupancy.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 3;
  spec.sim.injection_rate = 0.20;
  spec.sim.buffer_limit = 3;
  expect_thread_invariant(spec, "GC(8,2) finite buffers");
}

TEST(Determinism, RecoveryRetriesAreThreadInvariant) {
  // Transient faults that heal, with parking and retransmits on. In the
  // fused cycle loop the fault/repair application and the park wake both
  // run inside the barrier's serial section (cycle_prework), and stranded
  // packets ride the per-shard parity rings — none of which may depend on
  // how nodes are sharded.
  GcSimSpec spec = base_spec(8, 2);
  const GaussianCube gc(spec.n, spec.modulus);
  const NodeId nodes = static_cast<NodeId>(gc.node_count());
  FaultSchedule schedule;
  schedule.fail_node_at(20, nodes / 4);
  schedule.repair_node_at(70, nodes / 4);
  schedule.fail_link_at(40, nodes / 2, 1);
  schedule.repair_link_at(120, nodes / 2, 1);
  schedule.fail_node_at(100, 3 * nodes / 4);
  spec.schedule = schedule;
  spec.sim.retry_limit = 4;
  spec.sim.retry_backoff_base = 2;
  spec.sim.retry_budget = 2;
  expect_thread_invariant(spec, "GC(8,2) transient recovery");
}

TEST(Determinism, FiniteBuffersWithScheduledFaultsIsThreadInvariant) {
  // The two extra synchronization points at once: finite buffers add the
  // mid-cycle occupancy-snapshot barrier between phases A and B, and the
  // schedule adds serial fault prework between cycles. Backpressure,
  // blocked injections, and mid-run orphaning must all commute with the
  // thread count.
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(spec);
  spec.sim.injection_rate = 0.20;
  spec.sim.buffer_limit = 3;
  expect_thread_invariant(spec, "GC(8,2) finite buffers + schedule");
}

TEST(Determinism, SimdLevelsEqualScalarSteeredStatic) {
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  expect_simd_invariant(spec, "GC(8,2) steered static");
}

TEST(Determinism, SimdLevelsEqualScalarSteeredScheduled) {
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(spec);
  expect_simd_invariant(spec, "GC(8,2) steered scheduled");
}

TEST(Determinism, SimdLevelsEqualScalarPlannedStatic) {
  // fabric off = plan-at-injection packets: this cell pins the batched
  // injection keying on planned traffic.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  spec.sim.fabric = false;
  expect_simd_invariant(spec, "GC(8,2) planned static");
}

TEST(Determinism, SimdLevelsEqualScalarPlannedScheduled) {
  GcSimSpec spec = base_spec(8, 2);
  spec.schedule = scheduled_faults(spec);
  spec.sim.fabric = false;
  expect_simd_invariant(spec, "GC(8,2) planned scheduled");
}

TEST(Determinism, SimdLevelsEqualScalarBernoulliScan) {
  // active_set off is the one mode whose injection predicate runs through
  // counter_bernoulli_mask every cycle (the active-set loop only keys
  // batches); the mask-then-filter scan must reproduce the per-node
  // virtual calls draw for draw.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  spec.sim.active_set = false;
  expect_simd_invariant(spec, "GC(8,2) bernoulli scan");
}

// ---------------------------------------------------------------------------
// Golden digests (cells in golden_cells.hpp): every cell must hash to its
// committed digest at threads 1, 3 and 4.
// ---------------------------------------------------------------------------

void expect_golden(GoldenCell cell, bool fabric, std::uint64_t want) {
  const std::string label = std::string(to_string(cell)) +
                            (fabric ? " steered" : " planned");
  GcSimSpec spec = golden_spec(cell, fabric);
  for (const std::uint32_t threads : {1u, 3u, 4u}) {
    spec.sim.threads = threads;
    const GcSimOutcome outcome = run_gc_simulation(spec);
    const SimMetrics& m = outcome.metrics;
    const std::string at = label + " threads=" + std::to_string(threads);
    EXPECT_EQ(metrics_digest(m), want)
        << at << ": digest 0x" << std::hex << metrics_digest(m);
    // Non-vacuity: each cell must actually reach the path it pins.
    ASSERT_GT(m.delivered, 0u) << at;
    if (cell == GoldenCell::kDeepQueue || cell == GoldenCell::kLinkConflict ||
        cell == GoldenCell::kLegacyScan || cell == GoldenCell::kDeepBuffer) {
      const double queueing =
          static_cast<double>(m.total_latency - m.total_hops) /
          static_cast<double>(m.delivered);
      EXPECT_GE(queueing, 1.0) << at << ": queues never got deep";
    }
    if (cell == GoldenCell::kBuffer2 || cell == GoldenCell::kDeepBuffer) {
      EXPECT_GT(m.injections_blocked, 0u) << at;
    }
    if (cell == GoldenCell::kNodeFault) {
      EXPECT_GT(m.orphaned_by_node_fault, 0u) << at;
    }
    if (cell == GoldenCell::kRetry) {
      EXPECT_GT(m.parked_retries, 0u) << at;
    }
    if (cell == GoldenCell::kStaticFaults) {
      EXPECT_EQ(outcome.faults_injected, spec.faulty_nodes) << at;
    }
    if (cell == GoldenCell::kLongHorizon) {
      EXPECT_GE(spec.sim.warmup_cycles + spec.sim.measure_cycles, 2 * 8192u)
          << at;
    }
  }
}

TEST(GoldenDigest, DeepQueueSteered) {
  expect_golden(GoldenCell::kDeepQueue, true, 0x369bb5481ea3154cULL);
}
TEST(GoldenDigest, DeepQueuePlanned) {
  expect_golden(GoldenCell::kDeepQueue, false, 0x369bb5481ea3154cULL);
}
TEST(GoldenDigest, LinkConflictSteered) {
  expect_golden(GoldenCell::kLinkConflict, true, 0x761d91ce8d86cdb3ULL);
}
TEST(GoldenDigest, LinkConflictPlanned) {
  expect_golden(GoldenCell::kLinkConflict, false, 0x761d91ce8d86cdb3ULL);
}
TEST(GoldenDigest, Buffer2Steered) {
  expect_golden(GoldenCell::kBuffer2, true, 0xfd71d086bf478269ULL);
}
TEST(GoldenDigest, Buffer2Planned) {
  expect_golden(GoldenCell::kBuffer2, false, 0xfd71d086bf478269ULL);
}
TEST(GoldenDigest, NodeFaultSteered) {
  expect_golden(GoldenCell::kNodeFault, true, 0x769a411eefea1b67ULL);
}
TEST(GoldenDigest, NodeFaultPlanned) {
  expect_golden(GoldenCell::kNodeFault, false, 0x4d7e404784f3ca4cULL);
}
TEST(GoldenDigest, RetrySteered) {
  expect_golden(GoldenCell::kRetry, true, 0x5112d6db4a98fdd0ULL);
}
TEST(GoldenDigest, RetryPlanned) {
  expect_golden(GoldenCell::kRetry, false, 0x4cf29ecc332a007eULL);
}
TEST(GoldenDigest, StaticFaultsSteered) {
  expect_golden(GoldenCell::kStaticFaults, true, 0x7cb1a0b57e238c3eULL);
}
TEST(GoldenDigest, StaticFaultsPlanned) {
  expect_golden(GoldenCell::kStaticFaults, false, 0x988214a5ee674e98ULL);
}
TEST(GoldenDigest, LongHorizonSteered) {
  expect_golden(GoldenCell::kLongHorizon, true, 0x7a300ed0efa3322cULL);
}
TEST(GoldenDigest, LongHorizonPlanned) {
  expect_golden(GoldenCell::kLongHorizon, false, 0x7a300ed0efa3322cULL);
}

TEST(GoldenDigest, LegacyScanSteered) {
  expect_golden(GoldenCell::kLegacyScan, true, 0x4098a8fe6714d26eULL);
}
TEST(GoldenDigest, LegacyScanPlanned) {
  expect_golden(GoldenCell::kLegacyScan, false, 0x4098a8fe6714d26eULL);
}
TEST(GoldenDigest, DeepBufferSteered) {
  expect_golden(GoldenCell::kDeepBuffer, true, 0x85fabc1458630f44ULL);
}
TEST(GoldenDigest, DeepBufferPlanned) {
  expect_golden(GoldenCell::kDeepBuffer, false, 0x85fabc1458630f44ULL);
}

TEST(Determinism, RepeatedRunsOfOneSimulatorAgree) {
  // run() rebuilds all state, so the same NetworkSim must reproduce
  // itself — and the cache counters must show the sim actually exercised
  // the router's memoization during measurement.
  GcSimSpec spec = base_spec(8, 2);
  spec.faulty_nodes = 5;
  spec.sim.threads = 2;
  const GcSimOutcome a = run_gc_simulation(spec);
  const GcSimOutcome b = run_gc_simulation(spec);
  expect_identical(a.metrics, b.metrics, "repeat run");
  EXPECT_GT(a.metrics.plan_cache.lookups(), 0u);
}

}  // namespace
}  // namespace gcube
