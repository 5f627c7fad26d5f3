// Golden-digest cells shared by the determinism and checkpoint tests.
//
// Behaviour pinned by data, not by a second implementation: each cell is a
// fixed GC(10,4) simulation whose deterministic metrics hash to a committed
// constant, so a refactor of the queue, link-reservation or injection-wheel
// layout has to reproduce the exact trajectory. The digest is the FNV-1a
// hash perfbench prints as metrics_digest (same fields, same order).
#pragma once

#include <cstdint>

#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "topology/gaussian_cube.hpp"

namespace gcube {

inline std::uint64_t metrics_digest(const SimMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::uint64_t v :
       {m.measured_cycles, m.generated, m.delivered, m.carryover_delivered,
        m.dropped, m.total_latency, m.total_hops, m.service_ops,
        m.peak_in_flight, m.injections_blocked, m.stalled_cycles,
        std::uint64_t{m.deadlocked}, m.fault_events, m.repairs_applied,
        m.reroutes, m.dropped_no_route, m.dropped_hop_limit,
        m.orphaned_by_node_fault, m.parked_retries, m.retransmits, m.gave_up,
        m.in_flight_at_end}) {
    mix(v);
  }
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    mix(m.latency_histogram.bucket(i));
  }
  return h;
}

enum class GoldenCell {
  kDeepQueue,
  kLinkConflict,
  kBuffer2,
  kNodeFault,
  kRetry,
  kStaticFaults,
  kLongHorizon,
  kLegacyScan,
  kDeepBuffer,
};

inline const char* to_string(GoldenCell cell) {
  switch (cell) {
    case GoldenCell::kDeepQueue: return "deep-queue";
    case GoldenCell::kLinkConflict: return "link-conflict";
    case GoldenCell::kBuffer2: return "buffer-2";
    case GoldenCell::kNodeFault: return "node-fault";
    case GoldenCell::kRetry: return "retry";
    case GoldenCell::kStaticFaults: return "static-faults";
    case GoldenCell::kLongHorizon: return "long-horizon";
    case GoldenCell::kLegacyScan: return "legacy-scan";
    case GoldenCell::kDeepBuffer: return "deep-buffer";
  }
  return "?";
}

/// The cell's full specification at GC(10,4), FTGCR, seed 99; threads are
/// left to the caller.
inline GcSimSpec golden_spec(GoldenCell cell, bool fabric) {
  GcSimSpec spec;
  spec.n = 10;
  spec.modulus = 4;
  spec.router = SimRouterKind::kFtgcr;
  spec.sim.injection_rate = 0.05;
  spec.sim.seed = 99;
  // Thread counts above the core count must really run that many workers.
  spec.sim.allow_oversubscribe = true;
  spec.sim.fabric = fabric;
  spec.sim.warmup_cycles = 20;
  spec.sim.measure_cycles = 120;
  const GaussianCube gc(spec.n, spec.modulus);
  const NodeId nodes = static_cast<NodeId>(gc.node_count());
  switch (cell) {
    case GoldenCell::kDeepQueue:
      // One service per node per cycle against ~2 arrivals: queues grow
      // for the whole run.
      spec.sim.injection_rate = 0.3;
      spec.sim.service_rate = 1;
      break;
    case GoldenCell::kLinkConflict:
      // Several services per cycle over deep queues: packets behind the
      // front contend for a link the front already took this cycle.
      spec.sim.injection_rate = 0.3;
      break;
    case GoldenCell::kBuffer2:
      spec.sim.injection_rate = 0.03;
      spec.sim.buffer_limit = 2;
      break;
    case GoldenCell::kNodeFault:
      spec.sim.injection_rate = 0.2;
      spec.schedule.fail_node_at(15, nodes / 3);
      spec.schedule.fail_node_at(40, nodes / 2 + 5);
      spec.schedule.fail_node_at(90, 2 * nodes / 3);
      break;
    case GoldenCell::kRetry:
      spec.sim.injection_rate = 0.1;
      // Two nodes cut off for 50 cycles: traffic to them strands and parks
      // until the links heal.
      for (const NodeId v : {nodes / 4, nodes / 2 + 3}) {
        for (Dim c = 0; c < spec.n; ++c) {
          if (gc.has_link(v, c)) spec.schedule.fail_link_at(25, v, c);
        }
        for (Dim c = 0; c < spec.n; ++c) {
          if (gc.has_link(v, c)) spec.schedule.repair_link_at(75, v, c);
        }
      }
      spec.sim.retry_limit = 4;
      spec.sim.retry_backoff_base = 2;
      spec.sim.retry_budget = 2;
      break;
    case GoldenCell::kStaticFaults:
      // Precondition-checked faults fixed before cycle 0: steered packets
      // adopt router plans at fault-adjacent nodes, planned ones route
      // around the faults from injection.
      spec.faulty_nodes = 8;
      spec.sim.injection_rate = 0.1;
      break;
    case GoldenCell::kLongHorizon:
      // More than two laps of the injection fire wheel (kWheelSize = 8192
      // cycles) at a rate where gaps outrun it: P(gap >= 8192) =
      // (1 - 0.0002)^8192 ~ 0.19, so ~200 of the 1024 nodes file their
      // first fire in the far heap, and later draws keep feeding it. The
      // cell pins wheel wrap-around and far-heap stragglers joining a
      // bucket that already holds wheel fires.
      spec.sim.injection_rate = 0.0002;
      spec.sim.warmup_cycles = 200;
      spec.sim.measure_cycles = 16600;
      break;
    case GoldenCell::kLegacyScan:
      // The full per-node scan with a Bernoulli draw per node and cycle:
      // every node may inject every cycle, so queues fill from injections
      // as well as arrivals.
      spec.sim.active_set = false;
      spec.sim.injection_rate = 0.2;
      break;
    case GoldenCell::kDeepBuffer:
      // Deep queues against a finite buffer: backpressure holds packets
      // at full neighbours and blocks injections at full sources. (Rates
      // much above this clog the cube within the warmup.)
      spec.sim.injection_rate = 0.07;
      spec.sim.service_rate = 1;
      spec.sim.buffer_limit = 6;
      break;
  }
  return spec;
}

}  // namespace gcube
