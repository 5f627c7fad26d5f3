// Simulation metrics (paper §6).
//
// Average latency = LP / DP: total latency of delivered packets over their
// count. Throughput = DP / PT, delivered packets per unit of processing
// time; we take PT to be the elapsed measurement cycles — node processing
// is parallel, so elapsed time is what "total processing time" scales with
// network-wide — and report log2 of it as in the paper's Figures 6 and 8.
// Absolute values are in cycles (the paper's µs scale was hardware
// specific); EXPERIMENTS.md compares shapes.
#pragma once

#include <array>
#include <cstdint>

#include "sim/packet.hpp"
#include "util/cache_stats.hpp"

namespace gcube {

/// Power-of-two-bucketed latency histogram: bucket i counts deliveries with
/// latency in [2^i, 2^(i+1)) cycles (bucket 0 covers 0 and 1). Compact,
/// O(1) updates, and good enough for percentile estimates across the four
/// decades a simulation can span.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(Cycle latency) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_.at(i);
  }

  /// Latency below which fraction q of deliveries fall (upper bucket edge;
  /// q clamped to [0, 1]). p0 is the first nonempty bucket's edge, p100 the
  /// last nonempty bucket's edge. Returns 0 when empty.
  [[nodiscard]] Cycle percentile(double q) const;

  /// Bucket-wise accumulation (per-shard histograms are merged into the
  /// run total; integer adds, so the merge is associative and the result
  /// is independent of shard count).
  void merge(const LatencyHistogram& o) noexcept;

  /// Checkpoint restore: adds `count` deliveries straight into bucket i
  /// without replaying individual records.
  void add_bucket(std::size_t i, std::uint64_t count) {
    counts_.at(i) += count;
    total_ += count;
  }

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

struct SimMetrics {
  Cycle measured_cycles = 0;
  /// Offered load: every packet a source wanted to inject, *including*
  /// buffer-blocked injections (which are also counted in
  /// injections_blocked). delivered/generated is therefore the
  /// offered-load delivery ratio under any buffer_limit; use accepted()
  /// for the count that actually entered the network.
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;       // DP
  /// Packets generated during warmup but delivered inside the measurement
  /// window. They are kept out of delivered / latency / hops / histogram
  /// (their creation predates the window, so counting them would let
  /// delivery_ratio() exceed 1 and skew latency), but tallied here so the
  /// work is visible and delivered + carryover_delivered bounds what the
  /// network actually completed in the window.
  std::uint64_t carryover_delivered = 0;
  std::uint64_t dropped = 0;         // planner failures at injection time
  std::uint64_t total_latency = 0;   // LP, cycles
  std::uint64_t total_hops = 0;      // over delivered packets
  std::uint64_t service_ops = 0;     // per-node packet handling operations
  std::uint64_t peak_in_flight = 0;
  std::uint64_t injections_blocked = 0;  // finite buffers: source was full
  std::uint64_t stalled_cycles = 0;  // cycles with traffic but no movement
  bool deadlocked = false;           // sustained global stall detected
  // Degradation accounting. fault_events / orphaned_by_node_fault are zero
  // in static-fault runs; reroutes and the two en-route drop counters can
  // be nonzero in any faulty run — fabric-steered packets re-plan at
  // fault-adjacent nodes whether the faults are static or applied mid-run.
  std::uint64_t fault_events = 0;    // schedule events applied (measured)
  std::uint64_t repairs_applied = 0;  // repair events that cleared a fault
  std::uint64_t reroutes = 0;        // planned next link died; re-planned
  std::uint64_t dropped_no_route = 0;   // no usable continuation mid-flight
  std::uint64_t dropped_hop_limit = 0;  // livelock guard tripped
  std::uint64_t orphaned_by_node_fault = 0;  // queued at a node that died
  // Transient-fault recovery accounting (zero unless SimConfig::retry_limit
  // or retry_budget is set).
  std::uint64_t parked_retries = 0;  // strandings parked for backoff retry
  std::uint64_t retransmits = 0;     // end-to-end source relaunches
  std::uint64_t gave_up = 0;         // retries and retransmits exhausted
  /// Packets still inside the network (queued, in a departure box, or
  /// parked for retry) when the run ended — the closing term of the
  /// accounting identity: generated = delivered(+carryover at warmup
  /// boundary) + dropped + injections_blocked + dropped_no_route +
  /// dropped_hop_limit + orphaned_by_node_fault + gave_up +
  /// in_flight_at_end, exact when warmup_cycles == 0. Serial field (set once after the cycle loop).
  std::uint64_t in_flight_at_end = 0;
  /// Nonzero when the run stopped early at a graceful-halt request (SIGINT
  /// via SimConfig::stop_requested, or halt_at_cycle): the cycle the loop
  /// would have entered next — i.e. the resume point of the checkpoint
  /// written on the way out. Serial field (set once, at the halt); not a
  /// simulation result, so EXCLUDED from absorb() and
  /// deterministic_equals() — a resumed run completes with 0 here while
  /// matching the uninterrupted run on every deterministic field.
  Cycle interrupted_at = 0;
  LatencyHistogram latency_histogram;
  /// Wall-clock attribution of the cycle loop, nanoseconds summed across
  /// workers (so a phase's share of the per-worker totals, not of elapsed
  /// time). Populated only when SimConfig::phase_timing is set — the
  /// steady_clock reads are cheap but not free, so benches opt in for an
  /// instrumented pass and leave timed runs clean. Diagnostics, not
  /// simulation results: EXCLUDED from deterministic_equals().
  std::uint64_t phase_drain_ns = 0;    // phase A: release drains + sort
  std::uint64_t phase_inject_ns = 0;   // phase A: injection fires/scan
  std::uint64_t phase_advance_ns = 0;  // phase B: queue service
  std::uint64_t phase_commit_ns = 0;   // fused serial section
  /// Router memoization counters over the measurement window (cache state
  /// at run() end minus the snapshot at measurement start). Diagnostics,
  /// not simulation results: under parallel execution the hit/miss split
  /// depends on thread interleaving (two workers can both miss on a key
  /// one is about to fill), so these are deliberately EXCLUDED from
  /// deterministic_equals() and carry no determinism guarantee.
  CacheStats plan_cache;
  CacheStats hop_cache;

  [[nodiscard]] double avg_latency() const {
    return delivered == 0
               ? 0.0
               : static_cast<double>(total_latency) /
                     static_cast<double>(delivered);
  }
  [[nodiscard]] double avg_hops() const {
    return delivered == 0
               ? 0.0
               : static_cast<double>(total_hops) /
                     static_cast<double>(delivered);
  }
  /// Packets that actually entered the network (offered minus blocked).
  [[nodiscard]] std::uint64_t accepted() const {
    return generated - injections_blocked;
  }
  /// Delivered fraction of the offered load — the degradation headline of
  /// the dynamic-fault studies.
  [[nodiscard]] double delivery_ratio() const {
    return generated == 0 ? 0.0
                          : static_cast<double>(delivered) /
                                static_cast<double>(generated);
  }
  /// Total packets lost to mid-flight faults, either shape. Kept as a
  /// derived view for display; the split fields are the source of truth.
  [[nodiscard]] std::uint64_t dropped_en_route() const {
    return dropped_no_route + dropped_hop_limit;
  }
  /// DP / PT with PT = measured cycles (packets per cycle).
  [[nodiscard]] double throughput() const {
    return measured_cycles == 0
               ? 0.0
               : static_cast<double>(delivered) /
                     static_cast<double>(measured_cycles);
  }
  [[nodiscard]] double log2_throughput() const;

  /// Folds a per-shard partial into this run total: additive counters sum,
  /// histograms merge bucket-wise, flags OR, peaks max, and
  /// measured_cycles keeps this object's value (a shard partial describes
  /// the same window, not an additional one). All operations are
  /// associative and commutative over disjoint shard contributions, so the
  /// reduction — performed in ascending shard order regardless — cannot
  /// depend on shard count.
  void absorb(const SimMetrics& shard) noexcept;

  /// Equality over every deterministic field, including the latency
  /// histogram. This is the parallel core's determinism contract: for a
  /// fixed seed it must hold across any shard/thread-count combination.
  /// plan_cache / hop_cache are excluded — the hit/miss split is a
  /// thread-interleaving diagnostic, not a simulation result.
  [[nodiscard]] bool deterministic_equals(const SimMetrics& o) const noexcept;
};

}  // namespace gcube
