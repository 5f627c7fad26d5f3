// Cycle-driven network simulator (paper §6 substrate).
//
// Model, matching the paper's stated assumptions:
//  * store-and-forward, unit link bandwidth: each directed link carries at
//    most one packet per cycle;
//  * eager readership: each node can serve several packets per cycle
//    (service_rate > expected arrivals), so service outpaces arrival;
//  * source routing: a packet carries its dimension sequence, planned by
//    the Router at injection;
//  * FIFO input queue per node with head-of-line blocking on a busy link;
//  * faulty nodes neither inject nor forward, and routes avoid them.
//
// Fault dynamics. In the default static mode the fault set is frozen
// before cycle 0 and routes are valid for the whole run. Dynamic-fault
// mode (the FaultSchedule constructors) models the paper's actual
// operating regime — faults that appear while packets are in flight: the
// schedule mutates the live FaultSet as the clock advances, every hop is
// verified usable at traversal time, and a packet whose precomputed next
// link just died re-plans from its current node via Router::next_hop
// (counted in SimMetrics::reroutes; packets with no usable continuation
// are dropped_no_route, packets over the livelock guard are
// dropped_hop_limit, packets queued at a dying node are
// orphaned_by_node_fault). Schedules may also contain *repair* events —
// transient faults that heal — which invalidate the routers' plan caches
// and the fault overlay exactly like failures do. With an empty schedule
// dynamic mode is bit-for-bit identical to static mode.
//
// Transient-fault recovery (off by default; SimConfig::retry_limit /
// retry_budget). Instead of hard-dropping a packet with no usable
// continuation, the simulator parks it in a bounded per-node retry queue
// and re-offers it after a deterministic exponential backoff
// (retry_backoff_base << attempt cycles); a packet that exhausts its
// attempts may consume one of retry_budget end-to-end retransmits — it is
// relaunched from its source after retransmit_timeout cycles — and only
// then counts as gave_up. Parking, waking, and retransmission all happen
// at the serial points in canonical node order, so the determinism
// contract below is unaffected. With both knobs at 0 the legacy
// hard-drop behavior is reproduced bit for bit.
//
// Execution model: node-sharded parallelism with a determinism contract.
// Nodes are partitioned into S contiguous shards, one per worker of a
// persistent ShardPool (S = SimConfig::threads, or a ThreadBudget grant
// when 0). The ENTIRE cycle loop is one dispatched pool job: every worker
// runs the loop locally and meets the others only at the barriers inside
// it, so a cycle costs rendezvous, not dispatch/join handshakes.
//
// Packets are carried by value. Each in-flight packet's per-hop state is a
// 12-byte PacketRecord (sim/packet.hpp); a shard holds the records queued
// at its nodes in one array sorted by node, so node u's FIFO input queue is
// the contiguous run of records ending at run_end[u]. Each cycle has two
// phases per worker:
//
//   phase A (drain + inject): each worker reclaims packet slots other
//     shards released into its pool, then rebuilds its sorted array with
//     ONE stable counting sort by node over, in this order: the records
//     its last phase B left queued (`stays`, with the serial point's wakes
//     and restores appended), last cycle's departures toward its nodes in
//     ascending source-shard order (its own box at its own position), and
//     this cycle's injections. Shards are contiguous and ascending, so
//     every node's run comes out in the canonical FIFO order — queue
//     contents, woken packets, arrivals in global source-node order, the
//     fire — independent of the shard count. An injection's buffer check
//     reads its node's count before the fire is counted; with finite
//     buffers the counts are also published as the occupancy snapshot;
//   phase B (forward): each worker walks its busy-node bitmap in ascending
//     order and serves each node's run in place, sequentially. Every
//     directed link is owned by its source node's shard and a node is
//     served once per cycle, so the one-packet-per-link rule is a mask of
//     the dimensions the current service has used; finite-buffer
//     backpressure reads the phase-A occupancy snapshot. A departure is
//     written as {next node, record} into a box per destination shard, and
//     the records a service leaves behind are appended to `stays`.
//
// Departure boxes toward foreign shards and the slot-release rings are
// parity double-buffered (phase B of cycle N fills buffer N & 1, phase A
// of cycle N drains buffer ~N & 1), and the packet pools use chunked,
// pointer-stable storage, so one shard's phase A can overlap another's
// phase B with no data race. A shard's box toward itself is written and
// drained by its own thread only, so it has a single buffer. With
// unbounded buffers a cycle therefore needs exactly ONE rendezvous — the
// end-of-cycle barrier, whose last arriver runs the serial commit
// (ShardPool::barrier_serial) before opening the gate. Finite-buffer runs
// add one mid-cycle barrier so backpressure reads a consistent phase-A
// occupancy snapshot.
//
// Fault-schedule application, fault-overlay refresh, and global
// accounting (in-flight depth, stall detection) happen in that fused
// serial commit. There every in-flight packet is in a `stays` array, in a
// departure box, or parked, so the serial-point code (node-death discards,
// parked wakes, stranded commits, checkpoints) works on those three. Every
// per-node decision depends only on start-of-cycle committed state,
// per-(node, cycle) counter RNG draws (util/rng.hpp), and canonical queue
// order — so for a fixed seed, the full SimMetrics (latency histogram
// included) are bit-identical for ANY thread count, including 1. That
// contract is enforced by the determinism test and lets the threads knob
// be a pure wall-clock choice.
//
// Hot-path machinery:
//
//  * Next-hop fabric steering (SimConfig::fabric, effective when the
//    router exposes a supported NextHopFabric): packets are injected with
//    NO precomputed plan. At service time, a node the FaultOverlay calls
//    clean takes the fabric's O(1) table hop with no per-link checks at
//    all (the overlay guarantees every link there is usable); a node
//    within distance 1 of a fault adopts the router's full plan from that
//    point and follows it with per-hop usability checks, re-adopting
//    (SimMetrics::reroutes) if a later fault invalidates it. This removes
//    the per-injection plan-cache lookup + shared_ptr traffic and the
//    per-hop virtual topology/fault-hash queries from the fault-free
//    common case. The overlay is refreshed at the serial points, so
//    dynamic fault schedules work unchanged.
//  * Sequential service walk: the records of consecutive busy nodes are
//    adjacent, so phase B streams through the sorted array and the boxes
//    instead of chasing a pointer per packet. The steered fault-free
//    packet — arrival test, table hop, link mask, box append — never
//    touches its cold record; records that will read theirs (planned,
//    plan-following, audited, or handed to their destination) have it
//    prefetched a fixed distance ahead of the walk.
//  * Active-set injection (SimConfig::active_set): each shard keeps a
//    timing wheel of pending injection fire times drawn from
//    TrafficModel::injection_gap, so a cycle's injection work is O(due
//    fires) instead of O(all nodes), and the service walk and the sort
//    cost O(busy nodes + handoffs) plus a bitmap sweep. Draws stay pure
//    per-(node, cycle) functions and a cycle's fires commute (each touches
//    only its own node's count), preserving the determinism contract; the
//    gap-scheduled injection realization differs from the per-cycle
//    Bernoulli scan (same distribution, different draw-stream layout), so
//    metrics are comparable but not bit-equal across the toggle itself.
//
// Two deliberate semantic refinements versus the old serial-only core,
// both required for order-independence (and covered by the contract):
// finite-buffer backpressure compares against occupancy committed at the
// start of the cycle, so a node draining k arrivals in one cycle may
// overshoot buffer_limit by its in-degree for that cycle (the bound is
// enforced again next cycle); and peak_in_flight is accounted per cycle
// (in-flight depth after all injections) instead of per injection event —
// the same maximum, measured at cycle granularity and only during the
// measurement window.
#pragma once

#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/overlay.hpp"
#include "sim/checkpoint.hpp"
#include "routing/next_hop_table.hpp"
#include "routing/router.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "sim/shard_pool.hpp"
#include "sim/traffic.hpp"
#include "topology/topology.hpp"
#include "util/bitmap.hpp"
#include "util/rng.hpp"

namespace gcube {

struct SimConfig {
  double injection_rate = 0.02;  // packets per node per cycle
  Cycle warmup_cycles = 300;
  Cycle measure_cycles = 2000;
  std::uint32_t service_rate = 4;  // packets a node may handle per cycle
  std::uint64_t seed = 42;
  /// Per-node input buffer capacity; 0 = unbounded (the paper's eager-
  /// readership model). With finite buffers a packet only moves when the
  /// downstream node has space (backpressure), injection is blocked at a
  /// full source, and sustained global stalls are reported as deadlock —
  /// the regime where channel-dependency cycles (routing/deadlock.hpp)
  /// become observable.
  std::uint32_t buffer_limit = 0;
  /// Dynamic-fault mode livelock guard: an adaptively re-routed packet
  /// that has taken this many hops is dropped (stepwise re-plans are not
  /// guaranteed monotone under faults). 0 = auto (16 * dims + 64). At most
  /// 65535, the width of a packet record's hop count.
  std::uint32_t reroute_hop_limit = 0;
  /// Transient-fault recovery: how many times a stranded packet (no usable
  /// continuation at its current node) is parked for a backoff retry
  /// before it must retransmit or give up. Retry k waits
  /// retry_backoff_base << k cycles. 0 = legacy hard drop (bit-for-bit).
  /// Capped at 32 so the backoff shift stays in range.
  std::uint32_t retry_limit = 0;
  /// First retry delay in cycles (doubling per attempt). Must be >= 1.
  Cycle retry_backoff_base = 2;
  /// Per-node bound on concurrently parked retries; a stranding that finds
  /// its node's park full falls through to retransmit/give-up.
  std::uint32_t park_capacity = 8;
  /// End-to-end recovery: how many times a packet that exhausted its
  /// retries (or its park) is relaunched from its source with a fresh
  /// route. 0 = no retransmits.
  std::uint32_t retry_budget = 0;
  /// Cycles between a retransmit decision and the relaunch at the source.
  Cycle retransmit_timeout = 64;
  /// Worker threads for the sharded cycle loop. 0 = auto: the calling
  /// thread plus whatever the process-wide ThreadBudget grants, so nested
  /// sweeps never oversubscribe. N >= 1 = exactly N workers; counts above
  /// hardware_concurrency() are clamped to it (with a one-time stderr
  /// note) unless allow_oversubscribe is set. Metrics are bit-identical
  /// for any value at a fixed seed.
  std::uint32_t threads = 0;
  /// Honor a threads value above hardware_concurrency() literally instead
  /// of clamping. Oversubscription only slows the simulation down, but the
  /// determinism and TSan tests need it to run genuinely multithreaded on
  /// small machines.
  bool allow_oversubscribe = false;
  /// Table-driven next-hop steering (see the header comment). Effective
  /// only when the router exposes a supported NextHopFabric; otherwise the
  /// plan-at-injection path is used regardless.
  bool fabric = true;
  /// Active-set cycle loop + gap-scheduled injection (see the header
  /// comment). Off = the full per-node scan with per-cycle Bernoulli
  /// injection draws (bit-compatible with earlier versions).
  bool active_set = true;
  /// Accumulate per-phase wall-clock attribution into
  /// SimMetrics::phase_*_ns (bench instrumentation; adds steady_clock
  /// reads to the cycle loop, so timed runs leave it off).
  bool phase_timing = false;
  /// Periodic checkpointing: at the serial point ENTERING every cycle
  /// divisible by this, the full run state is saved to checkpoint_path
  /// (see sim/checkpoint.hpp for the format and guarantees). 0 = periodic
  /// checkpoints off; a halt-time checkpoint is still written when
  /// checkpoint_path is set.
  Cycle checkpoint_every = 0;
  /// Checkpoint file path; empty = checkpointing off entirely. Writes are
  /// atomic (tmp + rename) with a two-generation rotation ("<path>.1").
  std::string checkpoint_path;
  /// Resume from this checkpoint file instead of starting at cycle 0
  /// (falling back to its previous generation when it is corrupt or
  /// truncated). The semantic configuration must match the checkpoint's
  /// recorded parameters — threads and SIMD level may differ freely — or
  /// run() throws a CheckpointError naming the mismatched field.
  std::string resume_from;
  /// Crash-fault injection: hard std::_Exit(137) — no unwinding, no
  /// cleanup, as a kill -9 would land — at the serial point entering this
  /// cycle, AFTER any checkpoint due at that same point has been made
  /// durable. 0 = off. The GCUBE_CRASH_AT_CYCLE environment variable
  /// overrides this value.
  Cycle crash_at_cycle = 0;
  /// Graceful halt: when non-null and the pointee is true at a serial
  /// point, the run stops there — writing a final checkpoint first when
  /// checkpoint_path is set — and returns partial metrics with
  /// SimMetrics::interrupted_at recording the resume cycle. The pointee
  /// is typically flipped from a signal handler (sim_cli's SIGINT/
  /// SIGTERM path); atomic, so no handshake with the workers is needed.
  const std::atomic<bool>* stop_requested = nullptr;
  /// Deterministic graceful halt at the serial point entering this cycle
  /// — exactly the path a stop request takes, at a reproducible point.
  /// Test knob for checkpoint round-trips. 0 = off.
  Cycle halt_at_cycle = 0;
};

class NetworkSim {
 public:
  /// All references must outlive the simulator. The default-constructed
  /// form uses the paper's uniform random traffic at
  /// config.injection_rate; pass a TrafficModel to change the workload.
  NetworkSim(const Topology& topo, const Router& router,
             const FaultSet& faults, const SimConfig& config);
  NetworkSim(const Topology& topo, const Router& router,
             const FaultSet& faults, const SimConfig& config,
             const TrafficModel& traffic);

  /// Dynamic-fault mode: `faults` is mutated in place as `schedule` events
  /// fall due, so it must be the same object the router (and any traffic
  /// model) consults. Events are validated against the topology.
  NetworkSim(const Topology& topo, const Router& router, FaultSet& faults,
             const SimConfig& config, const FaultSchedule& schedule);
  NetworkSim(const Topology& topo, const Router& router, FaultSet& faults,
             const SimConfig& config, const TrafficModel& traffic,
             const FaultSchedule& schedule);

  /// Runs warmup + measurement and returns the measurement-window metrics.
  /// Simulation state is rebuilt from scratch on every call.
  [[nodiscard]] SimMetrics run();

 private:
  /// A packet record tagged with the node it is queued at or headed to:
  /// the unit of the departure boxes, `stays` and the stranded list.
  struct NodeRecord {
    NodeId node;
    PacketRecord rec;
  };

  /// Everything one worker owns, cache-line-aligned so two workers'
  /// accumulators never share a line. Workers touch only their own shard
  /// during a phase, except for the cross-shard reads the phase structure
  /// makes safe (box and release-ring drains, cold-record dereferences in
  /// the phase that cannot race them).
  struct alignas(64) Shard {
    NodeId begin = 0;  // nodes [begin, end) — contiguous, ascending
    NodeId end = 0;
    PacketPool pool;         // grown/released by the owner thread only
    SimMetrics metrics;      // per-shard partial, absorbed after the run
    /// This cycle's queued records, sorted by node (stable, so each node's
    /// run is its FIFO queue, front first). Rebuilt by every phase A,
    /// consumed by phase B.
    RecordList<PacketRecord> cur;
    /// Bit (u - begin) set iff node u has a non-empty run in `cur`.
    NodeBitmap busy;
    /// run_end[u - begin]: one past the last record of node u's run in
    /// `cur` — meaningful for busy nodes only. Phase A's counting sort
    /// uses the same slot for the count and then the start offset; phase
    /// B zeroes it as it serves the run, so every slot is 0 again when the
    /// next phase A starts counting.
    std::vector<std::uint32_t> run_end;
    /// Records phase B left queued, in service order (ascending node, FIFO
    /// within a node); the serial point appends wakes and restores. The
    /// next phase A sorts them in first.
    RecordList<NodeRecord> stays;
    /// Departures by destination shard. Toward a foreign shard d, phase B
    /// of cycle N fills box[N & 1][d] and d's phase A of cycle N + 1
    /// drains it; the box toward this shard is box[0][own index] whatever
    /// the parity, since the same thread fills and drains it.
    std::array<std::vector<RecordList<NodeRecord>>, 2> box;
    /// This cycle's injections, in fire order (phase A scratch).
    RecordList<NodeRecord> fresh;
    /// Foreign packet slots freed in phase B, addressed by the slot's home
    /// shard and drained by that shard's next phase A into its own pool
    /// (same parity scheme as the foreign boxes).
    std::array<std::vector<RecordList<PacketRef>>, 2> released;
    /// Pending injection fire times: a timing wheel of kWheelSize cycle
    /// buckets (O(1) schedule/drain; unambiguous because every wheel entry
    /// lies within kWheelSize cycles of now) with a far heap for the rare
    /// fire scheduled further out, keyed (cycle << kFireNodeBits) | node.
    /// At most one entry per node across both (a node reschedules only
    /// when its fire is consumed), so the wheel's size is bounded by the
    /// shard's node count: a drained bucket releases its buffer. A cycle's
    /// due nodes fire in bucket order; fires at distinct nodes commute
    /// (see phase_inject), so no order is canonical.
    std::vector<std::vector<NodeId>> wheel;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        far_fires;
    /// Active-set mode: byte (u - begin) set iff node u has a pending
    /// injection fire in the wheel or far heap. Lets a repair event re-arm
    /// a node whose fire was consumed while it was ineligible without ever
    /// double-scheduling one.
    std::vector<std::uint8_t> armed;
    /// Recovery mode: packets that found no usable continuation this
    /// cycle, in service order (= ascending node order). Drained at the
    /// serial commit into the park / retransmit / give-up decision.
    RecordList<NodeRecord> stranded;
    std::uint64_t injected = 0;  // this cycle
    std::uint64_t removed = 0;   // delivered + dropped this cycle
    bool moved = false;          // any service progress this cycle
    std::exception_ptr error;    // first phase failure, rethrown serially
  };

  /// The single delegation target of every public constructor; `traffic`
  /// may be null (the built-in uniform model is used).
  NetworkSim(const Topology& topo, const Router& router,
             const FaultSet& faults, const SimConfig& config,
             const TrafficModel* traffic);

  /// Validates the schedule (in-range, sorted by cycle) and switches the
  /// simulator to dynamic-fault mode.
  void attach_schedule(FaultSet& faults, const FaultSchedule& schedule);

  /// Resolves the worker count and (re)builds all run state: shards with
  /// balanced contiguous node ranges and nothing queued.
  void configure_shards(unsigned shard_count);
  [[nodiscard]] unsigned shard_of(NodeId u) const noexcept;
  [[nodiscard]] PacketCold& cold_of(PacketRef ref) noexcept {
    return shards_[packet_ref_shard(ref)].pool.cold(packet_ref_slot(ref));
  }
  /// The box worker w fills toward shard d in the cycle with parity
  /// `parity` (and that d's next phase A drains).
  [[nodiscard]] RecordList<NodeRecord>& box_of(unsigned w, unsigned d,
                                               unsigned parity) noexcept {
    return shards_[w].box[w == d ? 0 : parity][d];
  }
  /// Drops the plan refcount and hop log a leaving packet's cold record
  /// holds; touches the cold record only when the flags say it holds one.
  void drop_resources(const PacketRecord& rec) noexcept {
    if ((rec.flags & (kPktHasPlan | kPktAudited)) != 0) {
      PacketCold& c = cold_of(rec.ref);
      c.plan.reset();
      c.tail.release();
    }
  }
  /// Frees a packet from worker w's phase B of the cycle with parity
  /// `parity`: its resources here, its slot directly when w owns the pool,
  /// via the released ring (drained by the home shard's next phase A) when
  /// it does not.
  void release_ref(unsigned w, const PacketRecord& rec, unsigned parity);
  /// Frees a packet at a serial point, straight into its home pool.
  void release_serial(const PacketRecord& rec);
  /// Queues `rec` at node u from a serial point: appended to the stays of
  /// u's shard, behind whatever u already holds.
  void requeue_serial(NodeId u, const PacketRecord& rec) {
    shards_[shard_of(u)].stays.push_back({u, rec});
  }

  /// Applies every schedule event due at `now` (serial point), orphans
  /// packets queued at — or in a box toward — nodes that just died,
  /// re-arms injection at repaired nodes, and refreshes the fault overlay.
  void apply_fault_events(Cycle now, bool measuring);
  /// Serial point: re-offers every parked packet whose wake time is due —
  /// retries resume at their strand node, retransmits relaunch from the
  /// source — in deterministic (wake cycle, park order) order. Runs after
  /// apply_fault_events so same-cycle repairs are visible to the retry.
  void wake_parked(Cycle now, bool measuring);
  /// Serial point: drains the shards' stranded lists (ascending shard =
  /// ascending node order) into parked retries, retransmits, or give-ups.
  /// Adds packets permanently removed here to `gave_up_removed`.
  void commit_stranded(Cycle now, bool measuring,
                       std::uint64_t& gave_up_removed);
  /// Active-set mode: files a fresh injection fire for a just-repaired
  /// node whose previous fire was consumed while it was faulty.
  void rearm_injection(NodeId u, Cycle now);
  /// Phase A: reclaim slots, sort stays + arrivals + injections by node,
  /// publish occupancy.
  void phase_inject(unsigned w, Cycle now, bool measuring);
  /// Phase B: walk the busy nodes, forward/deliver/drop, fill the boxes.
  void phase_forward(unsigned w, Cycle now, bool measuring);
  /// Counts one record toward node u's run in phase A's counting sort.
  static void count_record(Shard& sh, NodeId u) noexcept {
    const NodeId i = u - sh.begin;
    ++sh.run_end[i];
    sh.busy.set(i);
  }
  /// Injects one packet u -> dst (offered-load + buffer accounting
  /// included); shared by the Bernoulli scan and the gap-scheduled path.
  void admit_packet(unsigned w, NodeId u, NodeId dst, Cycle now,
                    bool measuring);
  /// The id of the packet node `src` injects at cycle `created`: unique
  /// without a shared counter, and not stored — PacketCold holds both
  /// inputs. Keys the 1-in-64 audit sample.
  [[nodiscard]] std::uint64_t packet_id(Cycle created,
                                        NodeId src) const noexcept {
    return created * node_count_ + src;
  }
  /// Initial hop-log capacity of an audited packet: room for a route
  /// twice the cube's dimension before the log has to grow.
  [[nodiscard]] std::uint32_t hop_log_reserve() const noexcept {
    return 2 * static_cast<std::uint32_t>(dims_);
  }
  /// The router's plan u -> dst for a packet that will consume it from its
  /// first hop (planned injection, planned relaunch), or null when the
  /// router has none. Throws std::invalid_argument on a plan longer than
  /// kMaxPacketHops: its hop cursor would not fit the record.
  [[nodiscard]] std::shared_ptr<const Route> plan_from(NodeId u,
                                                       NodeId dst) const;
  /// Consumes a due injection fire at u: draws the destination, admits the
  /// packet, and reschedules from the gap distribution. `key` is
  /// counter_key(seed, u, now) — precomputed so the fire bucket can batch
  /// the keying in SIMD lanes.
  void fire_injection(unsigned w, NodeId u, Cycle now, std::uint64_t key,
                      bool measuring);
  /// Delivers `rec`: the audited replay check, the delivery accounting,
  /// and the release.
  void deliver(unsigned w, const PacketRecord& rec, Cycle now,
               bool measuring);
  /// The full per-packet decision tree of one service at u: deliver, drop,
  /// strand, or pick a hop and depart unless its link is taken
  /// (`links_used`) or its next node is full. Returns false when the
  /// packet is blocked, leaving in `rec` what the decision changed.
  bool serve_record(unsigned w, NodeId u, bool clean, PacketRecord& rec,
                    std::uint32_t& links_used, Cycle now, bool measuring);
  /// Hands `rec`, one hop further, to next node v: into worker w's box
  /// toward v's shard.
  void depart(unsigned w, NodeId v, PacketRecord rec, unsigned parity) {
    ++rec.hops;
    rec.flags = static_cast<std::uint16_t>((rec.flags & ~kPktAtDst) |
                                           (v == rec.dst ? kPktAtDst : 0));
    Shard& sh = shards_[w];
    if (v - sh.begin < sh.end - sh.begin) {
      sh.box[0][w].push_back({v, rec});
    } else {
      sh.box[parity][shard_of(v)].push_back({v, rec});
    }
  }
  /// Releases every packet queued at or in transit to a node in `dead`
  /// (sorted, serial point) in one pass over the stays and the boxes;
  /// returns how many.
  std::size_t discard_packets_at(const std::vector<NodeId>& dead);

  /// Node index width inside a far-fire key; node_count <= 2^kMaxDimension
  /// by construction, leaving 64 - kFireNodeBits bits of cycle headroom.
  static constexpr unsigned kFireNodeBits = kMaxDimension;
  static constexpr std::uint64_t kFireNodeMask =
      (std::uint64_t{1} << kFireNodeBits) - 1;
  /// Runs are refused at construction unless warmup + measure < this, so
  /// every fire key's cycle field fits.
  static constexpr Cycle kMaxCycles = Cycle{1} << (64 - kFireNodeBits);
  /// Timing-wheel span: covers the mean gap up to injection rates around
  /// 1/kWheelSize; rarer-firing nodes overflow to the far heap.
  static constexpr std::uint64_t kWheelBits = 13;
  static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;

  /// Files a pending injection for node u at cycle `at` (> now except at
  /// pre-run seeding, where `at` may equal cycle 0).
  void schedule_fire(Shard& sh, Cycle now, Cycle at, NodeId u);

  /// Captures the full run state at the serial point entering cycle
  /// `next`, in canonical shard-count-independent form: per-node
  /// effective queues (the node's stays followed by its pending box
  /// arrivals in phase-A drain order), parked entries in wake order,
  /// pending fires as absolute (cycle, node), fault state, and the folded
  /// metrics. See sim/checkpoint.hpp.
  [[nodiscard]] SimCheckpoint capture_checkpoint(Cycle next);
  /// Rebuilds run state from a loaded checkpoint (must run after
  /// configure_shards, before the overlay refresh and the cycle loop).
  /// Throws CheckpointError naming the failing section on any config
  /// mismatch or structural inconsistency.
  void apply_checkpoint(const SimCheckpoint& ck);
  /// Serializes / rematerializes one packet. `w` is the pool shard the
  /// restored slot is acquired from (serial-point call, so touching any
  /// pool is safe); `node` is where it is queued or parked (it sets the
  /// at-destination hint); `section` names the checkpoint section for
  /// errors.
  [[nodiscard]] CheckpointPacket capture_packet(const PacketRecord& rec);
  [[nodiscard]] PacketRecord restore_packet(unsigned w, NodeId node,
                                            const CheckpointPacket& p,
                                            const char* section);

  /// The fused per-cycle serial section, run by the LAST worker arriving
  /// at the end-of-cycle barrier (ShardPool::barrier_serial): collects
  /// shard errors, folds per-cycle counters into the global accounting,
  /// commits stranded packets, detects stalls/deadlock, and performs the
  /// next cycle's pre-work (fault events, parked wakes) — or sets
  /// stop_run_ when the run is over. Must not throw; failures land in
  /// serial_error_.
  void serial_commit(Cycle now) noexcept;
  /// Pre-work for cycle `now`: measurement-window cache-stat scoping,
  /// fault-schedule application, parked-retry wakes.
  void cycle_prework(Cycle now);

  const Topology& topo_;
  const Router& router_;
  const FaultSet& faults_;
  SimConfig config_;
  UniformTraffic default_traffic_;   // used when no model is supplied
  const TrafficModel& traffic_;
  /// Dense link-usability masks; refreshed at serial points, read by all
  /// workers. Backs every usability check (legacy paths included — its
  /// answer is pure-function-equal to topo.has_link && faults.link_usable).
  FaultOverlay overlay_;
  /// The router's table fabric when present AND supported; null otherwise.
  const NextHopFabric* fabric_ = nullptr;
  bool steer_ = false;       // config_.fabric && fabric_ != nullptr
  bool active_set_ = false;  // config_.active_set
  bool timing_ = false;      // config_.phase_timing
  /// Dispatch level for the vector kernels (counter-RNG batches),
  /// snapshotted from simd_level() at construction so the hot loops take a
  /// plain branch instead of an atomic load. All levels produce
  /// bit-identical metrics (GCUBE_SIMD / --simd / the determinism sweep
  /// select between them).
  SimdLevel simd_ = SimdLevel::kScalar;
  /// True while the fault set is empty; refreshed at the serial points.
  /// Lets steering skip the per-node overlay loads entirely on fault-free
  /// runs (every node is trivially clean).
  bool no_faults_ = false;
  Cycle total_cycles_ = 0;   // warmup + measure, for fire scheduling
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> occ_;  // phase-A occupancy snapshot
  SimMetrics metrics_;  // serial/global fields; shard partials absorbed in
  std::uint64_t in_flight_ = 0;
  // Transient-fault recovery state (all serial-point only). The multimap
  // preserves insertion order among equal wake cycles, so processing is
  // deterministic; parked packets stay counted in in_flight_.
  bool retries_ = false;  // retry_limit > 0 || retry_budget > 0
  struct Parked {
    NodeId node = 0;     // where the packet resumes (strand node or src)
    PacketRecord rec{};
    bool respawn = false;  // end-to-end retransmit: reset route state
  };
  std::multimap<Cycle, Parked> parked_;
  std::vector<std::uint16_t> parked_count_;  // per-node local-park depth
  std::uint64_t parked_now_ = 0;  // all parked entries (stall exemption)
  ShardPool* pool_ = nullptr;        // valid while run() is on the stack
  // Fused-loop control, written only in the serial section (or before the
  // dispatch) and read by workers after the barrier edge.
  bool ab_barrier_ = false;   // phase A->B barrier needed (finite buffers)
  bool stop_run_ = false;     // set when the loop must end after this cycle
  std::exception_ptr serial_error_;  // first failure, rethrown after join
  Cycle consecutive_stalls_ = 0;
  /// Crash-injection cycle, resolved at run() start from
  /// config_.crash_at_cycle and the GCUBE_CRASH_AT_CYCLE environment
  /// override. 0 = no crash.
  Cycle crash_at_ = 0;
  RouterCacheStats cache_base_{};
  bool cache_base_set_ = false;
  // Node-range split: the first range_rem_ shards own range_base_ + 1
  // nodes, the rest range_base_ (contiguous ascending).
  NodeId range_base_ = 0;
  NodeId range_rem_ = 0;
  // Dynamic-fault mode state (live_faults_ == nullptr in static mode).
  FaultSet* live_faults_ = nullptr;
  std::vector<FaultEvent> schedule_events_;  // sorted by cycle
  std::size_t next_event_ = 0;
  std::uint32_t hop_limit_ = 0;
  // Topology geometry, cached out of the per-hop path (the Topology
  // accessors are virtual).
  Dim dims_ = 0;
  std::uint64_t node_count_ = 0;
};

}  // namespace gcube
