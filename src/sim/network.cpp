#include "sim/network.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "sim/advance_simd.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace gcube {

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       const FaultSet& faults, const SimConfig& config,
                       const TrafficModel* traffic)
    : topo_(topo),
      router_(router),
      faults_(faults),
      config_(config),
      default_traffic_(topo.node_count(), config.injection_rate, faults,
                       config.seed),
      traffic_(traffic != nullptr ? *traffic : default_traffic_),
      hop_limit_(config.reroute_hop_limit != 0 ? config.reroute_hop_limit
                                               : 16 * topo.dims() + 64) {
  GCUBE_REQUIRE(config.service_rate >= 1, "service rate must be positive");
  GCUBE_REQUIRE(config.measure_cycles >= 1, "nothing to measure");
  // Far-heap fire keys pack (cycle << kFireNodeBits) | node into 64 bits.
  GCUBE_REQUIRE(config.warmup_cycles < kMaxCycles &&
                    config.measure_cycles < kMaxCycles - config.warmup_cycles,
                "warmup + measure cycles must stay below 2^38, the cycle "
                "range of an injection fire key");
  GCUBE_REQUIRE(config.threads <= kMaxPoolShards,
                "thread count exceeds the packet-reference shard space");
  GCUBE_REQUIRE(config.retry_limit <= 32,
                "retry limit above 32 would overflow the backoff shift");
  GCUBE_REQUIRE(config.retry_backoff_base >= 1,
                "retry backoff base must be at least one cycle");
  GCUBE_REQUIRE(config.retry_budget == 0 || config.retransmit_timeout >= 1,
                "retransmit timeout must be at least one cycle");
  retries_ = config.retry_limit > 0 || config.retry_budget > 0;
  dims_ = topo.dims();
  node_count_ = topo.node_count();
  overlay_.attach(topo_);
  const NextHopFabric* fabric = router_.fabric();
  if (fabric != nullptr && fabric->supported()) fabric_ = fabric;
  steer_ = config_.fabric && fabric_ != nullptr;
  active_set_ = config_.active_set;
  // The scalar escape hatch: --no-batch / SimConfig::batch = false, or the
  // process-wide environment override the CI equivalence leg uses to force
  // every simulation in a test binary onto the scalar scan.
  batch_ = config_.batch && active_set_ &&
           std::getenv("GCUBE_SIM_NO_BATCH") == nullptr;
  timing_ = config_.phase_timing;
  simd_ = simd_level();
}

namespace {
[[nodiscard]] std::uint64_t ns_between(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
}  // namespace

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       const FaultSet& faults, const SimConfig& config)
    : NetworkSim(topo, router, faults, config, nullptr) {}

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       const FaultSet& faults, const SimConfig& config,
                       const TrafficModel& traffic)
    : NetworkSim(topo, router, faults, config, &traffic) {}

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       FaultSet& faults, const SimConfig& config,
                       const FaultSchedule& schedule)
    : NetworkSim(topo, router, static_cast<const FaultSet&>(faults), config,
                 nullptr) {
  attach_schedule(faults, schedule);
}

NetworkSim::NetworkSim(const Topology& topo, const Router& router,
                       FaultSet& faults, const SimConfig& config,
                       const TrafficModel& traffic,
                       const FaultSchedule& schedule)
    : NetworkSim(topo, router, static_cast<const FaultSet&>(faults), config,
                 &traffic) {
  attach_schedule(faults, schedule);
}

void NetworkSim::attach_schedule(FaultSet& faults,
                                 const FaultSchedule& schedule) {
  const std::vector<FaultEvent>& events = schedule.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    GCUBE_REQUIRE(e.node < topo_.node_count(),
                  "fault event node out of range");
    GCUBE_REQUIRE(!e.targets_link() || e.dim < topo_.dims(),
                  "fault event dimension out of range");
    // apply_fault_events consumes the list front to back and would
    // silently skip any event filed behind a later-cycle one.
    GCUBE_REQUIRE(i == 0 || events[i - 1].cycle <= e.cycle,
                  "fault schedule events must be sorted by cycle");
  }
  live_faults_ = &faults;
  schedule_events_ = events;
}

void NetworkSim::configure_shards(unsigned shard_count) {
  const std::uint64_t nodes = topo_.node_count();
  auto count = static_cast<std::uint64_t>(shard_count);
  if (count > nodes) count = nodes;  // empty shards buy nothing
  if (count > kMaxPoolShards) count = kMaxPoolShards;
  if (count == 0) count = 1;
  shards_.clear();
  shards_.resize(count);
  range_base_ = static_cast<NodeId>(nodes / count);
  range_rem_ = static_cast<NodeId>(nodes % count);
  NodeId begin = 0;
  for (std::uint64_t s = 0; s < count; ++s) {
    Shard& sh = shards_[s];
    sh.begin = begin;
    sh.end = begin + range_base_ + (s < range_rem_ ? 1 : 0);
    for (auto& parity : sh.outbox) parity.resize(count);
    for (auto& parity : sh.released) parity.resize(count);
    if (active_set_) {
      sh.active.reset(sh.end - sh.begin);
      sh.wheel.assign(kWheelSize, {});
      sh.far_fires = {};
      sh.armed.assign(sh.end - sh.begin, 0);
    }
    begin = sh.end;
  }
  queues_.assign(nodes, {});
  occ_.assign(config_.buffer_limit != 0 ? nodes : 0, 0);
  in_flight_ = 0;
  parked_.clear();
  parked_count_.assign(retries_ ? nodes : 0, 0);
  parked_now_ = 0;
}

unsigned NetworkSim::shard_of(NodeId u) const noexcept {
  // Single-shard runs skip the divisions below — they sit on the per-hop
  // mailbox path and are pure overhead when there is only one owner.
  if (shards_.size() == 1) return 0;
  // Contiguous split: the first range_rem_ shards are one node wider.
  const NodeId wide = range_base_ + 1;
  const NodeId split = range_rem_ * wide;
  if (u < split) return static_cast<unsigned>(u / wide);
  return static_cast<unsigned>(
      range_rem_ + (u - split) / (range_base_ == 0 ? 1 : range_base_));
}

void NetworkSim::release_ref(unsigned w, PacketRef ref, unsigned parity) {
  const unsigned home = packet_ref_shard(ref);
  if (home == w) {
    shards_[home].pool.release(packet_ref_slot(ref));
  } else {
    // Foreign pools may not be touched from phase B (their owners grow and
    // release into them concurrently); route the slot home through the
    // current-parity release ring, drained by the owner's next phase A.
    shards_[w].released[parity][home].push_back(ref);
  }
}

std::size_t NetworkSim::discard_packets_at(NodeId u) {
  std::size_t lost = 0;
  NodeQueue& queue = queues_[u];
  while (queue.size != 0) {
    const PacketRef ref = queue_pop(queue);
    shards_[packet_ref_shard(ref)].pool.release(packet_ref_slot(ref));
    ++lost;
  }
  // Packets already forwarded to u but still parked in a mailbox are lost
  // with it too; rotate each ring once, keeping survivors in order. At
  // this serial point only one parity holds undrained arrivals, but
  // scanning both costs nothing (the other is empty).
  const unsigned dst_shard = shard_of(u);
  for (Shard& src : shards_) {
    for (auto& parity : src.outbox) {
      Ring<Arrival>& box = parity[dst_shard];
      for (std::size_t i = box.size(); i > 0; --i) {
        const Arrival a = box.front();
        box.pop_front();
        if (a.node == u) {
          shards_[packet_ref_shard(a.ref)].pool.release(
              packet_ref_slot(a.ref));
          ++lost;
        } else {
          box.push_back(a);
        }
      }
    }
  }
  return lost;
}

void NetworkSim::apply_fault_events(Cycle now, bool measuring) {
  while (next_event_ < schedule_events_.size() &&
         schedule_events_[next_event_].cycle <= now) {
    const FaultEvent& e = schedule_events_[next_event_++];
    if (measuring) ++metrics_.fault_events;
    switch (e.kind) {
      case FaultEvent::Kind::kLink:
        live_faults_->fail_link(e.node, e.dim);
        break;
      case FaultEvent::Kind::kNode: {
        live_faults_->fail_node(e.node);
        // Packets sitting at (or in transit to) the dead node are lost
        // with it. (Parked retries at it survive until their wake cycle,
        // where the same orphan accounting applies.)
        const std::size_t lost = discard_packets_at(e.node);
        if (lost > 0) {
          in_flight_ -= lost;
          if (measuring) metrics_.orphaned_by_node_fault += lost;
        }
        break;
      }
      case FaultEvent::Kind::kRepairLink:
        if (live_faults_->repair_link(e.node, e.dim) && measuring) {
          ++metrics_.repairs_applied;
        }
        break;
      case FaultEvent::Kind::kRepairNode:
        if (live_faults_->repair_node(e.node)) {
          if (measuring) ++metrics_.repairs_applied;
          // The node's injection fire may have been consumed while it was
          // dead (gap-scheduled mode deschedules ineligible nodes); give
          // it a fresh one so traffic resumes.
          if (active_set_) rearm_injection(e.node, now);
        }
        break;
    }
  }
  // Serial point: bring the overlay masks up to date before workers read
  // them. No-op (one version compare) when nothing changed. A repair bumps
  // the fault set's generation, which forces the full rebuild an
  // incremental (append-only) refresh cannot express.
  overlay_.refresh(faults_);
  no_faults_ = faults_.empty();
}

void NetworkSim::rearm_injection(NodeId u, Cycle now) {
  Shard& sh = shards_[shard_of(u)];
  if (sh.armed[u - sh.begin] != 0) return;  // a live fire already exists
  if (!traffic_.eligible(u)) return;
  // Dedicated re-arm draw stream: keyed off a salted seed so it can never
  // collide with the per-(node, cycle) injection draws — and is a pure
  // function of (seed, node, repair cycle), preserving determinism.
  constexpr std::uint64_t kRearmSalt = 0x7265'6172'6d21'9e37ull;
  CounterRng rng(counter_key(config_.seed ^ kRearmSalt, u, now));
  const std::uint64_t gap = traffic_.injection_gap(u, rng);
  // Same convention as the pre-run seeding: a gap of g fires g - 1 cycles
  // out, so the repair cycle itself injects with the usual probability.
  if (gap == TrafficModel::kNeverGap || gap - 1 >= total_cycles_ - now) {
    return;
  }
  schedule_fire(sh, now, now + gap - 1, u);
}

void NetworkSim::commit_stranded(Cycle now, bool measuring,
                                 std::uint64_t& gave_up_removed) {
  // Ascending shard order = ascending strand-node order (phase B serves
  // nodes in ascending order within each contiguous shard), so the park /
  // retransmit / give-up decisions — which consume shared budgets like
  // park_capacity — are identical for any shard count.
  for (Shard& sh : shards_) {
    while (!sh.stranded.empty()) {
      const Arrival s = sh.stranded.front();
      sh.stranded.pop_front();
      PacketCold& p = cold_of(s.ref);
      if (p.retry_attempts < config_.retry_limit &&
          parked_count_[s.node] < config_.park_capacity) {
        const Cycle delay = config_.retry_backoff_base << p.retry_attempts;
        ++p.retry_attempts;
        parked_.emplace(now + delay, Parked{s.node, s.ref, false});
        ++parked_count_[s.node];
        ++parked_now_;
        if (measuring) ++metrics_.parked_retries;
      } else if (p.retransmits_used < config_.retry_budget) {
        // End-to-end recovery: relaunch from the source after the timeout
        // with a clean slate of local retries.
        ++p.retransmits_used;
        p.retry_attempts = 0;
        parked_.emplace(now + config_.retransmit_timeout,
                        Parked{p.src, s.ref, true});
        ++parked_now_;
        if (measuring) ++metrics_.retransmits;
      } else {
        shards_[packet_ref_shard(s.ref)].pool.release(packet_ref_slot(s.ref));
        ++gave_up_removed;
        if (measuring) ++metrics_.gave_up;
      }
    }
  }
}

void NetworkSim::wake_parked(Cycle now, bool measuring) {
  while (!parked_.empty() && parked_.begin()->first <= now) {
    const Parked pk = parked_.begin()->second;
    parked_.erase(parked_.begin());
    --parked_now_;
    if (!pk.respawn) --parked_count_[pk.node];
    const auto release = [&] {
      shards_[packet_ref_shard(pk.ref)].pool.release(packet_ref_slot(pk.ref));
      --in_flight_;
    };
    if (faults_.node_faulty(pk.node)) {
      // The wake site died while the packet was parked: lost with it.
      release();
      if (measuring) ++metrics_.orphaned_by_node_fault;
      continue;
    }
    if (pk.respawn) {
      // Fresh launch from the source: same id/created (latency measures
      // end-to-end including the recovery delay), new route state. The
      // audit-sample membership is a pure function of the id, so the flag
      // survives the reset.
      PacketHot& h = hot_of(pk.ref);
      PacketCold& c = cold_of(pk.ref);
      c.plan.reset();
      c.steer_next = 0;
      c.tail.clear();
      h.hops = 0;
      h.plan_len = 0;
      h.flags = (h.flags & kPktAudited) | (steer_ ? kPktSteered : 0);
      if (!steer_) {
        std::shared_ptr<const Route> planned =
            router_.plan_shared(c.src, h.dst);
        if (planned == nullptr) {
          // The planner sees no path at relaunch time; the retransmit is
          // spent and the packet is out of options.
          release();
          if (measuring) ++metrics_.gave_up;
          continue;
        }
        h.plan_len = static_cast<std::uint32_t>(planned->length());
        c.plan = std::move(planned);
        h.flags |= kPktHasPlan;
      }
    }
    // Re-entry bypasses buffer_limit: the packet never left the network,
    // so blocking it here would leak it from the accounting.
    queue_push(pk.node, pk.ref);
    if (active_set_) {
      Shard& sh = shards_[shard_of(pk.node)];
      sh.active.set(pk.node - sh.begin);
    }
  }
}

void NetworkSim::admit_packet(unsigned w, NodeId u, NodeId dst, Cycle now,
                              bool measuring) {
  Shard& sh = shards_[w];
  SimMetrics& m = sh.metrics;
  if (measuring) ++m.generated;
  if (config_.buffer_limit != 0 &&
      queues_[u].size >= config_.buffer_limit) {
    if (measuring) ++m.injections_blocked;
    return;
  }
  std::shared_ptr<const Route> planned;
  std::uint32_t plan_len = 0;
  if (!steer_) {
    planned = router_.plan_shared(u, dst);
    if (planned == nullptr) {
      if (measuring) ++m.dropped;
      return;
    }
    plan_len = static_cast<std::uint32_t>(planned->length());
  }
  // Steered packets launch with no plan at all: the fabric tables (or an
  // adopted plan near faults) decide every hop at service time. release()
  // leaves recycled slots with flags == 0 and a clear tail, so every other
  // field is (re)initialized here.
  const PacketIndex slot = sh.pool.acquire();
  PacketHot& h = sh.pool.hot(slot);
  PacketCold& c = sh.pool.cold(slot);
  const bool audited = (packet_id(now, u) & 63) == 0;
  h.dst = dst;
  h.hops = 0;
  h.plan_len = plan_len;
  h.flags = (steer_ ? kPktSteered : 0) |
            (planned != nullptr ? kPktHasPlan : 0) |
            (audited ? kPktAudited : 0);
  // The audited sample's hop log is allocated here, by the slot's owner,
  // and freed by release(); its pushes happen wherever the packet is
  // served.
  if (audited) c.tail.reserve(hop_log_reserve());
  c.src = u;
  c.created = now;
  c.plan = std::move(planned);
  c.steer_next = 0;
  c.retry_attempts = 0;
  c.retransmits_used = 0;
  queue_push(u, make_packet_ref(w, slot));
  if (active_set_) sh.active.set(u - sh.begin);
  ++sh.injected;
}

void NetworkSim::fire_injection(unsigned w, NodeId u, Cycle now,
                                std::uint64_t key, bool measuring) {
  shards_[w].armed[u - shards_[w].begin] = 0;  // this fire is consumed
  // A node that became ineligible since scheduling is descheduled; if a
  // later repair-node event makes it eligible again, rearm_injection gives
  // it a fresh fire.
  if (!traffic_.eligible(u)) return;
  // Per-(node, cycle) draw stream: destination and the next gap are pure
  // functions of (seed, u, now), never of pop or thread order. The key was
  // batched across the fire bucket by the caller.
  CounterRng rng(key);
  const NodeId dst = traffic_.pick_destination(u, rng);
  admit_packet(w, u, dst, now, measuring);
  // The gap is drawn whether or not the buffer admitted the packet, so
  // offered load is independent of buffer_limit, as in the scan path.
  const std::uint64_t gap = traffic_.injection_gap(u, rng);
  if (gap == TrafficModel::kNeverGap || gap >= total_cycles_ - now) return;
  schedule_fire(shards_[w], now, now + gap, u);
}

void NetworkSim::schedule_fire(Shard& sh, Cycle now, Cycle at, NodeId u) {
  sh.armed[u - sh.begin] = 1;
  if (at - now < kWheelSize) {
    // Within the wheel's span the bucket index is unambiguous: no other
    // pending cycle in [now, now + kWheelSize) shares it.
    sh.wheel[at & (kWheelSize - 1)].push_back(u);
  } else {
    sh.far_fires.push((at << kFireNodeBits) | u);
  }
}

void NetworkSim::phase_inject(unsigned w, Cycle now, bool measuring) {
  Shard& sh = shards_[w];
  sh.injected = 0;
  sh.removed = 0;
  sh.moved = false;
  std::chrono::steady_clock::time_point t0, t1;
  if (timing_) t0 = std::chrono::steady_clock::now();
  // Batch-drain the opposite-parity rings: slots other shards released
  // from this pool, then last cycle's arrivals in ascending source-shard
  // order; shards are contiguous and ascending, so that equals ascending
  // source-node order — the canonical queue order, independent of shard
  // count. Indexed batch + clear instead of per-packet pop_front: one
  // bounds check and head/count update per ring, not per handoff.
  const unsigned prev = static_cast<unsigned>(~now & 1);
  const auto shard_count = static_cast<unsigned>(shards_.size());
  for (unsigned s = 0; s < shard_count; ++s) {
    Ring<PacketRef>& rel = shards_[s].released[prev][w];
    const std::size_t freed = rel.size();
    for (std::size_t i = 0; i < freed; ++i) {
      sh.pool.release(packet_ref_slot(rel.at(i)));
    }
    rel.clear();
    Ring<Arrival>& box = shards_[s].outbox[prev][w];
    const std::size_t arrivals = box.size();
    for (std::size_t i = 0; i < arrivals; ++i) {
      // The destination records are scattered across the queue table;
      // stay a few arrivals ahead of the pushes.
      if (i + kPrefetchAhead < arrivals) {
        prefetch_write(&queues_[box.at(i + kPrefetchAhead).node]);
      }
      const Arrival a = box.at(i);
      queue_push(a.node, a.ref);
      if (active_set_) sh.active.set(a.node - sh.begin);
    }
    box.clear();
  }
  if (timing_) {
    t1 = std::chrono::steady_clock::now();
    sh.metrics.phase_drain_ns += ns_between(t0, t1);
  }
  if (active_set_) {
    // Event-driven injection: only nodes whose fire time is due do any
    // work this cycle. Far-heap stragglers join the wheel bucket. Fires
    // reschedule into later buckets (or the far heap), never the one being
    // drained.
    //
    // The bucket is fired in whatever order it was filled: fires at
    // distinct nodes commute. A node has at most one pending fire; its
    // draws are keyed on (seed, node, cycle); and admit_packet touches
    // only that node's queue, its active bit and the shard's own pool and
    // counters. The one order-dependent outcome — which pool slot each
    // packet gets — already differs across thread counts and never reaches
    // the metrics.
    std::vector<NodeId>& bucket = sh.wheel[now & (kWheelSize - 1)];
    while (!sh.far_fires.empty() &&
           (sh.far_fires.top() >> kFireNodeBits) <= now) {
      bucket.push_back(static_cast<NodeId>(sh.far_fires.top() &
                                           kFireNodeMask));
      sh.far_fires.pop();
    }
    // The per-(node, cycle) counter keys are a pure lane-parallel function
    // of the bucket; batch them, then fire. The loop is staged like the
    // arrival drain: the queue record 2 * kPrefetchAhead fires ahead, the
    // old tail's next link (written by the push when the queue is
    // non-empty) kPrefetchAhead fires ahead, and the pool slot an admit
    // that far ahead will initialize.
    const std::size_t due = bucket.size();
    std::uint64_t keys[64];
    for (std::size_t off = 0; off < due; off += 64) {
      const std::size_t chunk = std::min<std::size_t>(64, due - off);
      counter_keys(simd_, config_.seed, now, bucket.data() + off, chunk,
                   keys);
      for (std::size_t j = 0; j < chunk; ++j) {
        const std::size_t i = off + j;
        if (i + 2 * kPrefetchAhead < due) {
          prefetch_write(&queues_[bucket[i + 2 * kPrefetchAhead]]);
        }
        if (i + kPrefetchAhead < due) {
          const NodeQueue& q = queues_[bucket[i + kPrefetchAhead]];
          if (q.size != 0) prefetch_write(&next_of(q.tail));
          const PacketIndex slot = sh.pool.upcoming_slot(kPrefetchAhead);
          if (slot != PacketPool::kMaxSlots) {
            prefetch_write(&sh.pool.hot(slot));
            prefetch_write(&sh.pool.cold(slot));
          }
        }
        fire_injection(w, bucket[i], now, keys[j], measuring);
      }
    }
    // Release the bucket's buffer instead of clearing it: a cleared bucket
    // keeps the capacity of its busiest cycle, and over a run every one of
    // the kWheelSize buckets would grow to that peak. Released, the wheel
    // holds at most one entry per node.
    std::vector<NodeId>().swap(bucket);
    if (config_.buffer_limit != 0) {
      // Maintenance scan over live bits only: retire nodes whose queue
      // emptied last cycle, publish committed occupancy for the rest.
      // (With unbounded buffers there is no occupancy to publish and
      // phase B retires emptied nodes itself, so no scan at all.)
      sh.active.for_each_set([&](std::uint64_t bit) {
        const NodeId u = sh.begin + static_cast<NodeId>(bit);
        const std::uint32_t depth = queues_[u].size;
        if (depth == 0) {
          sh.active.clear(bit);
          occ_[u] = 0;
        } else {
          occ_[u] = depth;
        }
      });
    }
  } else {
    if (const std::optional<double> rate = traffic_.bernoulli_rate()) {
      // Batched Bernoulli sweep: one SIMD predicate pass answers "does
      // node u inject this cycle" for 64 nodes at a time. Drawing for an
      // ineligible node has no side effects (every node's stream is an
      // independent pure function of (seed, node, cycle)), so discarding
      // those lanes reproduces the scalar scan — which skips them before
      // drawing — exactly. Hit nodes replay their stream from the key:
      // should_inject consumes the predicate draw (true by construction),
      // then the destination draws follow as in the scalar loop.
      for (NodeId blk = sh.begin; blk < sh.end; blk += 64) {
        const auto cnt =
            static_cast<unsigned>(std::min<NodeId>(64, sh.end - blk));
        std::uint64_t mask = counter_bernoulli_mask(simd_, config_.seed,
                                                    now, blk, cnt, *rate);
        for (; mask != 0; mask &= mask - 1) {
          const NodeId u =
              blk + static_cast<NodeId>(std::countr_zero(mask));
          if (!traffic_.eligible(u)) continue;
          CounterRng rng(counter_key(config_.seed, u, now));
          if (!traffic_.should_inject(u, rng)) continue;
          const NodeId dst = traffic_.pick_destination(u, rng);
          admit_packet(w, u, dst, now, measuring);
        }
      }
    } else {
      for (NodeId u = sh.begin; u < sh.end; ++u) {
        if (!traffic_.eligible(u)) continue;
        // Per-(node, cycle) draw stream: injection and destination choice
        // are pure functions of (seed, u, now), never of sweep or thread
        // order.
        CounterRng rng(counter_key(config_.seed, u, now));
        if (!traffic_.should_inject(u, rng)) continue;
        // The destination draw happens before the buffer check so that
        // offered load (`generated`, and the draw stream behind it) is
        // identical across buffer_limit settings; a blocked injection
        // differs only in being counted in injections_blocked instead of
        // entering the network.
        const NodeId dst = traffic_.pick_destination(u, rng);
        admit_packet(w, u, dst, now, measuring);
      }
    }
    if (config_.buffer_limit != 0) {
      // Publish committed occupancy for this cycle's backpressure checks.
      for (NodeId u = sh.begin; u < sh.end; ++u) {
        occ_[u] = queues_[u].size;
      }
    }
  }
  if (timing_) {
    sh.metrics.phase_inject_ns +=
        ns_between(t1, std::chrono::steady_clock::now());
  }
}

void NetworkSim::serve_node(unsigned w, NodeId u, Cycle now, bool measuring,
                            bool& moved, bool clean, std::uint32_t hint) {
  Shard& sh = shards_[w];
  SimMetrics& m = sh.metrics;
  const unsigned parity = static_cast<unsigned>(now & 1);
  NodeQueue& queue = queues_[u];
  // One packet per directed link per cycle: bit c is set once this service
  // has sent a packet along dimension c. u is served once per cycle and
  // owns its outgoing links, so no state outlives the call.
  static_assert(kMaxDimension <= 32, "link mask is one 32-bit word");
  std::uint32_t links_used = 0;
  for (std::uint32_t served = 0;
       served < config_.service_rate && queue.size != 0; ++served) {
    const PacketRef ref = queue.head;
    PacketHot& h = hot_of(ref);
    // The packet behind this one is served next unless this one blocks:
    // start loading its hot record now. (The batched harvest already
    // prefetched the front packet's next link.)
    if (queue.size > 1 && served + 1 < config_.service_rate) {
      prefetch_read(&hot_of(next_of(ref)));
    }
    // The batched pass precomputed the front packet's disposition; every
    // later packet of the queue takes the full decision tree.
    const std::uint32_t hd = served == 0 ? hint : kHintNone;
    // Adaptive and steered packets carry no complete route, so arrival is
    // detected positionally; a planned packet arrives exactly when its
    // route is consumed (the planner guarantees it ends at dst).
    const bool arrived =
        hd == kHintArrived ||
        (hd == kHintNone &&
         (h.positional_arrival() ? u == h.dst : h.hops == h.plan_len));
    if (arrived) {
      if (h.audited()) {
        const PacketCold& c = cold_of(ref);
        NodeId replay = c.src;
        for (std::uint32_t i = 0; i < h.hops; ++i) {
          replay = flip_bit(replay, packet_hop_at(h, c, i));
        }
        GCUBE_REQUIRE(replay == h.dst,
                      "delivered packet's recorded path must end at dst");
      }
      if (measuring) {
        const PacketCold& c = cold_of(ref);
        if (c.created < config_.warmup_cycles) {
          // Warmup-generated packet completing inside the window: real
          // work, but counting it in delivered/latency would let the
          // delivery ratio exceed the offered load and skew the averages.
          ++m.carryover_delivered;
        } else {
          ++m.delivered;
          m.total_latency += now - c.created;
          m.total_hops += h.hops;
          m.latency_histogram.record(now - c.created);
        }
        ++m.service_ops;
      }
      ++sh.removed;
      queue_pop(queue);
      release_ref(w, ref, parity);
      moved = true;
      continue;
    }
    // A dropped packet leaves the network for good; dropping counts as
    // progress for the stall detector.
    const auto drop_hop_limit = [&]() {
      if (measuring) ++m.dropped_hop_limit;
      ++sh.removed;
      queue_pop(queue);
      release_ref(w, ref, parity);
      moved = true;
    };
    // A packet with no usable continuation is dropped outright in legacy
    // mode; in recovery mode it is handed to the serial commit, which
    // decides between a parked retry, a source retransmit, and giving up.
    // A stranded packet stays in flight (not counted in sh.removed).
    const auto strand = [&]() {
      if (retries_) {
        sh.stranded.push_back({u, ref});
      } else {
        if (measuring) ++m.dropped_no_route;
        ++sh.removed;
        release_ref(w, ref, parity);
      }
      queue_pop(queue);
      moved = true;
    };
    Dim c;
    if (hd < kHintArrived) {
      // Batched fast path: the classify pass established kPktSteered with
      // no adopted plan, a clean node, and hops under the livelock guard,
      // and the table lookup already ran — the hint IS the usable hop.
      c = static_cast<Dim>(hd);
    } else if ((h.flags & kPktSteered) != 0) {
      if (h.hops >= hop_limit_) {
        drop_hop_limit();  // livelock guard, same bound as adaptive re-plans
        continue;
      }
      std::optional<Dim> hop;
      if ((h.flags & kPktHasPlan) != 0) {
        // Following a plan adopted at an earlier fault-adjacent node;
        // verify the next adopted hop is still alive before taking it.
        PacketCold& cd = cold_of(ref);
        const Dim pc = cd.plan->hops()[cd.steer_next];
        if (overlay_.link_usable(u, pc)) {
          hop = pc;
        } else {
          if (measuring) ++m.reroutes;
          cd.plan.reset();  // died underfoot: re-steer from this node
          cd.steer_next = 0;
          h.flags &= ~kPktHasPlan;
        }
      }
      if (!hop) {
        if (clean) {
          // No fault within distance 1: the fabric's fault-free table hop
          // is guaranteed usable — no per-link checks at all.
          hop = fabric_->fault_free_hop(u, h.dst);
        } else {
          // Fault-adjacent node: adopt the router's full fault-aware plan
          // from here. A reroute is counted when the fault actually
          // deflects the packet off its fault-free table hop.
          if (measuring &&
              !overlay_.link_usable(u, fabric_->fault_free_hop(u, h.dst))) {
            ++m.reroutes;
          }
          std::shared_ptr<const Route> adopted =
              router_.plan_shared(u, h.dst);
          if (adopted == nullptr || adopted->length() == 0 ||
              !overlay_.link_usable(u, adopted->hops().front())) {
            strand();  // no usable continuation (dst dead or region cut off)
            continue;
          }
          PacketCold& cd = cold_of(ref);
          cd.plan = std::move(adopted);
          cd.steer_next = 0;
          h.flags |= kPktHasPlan;
          hop = cd.plan->hops().front();
        }
      }
      c = *hop;
    } else if ((h.flags & kPktAdaptive) != 0) {
      if (h.hops >= hop_limit_) {
        drop_hop_limit();  // livelock guard: stepwise re-plans cycled
        continue;
      }
      const std::optional<Dim> nh = router_.next_hop(u, h.dst);
      if (!nh || !overlay_.link_usable(u, *nh)) {
        strand();  // no usable continuation (dst dead or region cut off)
        continue;
      }
      c = *nh;
    } else {
      c = cold_of(ref).plan->hops()[h.hops];
      if (!overlay_.link_usable(u, c)) {
        // The precomputed next link died under the packet: re-plan from
        // here with current fault knowledge instead of traversing it.
        if (measuring) ++m.reroutes;
        h.flags |= kPktAdaptive;
        h.plan_len = h.hops;  // abandon the unconsumed planned tail
        const std::optional<Dim> nh = router_.next_hop(u, h.dst);
        if (!nh || !overlay_.link_usable(u, *nh)) {
          strand();
          continue;
        }
        c = *nh;
      }
    }
    const std::uint32_t link = std::uint32_t{1} << c;
    if ((links_used & link) != 0) return;  // link busy: head-of-line blocking
    const NodeId v = flip_bit(u, c);
    if (config_.buffer_limit != 0 && occ_[v] >= config_.buffer_limit) {
      return;  // backpressure against start-of-cycle committed occupancy
    }
    links_used |= link;
    if (measuring) ++m.service_ops;
    if ((h.flags & (kPktSteered | kPktAdaptive)) != 0) {
      // Online-routed hop: only the audited sample records it (the audit
      // path lives in the tail); everyone else keeps just the hop count.
      if (h.audited()) cold_of(ref).tail.push_back(c);
      if ((h.flags & (kPktSteered | kPktHasPlan)) ==
          (kPktSteered | kPktHasPlan)) {
        PacketCold& cd = cold_of(ref);
        if (++cd.steer_next >=
            static_cast<std::uint32_t>(cd.plan->length())) {
          cd.plan.reset();  // adopted plan consumed; back to table steering
          cd.steer_next = 0;
          h.flags &= ~kPktHasPlan;
        }
      }
    }
    ++h.hops;
    sh.outbox[parity][shard_of(v)].push_back({v, ref});
    queue_pop(queue);
    moved = true;
  }
}

void NetworkSim::serve_word(unsigned w, std::size_t word_index, Cycle now,
                            bool measuring, bool& moved, bool retire) {
  Shard& sh = shards_[w];
  const NodeId base = sh.begin + static_cast<NodeId>(word_index << 6);
  // Pass 1 (read-only + stale-bit retirement): harvest the word's set bits
  // in ascending order and prefetch each front packet's 16-byte hot
  // record, so the classify pass walks warm cache lines instead of eating
  // a dependent miss per node. A deeper queue also gets its front's next
  // link prefetched: serve_node follows it to the second packet.
  NodeId nodes[64];
  PacketRef refs[64];
  PacketHot* hotp[64];
  unsigned count = 0;
  for (std::uint64_t bits = sh.active.word(word_index); bits != 0;
       bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    const NodeId u = base + b;
    const NodeQueue& q = queues_[u];
    if (q.size == 0) {
      // Finite-buffer mode leaves retirement to the phase-A maintenance
      // scan, so an empty-but-active node is normal there; with unbounded
      // buffers this is purely defensive.
      if (retire) sh.active.clear(u - sh.begin);
      continue;
    }
    const PacketRef ref = q.head;
    PacketPool& pool = shards_[packet_ref_shard(ref)].pool;
    PacketHot* h = &pool.hot(packet_ref_slot(ref));
    prefetch_read(h);
    if (q.size > 1) prefetch_read(&pool.next(packet_ref_slot(ref)));
    nodes[count] = u;
    refs[count] = ref;
    hotp[count] = h;
    ++count;
  }
  if (count == 0) return;
  // One overlay window answers all 64 clean-node questions (fault-free
  // runs skip even that load).
  const std::uint64_t clean =
      !steer_ ? 0
              : (no_faults_ ? ~std::uint64_t{0} : overlay_.clean_window(base));
  // Pass 2 (read-only): classify every front packet in SIMD lanes —
  // arrived, steered fast path (no adopted plan, clean node, under the
  // livelock guard), or "decide in full later" — then compact the fast
  // lanes into (cur, dst) pairs for one tight batched table-lookup loop.
  const ClassifyMasks cm = classify_front_packets(
      simd_, count, hotp, nodes, base, clean, hop_limit_);
  std::uint32_t hints[64];
  for (unsigned i = 0; i < count; ++i) hints[i] = kHintNone;
  for (std::uint64_t bits = cm.arrived; bits != 0; bits &= bits - 1) {
    const auto i = static_cast<unsigned>(std::countr_zero(bits));
    hints[i] = kHintArrived;
    // Delivery accounting reads the cold record (created, and src for
    // the audited replay); start that line early.
    prefetch_read(&shards_[packet_ref_shard(refs[i])].pool.cold(
        packet_ref_slot(refs[i])));
  }
  NodeId cur[64];
  NodeId dstv[64];
  unsigned fast_of[64];
  Dim hops[64];
  unsigned nfast = 0;
  for (std::uint64_t bits = cm.fast; bits != 0; bits &= bits - 1) {
    const auto i = static_cast<unsigned>(std::countr_zero(bits));
    cur[nfast] = nodes[i];
    dstv[nfast] = hotp[i]->dst;
    fast_of[nfast] = i;
    ++nfast;
  }
  if (nfast != 0) {
    fabric_->fault_free_hops(simd_, nfast, cur, dstv, hops);
    for (unsigned i = 0; i < nfast; ++i) hints[fast_of[i]] = hops[i];
  }
  // Pass 3 (apply), strictly ascending node order: outbox push order is
  // the canonical order the determinism contract rests on. The read-only
  // passes above commute with these applies — within phase B, node
  // services are mutually independent (each service's link mask is its
  // own, every handoff goes via the parity mailboxes), so each node's
  // front packet and queue are exactly as the classify pass saw them.
  //
  // The dominant shape at simulated loads — a depth-1 queue whose single
  // packet either takes its precomputed hop or delivers — is applied
  // inline (the exact serve_node semantics for that shape: one service,
  // then the queue is empty); everything else takes the full path. The
  // inline hop needs no link check: it is the first packet u sends this
  // cycle.
  const unsigned parity = static_cast<unsigned>(now & 1);
  SimMetrics& m = sh.metrics;
  for (unsigned i = 0; i < count; ++i) {
    const NodeId u = nodes[i];
    const std::uint32_t hint = hints[i];
    NodeQueue& queue = queues_[u];
    if (retire && hint != kHintNone && queue.size == 1) {
      const PacketRef ref = refs[i];
      PacketHot& h = *hotp[i];  // resolved once at harvest
      if (hint == kHintArrived) {
        if (h.audited()) {
          const PacketCold& c = cold_of(ref);
          NodeId replay = c.src;
          for (std::uint32_t k = 0; k < h.hops; ++k) {
            replay = flip_bit(replay, packet_hop_at(h, c, k));
          }
          GCUBE_REQUIRE(replay == h.dst,
                        "delivered packet's recorded path must end at dst");
        }
        if (measuring) {
          const PacketCold& c = cold_of(ref);
          if (c.created < config_.warmup_cycles) {
            ++m.carryover_delivered;
          } else {
            ++m.delivered;
            m.total_latency += now - c.created;
            m.total_hops += h.hops;
            m.latency_histogram.record(now - c.created);
          }
          ++m.service_ops;
        }
        ++sh.removed;
        queue_pop(queue);
        release_ref(w, ref, parity);
        moved = true;
        sh.active.clear(u - sh.begin);
      } else {
        const Dim c = static_cast<Dim>(hint);
        if (measuring) ++m.service_ops;
        if (h.audited()) cold_of(ref).tail.push_back(c);
        ++h.hops;
        const NodeId v = flip_bit(u, c);
        sh.outbox[parity][shard_of(v)].push_back({v, ref});
        queue_pop(queue);
        moved = true;
        sh.active.clear(u - sh.begin);
      }
      continue;
    }
    serve_node(w, u, now, measuring, moved,
               ((clean >> (u - base)) & 1) != 0, hint);
    if (retire && queue.size == 0) sh.active.clear(u - sh.begin);
  }
}

void NetworkSim::phase_forward(unsigned w, Cycle now, bool measuring) {
  Shard& sh = shards_[w];
  bool moved = false;
  std::chrono::steady_clock::time_point t0;
  if (timing_) t0 = std::chrono::steady_clock::now();
  if (active_set_) {
    // Only nodes whose bit is set can hold packets (phase-A invariant), so
    // the ascending scan serves exactly the canonical node order the full
    // sweep would. With unbounded buffers an emptied node is retired here
    // on the spot; with finite ones the phase-A maintenance scan does it
    // (occ_ is read cross-shard during this phase and may only be written
    // at the phase-A serial-equivalent point).
    const bool retire = config_.buffer_limit == 0;
    if (batch_) {
      const std::size_t words = sh.active.word_count();
      for (std::size_t wd = 0; wd < words; ++wd) {
        if (sh.active.word(wd) != 0) {
          serve_word(w, wd, now, measuring, moved, retire);
        }
      }
    } else {
      sh.active.for_each_set([&](std::uint64_t bit) {
        const NodeId u = sh.begin + static_cast<NodeId>(bit);
        const bool clean =
            steer_ && (no_faults_ || overlay_.node_clean(u));
        serve_node(w, u, now, measuring, moved, clean, kHintNone);
        if (retire && queues_[u].size == 0) sh.active.clear(bit);
      });
    }
  } else {
    for (NodeId u = sh.begin; u < sh.end; ++u) {
      const bool clean = steer_ && (no_faults_ || overlay_.node_clean(u));
      serve_node(w, u, now, measuring, moved, clean, kHintNone);
    }
  }
  sh.moved = moved;
  if (timing_) {
    sh.metrics.phase_advance_ns +=
        ns_between(t0, std::chrono::steady_clock::now());
  }
}

SimMetrics NetworkSim::run() {
  metrics_ = SimMetrics{};
  metrics_.measured_cycles = config_.measure_cycles;
  next_event_ = 0;

  // Resolve the worker count. Explicit counts are honored (the
  // determinism and TSan tests need real concurrency even on small
  // machines, via allow_oversubscribe) but still deduct from the shared
  // budget so enclosing sweeps see the machine as busy; auto asks the
  // budget what is spare.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::optional<ThreadLease> lease;
  unsigned shard_count;
  if (config_.threads == 0) {
    lease.emplace(hw - 1);
    shard_count = 1 + lease->granted();
  } else {
    unsigned want = config_.threads;
    if (want > hw && !config_.allow_oversubscribe) {
      // More workers than cores only adds contention on the cycle
      // barrier; metrics are thread-count-independent anyway.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "gcube: clamping threads=%u to hardware concurrency "
                     "%u (metrics are unaffected; set allow_oversubscribe "
                     "/ --oversubscribe to override)\n",
                     want, hw);
      }
      want = hw;
    }
    lease.emplace(want - 1);
    shard_count = want;
  }
  configure_shards(shard_count);
  total_cycles_ = config_.warmup_cycles + config_.measure_cycles;
  // Crash-fault injection cycle: the environment override wins so the CI
  // harness can crash an unmodified invocation.
  crash_at_ = config_.crash_at_cycle;
  if (const char* env = std::getenv("GCUBE_CRASH_AT_CYCLE")) {
    crash_at_ = std::strtoull(env, nullptr, 10);
  }
  Cycle start = 0;
  if (!config_.resume_from.empty()) {
    const SimCheckpoint ck =
        load_checkpoint_with_fallback(config_.resume_from);
    apply_checkpoint(ck);
    start = ck.resume_cycle;
  }
  overlay_.refresh(faults_);
  no_faults_ = faults_.empty();
  if (active_set_ && start == 0) {
    // Seed every node's first fire from a dedicated pre-run draw stream
    // (cycle key ~0 cannot collide with a real cycle). First fire at
    // gap - 1 so cycle 0 fires with the same probability as any other.
    // The keys batch in SIMD lanes like the per-cycle fire buckets; the
    // geometric gap draw itself stays scalar (libm log1p).
    for (Shard& sh : shards_) {
      NodeId ids[64];
      std::uint64_t keys[64];
      for (NodeId blk = sh.begin; blk < sh.end; blk += 64) {
        const auto cnt =
            static_cast<unsigned>(std::min<NodeId>(64, sh.end - blk));
        for (unsigned j = 0; j < cnt; ++j) ids[j] = blk + j;
        counter_keys(simd_, config_.seed, ~Cycle{0}, ids, cnt, keys);
        for (unsigned j = 0; j < cnt; ++j) {
          const NodeId u = blk + j;
          if (!traffic_.eligible(u)) continue;
          CounterRng rng(keys[j]);
          const std::uint64_t gap = traffic_.injection_gap(u, rng);
          if (gap == TrafficModel::kNeverGap || gap - 1 >= total_cycles_) {
            continue;
          }
          schedule_fire(sh, 0, gap - 1, u);
        }
      }
    }
  }
  ShardPool pool(static_cast<unsigned>(shards_.size()));
  pool_ = &pool;

  // Fused cycle loop, dispatched ONCE: every worker runs the whole
  // warmup + measurement loop and meets the others only at barriers.
  // Phase A overlaps freely with other shards' phase B (parity
  // double-buffered rings, pointer-stable pools), so the common
  // unbounded-buffer cycle costs exactly one rendezvous — the end-of-cycle
  // barrier whose last arriver runs serial_commit. Finite buffers add the
  // mid-cycle barrier that makes the phase-A occupancy snapshot
  // consistent before any shard reads it for backpressure. Phases catch
  // into the shard's error slot so every worker always reaches the
  // barriers; the serial section turns the first error into a stop, and
  // it is rethrown after the join.
  ab_barrier_ = config_.buffer_limit != 0;
  stop_run_ = false;
  serial_error_ = nullptr;
  consecutive_stalls_ = 0;
  cache_base_ = RouterCacheStats{};
  cache_base_set_ = false;
  // The start cycle's fault events / wakes, serially pre-dispatch. On a
  // resume this re-runs exactly the prework the interrupted run performed
  // AFTER its capture point (capture precedes cycle_prework(next) in the
  // serial section), so the worlds re-converge bit for bit.
  cycle_prework(start);
  const std::function<void(unsigned)> job = [this, start](unsigned w) {
    Shard& sh = shards_[w];
    for (Cycle now = start;; ++now) {
      const bool measuring = now >= config_.warmup_cycles;
      try {
        phase_inject(w, now, measuring);
      } catch (...) {
        sh.error = std::current_exception();
      }
      if (ab_barrier_) pool_->barrier();
      if (sh.error == nullptr) {
        try {
          phase_forward(w, now, measuring);
        } catch (...) {
          sh.error = std::current_exception();
        }
      }
      pool_->barrier_serial([this, now] { serial_commit(now); });
      // stop_run_ was written under the barrier, so every worker reads
      // the same verdict and the loop exits in lockstep.
      if (stop_run_) break;
    }
  };
  pool.run(job);
  pool_ = nullptr;
  if (serial_error_ != nullptr) {
    const std::exception_ptr error = serial_error_;
    serial_error_ = nullptr;
    std::rethrow_exception(error);
  }
  metrics_.in_flight_at_end = in_flight_;

  // Deterministic reduction: fold shard partials in ascending shard order.
  for (const Shard& sh : shards_) metrics_.absorb(sh.metrics);
  if (cache_base_set_) {
    const RouterCacheStats delta = router_.cache_stats() - cache_base_;
    metrics_.plan_cache = delta.plan;
    metrics_.hop_cache = delta.hop;
  }
  return metrics_;
}

void NetworkSim::cycle_prework(Cycle now) {
  const bool measuring = now >= config_.warmup_cycles;
  if (measuring && !cache_base_set_) {
    // Scope the reported cache counters to the measurement window.
    cache_base_ = router_.cache_stats();
    cache_base_set_ = true;
  }
  apply_fault_events(now, measuring);
  // Wake after fault application so a repair landing this cycle is
  // already visible to the retried packets.
  if (retries_) wake_parked(now, measuring);
}

void NetworkSim::serial_commit(Cycle now) noexcept {
  // Runs on whichever worker arrives last at the end-of-cycle barrier —
  // alone, with every shard's phase writes visible, and with its own
  // writes published to all workers when the gate opens. Everything here
  // is a pure function of simulation state, so WHICH thread runs it
  // cannot affect the outcome.
  const bool measuring = now >= config_.warmup_cycles;
  // Scope guard: the serial section has several exits (errors, deadlock,
  // run end) and the commit share must be accumulated on all of them.
  struct TimerGuard {
    bool on;
    std::uint64_t* acc;
    std::chrono::steady_clock::time_point t0;
    TimerGuard(bool on_, std::uint64_t* acc_) : on(on_), acc(acc_) {
      if (on) t0 = std::chrono::steady_clock::now();
    }
    ~TimerGuard() {
      if (on) *acc += ns_between(t0, std::chrono::steady_clock::now());
    }
  } timer{timing_, &metrics_.phase_commit_ns};
  try {
    for (Shard& sh : shards_) {
      if (sh.error != nullptr) {
        if (serial_error_ == nullptr) serial_error_ = sh.error;
        sh.error = nullptr;
      }
    }
    if (serial_error_ != nullptr) {
      stop_run_ = true;
      return;
    }
    std::uint64_t injected = 0;
    std::uint64_t removed = 0;
    bool moved = false;
    for (Shard& sh : shards_) {
      injected += sh.injected;
      removed += sh.removed;
      moved = moved || sh.moved;
    }
    // In-flight depth peaks after phase A (all injections in, no removals
    // yet); the same value the serial core saw at its last injection of
    // the cycle, gated on the measurement window.
    if (measuring) {
      metrics_.peak_in_flight =
          std::max(metrics_.peak_in_flight, in_flight_ + injected);
    }
    std::uint64_t gave_up_removed = 0;
    if (retries_) commit_stranded(now, measuring, gave_up_removed);
    in_flight_ = in_flight_ + injected - removed - gave_up_removed;
    // Packets parked for backoff are waiting on a timer, not on each
    // other: only unparked in-flight packets can indicate a stall. A
    // sustained global stall with finite buffers is a deadlock.
    constexpr Cycle kDeadlockThreshold = 200;
    if (!moved && in_flight_ > parked_now_) {
      if (measuring) ++metrics_.stalled_cycles;
      if (++consecutive_stalls_ >= kDeadlockThreshold) {
        metrics_.deadlocked = true;
        stop_run_ = true;
        return;
      }
    } else {
      consecutive_stalls_ = 0;
    }
    const Cycle next = now + 1;
    const bool done = next >= config_.warmup_cycles + config_.measure_cycles;
    // Graceful halt: an external stop request (sim_cli's SIGINT/SIGTERM
    // flag) or the deterministic halt_at_cycle test knob, honored here so
    // the cycle just finished is committed cleanly. Checked BEFORE the
    // checkpoint decision so the halt's final checkpoint is written.
    const bool halt =
        !done &&
        ((config_.stop_requested != nullptr &&
          config_.stop_requested->load(std::memory_order_relaxed)) ||
         (config_.halt_at_cycle != 0 && next == config_.halt_at_cycle));
    if (!config_.checkpoint_path.empty() &&
        (halt || (config_.checkpoint_every != 0 && !done &&
                  next % config_.checkpoint_every == 0))) {
      // This is the one serial point where the whole simulation is
      // quiescent: every ring drained or parity-idle, every shard partial
      // visible. A save failure lands in serial_error_ via the enclosing
      // catch — checkpointing must never corrupt the run it protects.
      save_checkpoint(capture_checkpoint(next), config_.checkpoint_path);
    }
    if (crash_at_ != 0 && next == crash_at_) {
      // Crash-fault injection: die like a kill -9 — no unwinding, no
      // stream flushing, mid-run. Any checkpoint due at this same point
      // was already made durable (fsync + rename) above.
      std::_Exit(137);
    }
    if (halt) {
      metrics_.interrupted_at = next;
      stop_run_ = true;
      return;
    }
    if (done) {
      stop_run_ = true;
      return;
    }
    cycle_prework(next);
  } catch (...) {
    serial_error_ = std::current_exception();
    stop_run_ = true;
  }
}

CheckpointPacket NetworkSim::capture_packet(PacketRef ref) {
  const PacketHot& h = hot_of(ref);
  const PacketCold& c = cold_of(ref);
  CheckpointPacket p;
  p.dst = h.dst;
  p.hops = h.hops;
  p.plan_len = h.plan_len;
  p.flags = h.flags;
  p.id = packet_id(c.created, c.src);
  p.src = c.src;
  p.created = c.created;
  p.steer_next = c.steer_next;
  p.retry_attempts = c.retry_attempts;
  p.retransmits_used = c.retransmits_used;
  if (c.plan != nullptr) {  // kPktHasPlan mirrors this by invariant
    p.plan_src = c.plan->source();
    p.plan_hops = c.plan->hops();
  }
  if (h.audited()) {
    p.tail_hops.reserve(c.tail.size());
    for (std::uint32_t i = 0; i < c.tail.size(); ++i) {
      p.tail_hops.push_back(c.tail[i]);
    }
  }
  return p;
}

PacketRef NetworkSim::restore_packet(unsigned w, const CheckpointPacket& p,
                                     const char* section) {
  const auto need = [&](bool ok, const char* detail) {
    if (!ok) throw CheckpointError(section, detail);
  };
  need(p.dst < node_count_ && p.src < node_count_,
       "packet endpoint out of range");
  constexpr std::uint32_t kKnownFlags =
      kPktSteered | kPktAdaptive | kPktHasPlan | kPktAudited;
  need((p.flags & ~kKnownFlags) == 0, "unknown packet flags");
  // The id is not stored in the pool; it must be the one the packet's
  // (created, src) derive, and the audit sample is a function of it.
  need(p.created < total_cycles_ && p.id == packet_id(p.created, p.src),
       "packet id is not created * node_count + src");
  need(((p.flags & kPktAudited) != 0) == ((p.id & 63) == 0),
       "audit flag disagrees with the packet id");
  const bool has_plan = (p.flags & kPktHasPlan) != 0;
  need(has_plan == !p.plan_hops.empty(),
       "plan flag inconsistent with recorded plan");
  if (has_plan) {
    need(p.plan_src < node_count_, "plan source out of range");
    for (const Dim d : p.plan_hops) need(d < dims_, "plan hop out of range");
  }
  need((p.flags & kPktAudited) != 0 || p.tail_hops.empty(),
       "hop tail recorded without audit flag");
  for (const Dim d : p.tail_hops) need(d < dims_, "tail hop out of range");
  // The bounds the service loops rely on: a steered packet reads its
  // adopted plan at steer_next, a planned packet at hops, the audited
  // replay walks plan[0, plan_len) ++ tail[0, hops - plan_len).
  need(p.plan_len <= p.plan_hops.size(), "plan length beyond plan");
  if ((p.flags & kPktSteered) != 0) {
    need(!has_plan || p.steer_next < p.plan_hops.size(),
         "steer cursor out of range");
  } else if ((p.flags & kPktAdaptive) == 0) {
    need(has_plan, "unrouted packet carries no plan");
    need(p.hops <= p.plan_len, "hop count beyond plan");
  }
  need((p.flags & kPktAudited) == 0 ||
           p.hops <= p.plan_len + p.tail_hops.size(),
       "audited path shorter than hop count");

  Shard& sh = shards_[w];
  const PacketIndex slot = sh.pool.acquire();
  PacketHot& h = sh.pool.hot(slot);
  PacketCold& c = sh.pool.cold(slot);
  h.dst = p.dst;
  h.hops = p.hops;
  h.plan_len = p.plan_len;
  h.flags = p.flags;
  c.src = p.src;
  c.created = p.created;
  c.steer_next = p.steer_next;
  c.retry_attempts = p.retry_attempts;
  c.retransmits_used = p.retransmits_used;
  if (has_plan) {
    // Shared Route ownership is a process-local optimization; a restored
    // packet gets a private copy (route contents are what the service
    // loops read, so metrics cannot tell the difference).
    c.plan = std::make_shared<const Route>(p.plan_src, p.plan_hops);
  }
  if ((p.flags & kPktAudited) != 0) c.tail.reserve(hop_log_reserve());
  for (const Dim d : p.tail_hops) c.tail.push_back(d);
  return make_packet_ref(w, slot);
}

SimCheckpoint NetworkSim::capture_checkpoint(Cycle next) {
  SimCheckpoint ck;
  ck.resume_cycle = next;
  ck.in_flight = in_flight_;
  ck.consecutive_stalls = consecutive_stalls_;
  ck.next_event = next_event_;

  ck.provenance.seed = config_.seed;
  ck.provenance.topology = topo_.name();
  ck.provenance.router = router_.name();
  ck.provenance.simd = to_string(simd_);
  ck.provenance.threads = static_cast<std::uint32_t>(shards_.size());
#ifdef NDEBUG
  ck.provenance.build_type = "optimized";
#else
  ck.provenance.build_type = "debug";
#endif

  CheckpointConfig& cc = ck.config;
  cc.seed = config_.seed;
  cc.injection_rate_bits =
      std::bit_cast<std::uint64_t>(config_.injection_rate);
  cc.warmup_cycles = config_.warmup_cycles;
  cc.measure_cycles = config_.measure_cycles;
  cc.service_rate = config_.service_rate;
  cc.buffer_limit = config_.buffer_limit;
  cc.hop_limit = hop_limit_;
  cc.retry_limit = config_.retry_limit;
  cc.retry_backoff_base = config_.retry_backoff_base;
  cc.park_capacity = config_.park_capacity;
  cc.retry_budget = config_.retry_budget;
  cc.retransmit_timeout = config_.retransmit_timeout;
  cc.steer = steer_ ? 1 : 0;
  cc.active_set = active_set_ ? 1 : 0;
  cc.node_count = node_count_;
  cc.dims = dims_;
  cc.traffic_fingerprint = traffic_.state_fingerprint();
  cc.schedule_fingerprint = fault_events_fingerprint(schedule_events_);
  cc.schedule_events = schedule_events_.size();

  ck.faulty_nodes = faults_.faulty_nodes();
  ck.faulty_links = faults_.faulty_links();

  // Effective queues, shard-count independent: node u's queue contents
  // followed by its pending mailbox arrivals in ascending source-shard
  // (= ascending source-node) ring order — exactly the order phase A of
  // cycle `next` would drain them. Only the parity phase A drains next
  // can hold arrivals at this serial point; the restore leaves all rings
  // empty with the merge pre-applied.
  ck.queues.resize(node_count_);
  for (NodeId u = 0; u < node_count_; ++u) {
    const NodeQueue& q = queues_[u];
    ck.queues[u].reserve(q.size);
    PacketRef ref = q.head;
    for (std::uint32_t i = 0; i < q.size; ++i) {
      ck.queues[u].push_back(capture_packet(ref));
      if (i + 1 < q.size) ref = next_of(ref);
    }
  }
  const unsigned parity = static_cast<unsigned>(~next & 1);
  for (const Shard& src : shards_) {
    for (unsigned w = 0; w < shards_.size(); ++w) {
      const Ring<Arrival>& box = src.outbox[parity][w];
      for (std::size_t i = 0; i < box.size(); ++i) {
        const Arrival a = box.at(i);
        ck.queues[a.node].push_back(capture_packet(a.ref));
      }
    }
  }

  // Multimap iteration order IS the wake-processing order (wake cycle,
  // then insertion order), so serializing it linearly preserves it.
  ck.parked.reserve(parked_.size());
  for (const auto& [wake, pk] : parked_) {
    CheckpointParked cp;
    cp.wake = wake;
    cp.node = pk.node;
    cp.respawn = pk.respawn;
    cp.packet = capture_packet(pk.ref);
    ck.parked.push_back(std::move(cp));
  }

  if (active_set_) {
    // Pending fires as absolute cycles. Wheel buckets are unambiguous
    // within (now, now + kWheelSize); whether an entry sat in the wheel
    // or the far heap is unobservable and re-derived at restore. The heap
    // has no iterator, so it is drained and re-pushed (serial point, and
    // far fires are rare by construction). Bucket order is not state (a
    // cycle's fires commute), and at most one fire per node exists, so
    // sorting by node gives the file a canonical total order.
    const Cycle now = next - 1;
    const Cycle base = now & ~(kWheelSize - 1);
    for (Shard& sh : shards_) {
      for (std::uint64_t b = 0; b < kWheelSize; ++b) {
        for (const NodeId u : sh.wheel[b]) {
          Cycle at = base | b;
          if (at <= now) at += kWheelSize;
          ck.fires.push_back({at, u});
        }
      }
      std::vector<std::uint64_t> far;
      far.reserve(sh.far_fires.size());
      while (!sh.far_fires.empty()) {
        far.push_back(sh.far_fires.top());
        sh.far_fires.pop();
      }
      for (const std::uint64_t key : far) {
        ck.fires.push_back({key >> kFireNodeBits,
                            static_cast<NodeId>(key & kFireNodeMask)});
        sh.far_fires.push(key);
      }
    }
    std::sort(ck.fires.begin(), ck.fires.end(),
              [](const CheckpointFire& a, const CheckpointFire& b) {
                return a.node < b.node;
              });
  }

  // Fold every shard partial into the snapshot (commutative/associative
  // integer adds, same as the end-of-run reduction). The resumed run
  // restores this into the global slot with its shard partials zeroed, so
  // its final fold equals the uninterrupted run's.
  ck.metrics = metrics_;
  for (const Shard& sh : shards_) ck.metrics.absorb(sh.metrics);
  return ck;
}

void NetworkSim::apply_checkpoint(const SimCheckpoint& ck) {
  // Semantic-parameter guard: any mismatch here would change the
  // simulated trajectory, so refuse with the field's name. threads /
  // SIMD / batch are deliberately NOT checked — metrics are bit-identical
  // across them, which is the whole point of resuming under whatever
  // execution shape the new host offers.
  const auto match = [](bool ok, const char* field) {
    if (!ok) {
      throw CheckpointError(
          "config", std::string("resume configuration mismatch: ") + field);
    }
  };
  const CheckpointConfig& cc = ck.config;
  match(cc.seed == config_.seed, "seed");
  match(cc.injection_rate_bits ==
            std::bit_cast<std::uint64_t>(config_.injection_rate),
        "injection_rate");
  match(cc.warmup_cycles == config_.warmup_cycles, "warmup_cycles");
  match(cc.measure_cycles == config_.measure_cycles, "measure_cycles");
  match(cc.service_rate == config_.service_rate, "service_rate");
  match(cc.buffer_limit == config_.buffer_limit, "buffer_limit");
  match(cc.hop_limit == hop_limit_, "reroute_hop_limit");
  match(cc.retry_limit == config_.retry_limit, "retry_limit");
  match(cc.retry_backoff_base == config_.retry_backoff_base,
        "retry_backoff_base");
  match(cc.park_capacity == config_.park_capacity, "park_capacity");
  match(cc.retry_budget == config_.retry_budget, "retry_budget");
  match(cc.retransmit_timeout == config_.retransmit_timeout,
        "retransmit_timeout");
  match((cc.steer != 0) == steer_, "fabric steering");
  match((cc.active_set != 0) == active_set_, "active_set");
  match(cc.node_count == node_count_, "node_count");
  match(cc.dims == dims_, "dims");
  match(cc.traffic_fingerprint == traffic_.state_fingerprint(),
        "traffic model");
  match(cc.schedule_fingerprint ==
            fault_events_fingerprint(schedule_events_),
        "fault schedule");
  match(ck.resume_cycle >= 1 && ck.resume_cycle < total_cycles_,
        "resume cycle");
  match(ck.next_event <= schedule_events_.size(), "fault schedule cursor");

  // Fault state. Dynamic mode rebuilds the live set by replaying the
  // captured lists in insertion order (identical vectors AND hash state);
  // the overlay refresh that follows in run() sees the generation bump
  // and rebuilds fully. Static mode cannot be mutated — verify instead.
  if (live_faults_ != nullptr) {
    live_faults_->clear();
    for (const NodeId u : ck.faulty_nodes) {
      if (u >= node_count_) {
        throw CheckpointError("faults", "faulty node out of range");
      }
      live_faults_->fail_node(u);
    }
    for (const LinkId& l : ck.faulty_links) {
      if (l.lo >= node_count_ || l.dim >= dims_) {
        throw CheckpointError("faults", "faulty link out of range");
      }
      live_faults_->fail_link(l.lo, l.dim);
    }
  } else if (faults_.faulty_nodes() != ck.faulty_nodes ||
             faults_.faulty_links() != ck.faulty_links) {
    throw CheckpointError("faults",
                          "static fault set differs from the checkpointed "
                          "one (element-wise, insertion order included)");
  }

  if (ck.queues.size() != node_count_) {
    throw CheckpointError("packets", "queue table size != node count");
  }
  std::uint64_t queued = 0;
  for (NodeId u = 0; u < node_count_; ++u) {
    const unsigned w = shard_of(u);
    for (const CheckpointPacket& p : ck.queues[u]) {
      queue_push(u, restore_packet(w, p, "packets"));
      ++queued;
    }
    if (active_set_ && !ck.queues[u].empty()) {
      Shard& sh = shards_[w];
      sh.active.set(u - sh.begin);
    }
  }

  for (const CheckpointParked& cp : ck.parked) {
    if (!retries_) {
      throw CheckpointError("parked",
                            "parked entries without retry recovery enabled");
    }
    if (cp.node >= node_count_) {
      throw CheckpointError("parked", "parked node out of range");
    }
    const PacketRef ref = restore_packet(shard_of(cp.node), cp.packet,
                                         "parked");
    parked_.emplace(cp.wake, Parked{cp.node, ref, cp.respawn});
    if (!cp.respawn) ++parked_count_[cp.node];
    ++parked_now_;
  }
  // Closing the books: everything in flight is queued or parked, exactly.
  if (queued + parked_.size() != ck.in_flight) {
    throw CheckpointError(
        "globals", "in_flight does not equal queued + parked packets");
  }

  if (active_set_) {
    for (const CheckpointFire& f : ck.fires) {
      if (f.node >= node_count_) {
        throw CheckpointError("fires", "fire node out of range");
      }
      if (f.at < ck.resume_cycle) {
        throw CheckpointError("fires", "fire due in the past");
      }
      // Every fire the simulator files is due before the run ends; a later
      // one could also overflow the far heap's (cycle, node) key.
      if (f.at >= total_cycles_) {
        throw CheckpointError("fires", "fire due after the run ends");
      }
      Shard& sh = shards_[shard_of(f.node)];
      if (sh.armed[f.node - sh.begin] != 0) {
        throw CheckpointError("fires", "duplicate fire for one node");
      }
      schedule_fire(sh, ck.resume_cycle - 1, f.at, f.node);
    }
  } else if (!ck.fires.empty()) {
    throw CheckpointError("fires",
                          "fires recorded without active_set mode");
  }

  metrics_ = ck.metrics;
  in_flight_ = ck.in_flight;
  consecutive_stalls_ = ck.consecutive_stalls;
  next_event_ = static_cast<std::size_t>(ck.next_event);
}

}  // namespace gcube
