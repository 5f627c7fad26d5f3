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
  // Packet records count hops in 16 bits; the livelock guard bounds every
  // online-routed packet's count, so it must fit them.
  GCUBE_REQUIRE(config.reroute_hop_limit <= kMaxPacketHops,
                "reroute hop limit above 65535 does not fit a packet "
                "record's 16-bit hop count");
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
    for (auto& parity : sh.box) parity.resize(count);
    for (auto& parity : sh.released) parity.resize(count);
    sh.busy.reset(sh.end - sh.begin);
    sh.run_end.assign(sh.end - sh.begin, 0);
    if (active_set_) {
      sh.wheel.assign(kWheelSize, {});
      sh.far_fires = {};
      sh.armed.assign(sh.end - sh.begin, 0);
    }
    begin = sh.end;
  }
  occ_.assign(config_.buffer_limit != 0 ? nodes : 0, 0);
  in_flight_ = 0;
  parked_.clear();
  parked_count_.assign(retries_ ? nodes : 0, 0);
  parked_now_ = 0;
}

unsigned NetworkSim::shard_of(NodeId u) const noexcept {
  // Single-shard runs skip the divisions below — they sit on the per-hop
  // cross-shard departure path and are pure overhead when there is only
  // one owner.
  if (shards_.size() == 1) return 0;
  // Contiguous split: the first range_rem_ shards are one node wider.
  const NodeId wide = range_base_ + 1;
  const NodeId split = range_rem_ * wide;
  if (u < split) return static_cast<unsigned>(u / wide);
  return static_cast<unsigned>(
      range_rem_ + (u - split) / (range_base_ == 0 ? 1 : range_base_));
}

void NetworkSim::release_ref(unsigned w, const PacketRecord& rec,
                             unsigned parity) {
  drop_resources(rec);
  const unsigned home = packet_ref_shard(rec.ref);
  if (home == w) {
    shards_[home].pool.release(packet_ref_slot(rec.ref));
  } else {
    // Foreign pools may not be touched from phase B (their owners grow and
    // release into them concurrently); route the slot home through the
    // current-parity release ring, drained by the owner's next phase A.
    shards_[w].released[parity][home].push_back(rec.ref);
  }
}

void NetworkSim::release_serial(const PacketRecord& rec) {
  drop_resources(rec);
  shards_[packet_ref_shard(rec.ref)].pool.release(packet_ref_slot(rec.ref));
}

std::size_t NetworkSim::discard_packets_at(const std::vector<NodeId>& dead) {
  // A packet queued at a dead node sits in its shard's stays; one in
  // transit to it sits in a box toward that shard (at this serial point
  // one parity of each foreign box is empty, so scanning both costs
  // nothing). Survivors keep their order.
  std::vector<bool> hit(shards_.size(), false);
  for (const NodeId u : dead) hit[shard_of(u)] = true;
  std::size_t lost = 0;
  const auto filter = [&](RecordList<NodeRecord>& list) {
    std::size_t kept = 0;
    for (const NodeRecord& r : list) {
      if (std::binary_search(dead.begin(), dead.end(), r.node)) {
        release_serial(r.rec);
        ++lost;
      } else {
        list[kept++] = r;
      }
    }
    list.truncate(kept);
  };
  for (unsigned d = 0; d < shards_.size(); ++d) {
    if (!hit[d]) continue;
    filter(shards_[d].stays);
    for (Shard& src : shards_) {
      for (auto& parity : src.box) filter(parity[d]);
    }
  }
  return lost;
}

void NetworkSim::apply_fault_events(Cycle now, bool measuring) {
  std::vector<NodeId> dead;  // nodes that died at this serial point
  while (next_event_ < schedule_events_.size() &&
         schedule_events_[next_event_].cycle <= now) {
    const FaultEvent& e = schedule_events_[next_event_++];
    if (measuring) ++metrics_.fault_events;
    switch (e.kind) {
      case FaultEvent::Kind::kLink:
        live_faults_->fail_link(e.node, e.dim);
        break;
      case FaultEvent::Kind::kNode:
        live_faults_->fail_node(e.node);
        dead.push_back(e.node);
        break;
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
  if (!dead.empty()) {
    // Packets sitting at (or in transit to) a dead node are lost with it,
    // in one pass however many nodes died. (Parked retries at it survive
    // until their wake cycle, where the same orphan accounting applies.)
    std::sort(dead.begin(), dead.end());
    dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
    const std::size_t lost = discard_packets_at(dead);
    in_flight_ -= lost;
    if (measuring) metrics_.orphaned_by_node_fault += lost;
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
    for (const NodeRecord& s : sh.stranded) {
      PacketCold& p = cold_of(s.rec.ref);
      if (p.retry_attempts < config_.retry_limit &&
          parked_count_[s.node] < config_.park_capacity) {
        const Cycle delay = config_.retry_backoff_base << p.retry_attempts;
        ++p.retry_attempts;
        parked_.emplace(now + delay, Parked{s.node, s.rec, false});
        ++parked_count_[s.node];
        ++parked_now_;
        if (measuring) ++metrics_.parked_retries;
      } else if (p.retransmits_used < config_.retry_budget) {
        // End-to-end recovery: relaunch from the source after the timeout
        // with a clean slate of local retries.
        ++p.retransmits_used;
        p.retry_attempts = 0;
        parked_.emplace(now + config_.retransmit_timeout,
                        Parked{p.src, s.rec, true});
        ++parked_now_;
        if (measuring) ++metrics_.retransmits;
      } else {
        release_serial(s.rec);
        ++gave_up_removed;
        if (measuring) ++metrics_.gave_up;
      }
    }
    sh.stranded.clear();
  }
}

std::shared_ptr<const Route> NetworkSim::plan_from(NodeId u,
                                                   NodeId dst) const {
  std::shared_ptr<const Route> plan = router_.plan_shared(u, dst);
  GCUBE_REQUIRE(plan == nullptr || plan->length() <= kMaxPacketHops,
                "router plan longer than 65535 hops: a packet record "
                "counts hops in 16 bits");
  return plan;
}

void NetworkSim::wake_parked(Cycle now, bool measuring) {
  while (!parked_.empty() && parked_.begin()->first <= now) {
    const Parked pk = parked_.begin()->second;
    parked_.erase(parked_.begin());
    --parked_now_;
    if (!pk.respawn) --parked_count_[pk.node];
    PacketRecord rec = pk.rec;
    const auto release = [&] {
      release_serial(rec);
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
      PacketCold& c = cold_of(rec.ref);
      c.plan.reset();
      c.steer_next = 0;
      c.plan_len = 0;
      c.tail.clear();
      rec.hops = 0;
      rec.flags = static_cast<std::uint16_t>((rec.flags & kPktAudited) |
                                             (steer_ ? kPktSteered : 0));
      if (!steer_) {
        std::shared_ptr<const Route> planned = plan_from(c.src, rec.dst);
        if (planned == nullptr) {
          // The planner sees no path at relaunch time; the retransmit is
          // spent and the packet is out of options.
          release();
          if (measuring) ++metrics_.gave_up;
          continue;
        }
        c.plan_len = static_cast<std::uint32_t>(planned->length());
        c.plan = std::move(planned);
        rec.flags |= kPktHasPlan;
      }
    }
    rec.flags = static_cast<std::uint16_t>(
        (rec.flags & ~kPktAtDst) | (pk.node == rec.dst ? kPktAtDst : 0));
    // Re-entry bypasses buffer_limit: the packet never left the network,
    // so blocking it here would leak it from the accounting.
    requeue_serial(pk.node, rec);
  }
}

void NetworkSim::admit_packet(unsigned w, NodeId u, NodeId dst, Cycle now,
                              bool measuring) {
  Shard& sh = shards_[w];
  SimMetrics& m = sh.metrics;
  if (measuring) ++m.generated;
  // The node's count so far covers its stays, wakes and arrivals: the
  // queue the packet would join.
  if (config_.buffer_limit != 0 &&
      sh.run_end[u - sh.begin] >= config_.buffer_limit) {
    if (measuring) ++m.injections_blocked;
    return;
  }
  std::shared_ptr<const Route> planned;
  std::uint32_t plan_len = 0;
  if (!steer_) {
    planned = plan_from(u, dst);
    if (planned == nullptr) {
      if (measuring) ++m.dropped;
      return;
    }
    plan_len = static_cast<std::uint32_t>(planned->length());
  }
  // Steered packets launch with no plan at all: the fabric tables (or an
  // adopted plan near faults) decide every hop at service time. A released
  // slot holds no plan and no hop log, so every other cold field is
  // (re)initialized here.
  const PacketIndex slot = sh.pool.acquire();
  PacketCold& c = sh.pool.cold(slot);
  const bool audited = (packet_id(now, u) & 63) == 0;
  // The audited sample's hop log is allocated here, by the slot's owner,
  // and freed by whichever worker releases the packet; its pushes happen
  // wherever the packet is served.
  if (audited) c.tail.reserve(hop_log_reserve());
  c.src = u;
  c.created = now;
  c.plan_len = plan_len;
  c.plan = std::move(planned);
  c.steer_next = 0;
  c.retry_attempts = 0;
  c.retransmits_used = 0;
  const auto flags = static_cast<std::uint16_t>(
      (steer_ ? kPktSteered : 0) | (c.plan != nullptr ? kPktHasPlan : 0) |
      (audited ? kPktAudited : 0) | (u == dst ? kPktAtDst : 0));
  sh.fresh.push_back({u, PacketRecord{make_packet_ref(w, slot), dst, 0,
                                      flags}});
  count_record(sh, u);
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
  std::chrono::steady_clock::time_point t0, t1, t2;
  if (timing_) t0 = std::chrono::steady_clock::now();
  const unsigned prev = static_cast<unsigned>(~now & 1);
  const auto shard_count = static_cast<unsigned>(shards_.size());
  // Slots other shards released from this pool last cycle.
  for (unsigned s = 0; s < shard_count; ++s) {
    RecordList<PacketRef>& rel = shards_[s].released[prev][w];
    for (const PacketRef ref : rel) sh.pool.release(packet_ref_slot(ref));
    rel.clear();
  }
  // Phase B consumed last cycle's runs (and zeroed their run_end slots):
  // retire them, and their occupancy.
  if (config_.buffer_limit != 0) {
    sh.busy.for_each_set([&](std::uint64_t bit) {
      occ_[sh.begin + static_cast<NodeId>(bit)] = 0;
    });
  }
  sh.busy.clear_all();
  // Counting sort, pass 1: count every input per node, in input order —
  // the stays (with serial-point wakes and restores), then last cycle's
  // departures toward this shard in ascending source-shard order (its own
  // box at its own position), then this cycle's injections.
  for (const NodeRecord& r : sh.stays) count_record(sh, r.node);
  for (unsigned s = 0; s < shard_count; ++s) {
    for (const NodeRecord& r : box_of(s, w, prev)) count_record(sh, r.node);
  }
  if (timing_) t1 = std::chrono::steady_clock::now();
  if (active_set_) {
    // Event-driven injection: only nodes whose fire time is due do any
    // work this cycle. Far-heap stragglers join the wheel bucket. Fires
    // reschedule into later buckets (or the far heap), never the one being
    // drained.
    //
    // The bucket is fired in whatever order it was filled: fires at
    // distinct nodes commute. A node has at most one pending fire; its
    // draws are keyed on (seed, node, cycle); and admit_packet touches
    // only that node's count and the shard's own pool and counters. The
    // one order-dependent outcome — which pool slot each packet gets, and
    // where in the injection list it lands — never reaches the metrics.
    std::vector<NodeId>& bucket = sh.wheel[now & (kWheelSize - 1)];
    while (!sh.far_fires.empty() &&
           (sh.far_fires.top() >> kFireNodeBits) <= now) {
      bucket.push_back(static_cast<NodeId>(sh.far_fires.top() &
                                           kFireNodeMask));
      sh.far_fires.pop();
    }
    // The per-(node, cycle) counter keys are a pure lane-parallel function
    // of the bucket; batch them, then fire. The node's count is prefetched
    // 2 * kPrefetchAhead fires ahead and the cold record the admit that
    // far ahead will initialize kPrefetchAhead fires ahead.
    const std::size_t due = bucket.size();
    std::uint64_t keys[64];
    for (std::size_t off = 0; off < due; off += 64) {
      const std::size_t chunk = std::min<std::size_t>(64, due - off);
      counter_keys(simd_, config_.seed, now, bucket.data() + off, chunk,
                   keys);
      for (std::size_t j = 0; j < chunk; ++j) {
        const std::size_t i = off + j;
        if (i + 2 * kPrefetchAhead < due) {
          prefetch_write(&sh.run_end[bucket[i + 2 * kPrefetchAhead] -
                                     sh.begin]);
        }
        if (i + kPrefetchAhead < due) {
          const PacketIndex slot = sh.pool.upcoming_slot(kPrefetchAhead);
          if (slot != PacketPool::kMaxSlots) {
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
  } else if (const std::optional<double> rate = traffic_.bernoulli_rate()) {
    // Batched Bernoulli sweep: one SIMD predicate pass answers "does node
    // u inject this cycle" for 64 nodes at a time. Drawing for an
    // ineligible node has no side effects (every node's stream is an
    // independent pure function of (seed, node, cycle)), so discarding
    // those lanes reproduces the scalar scan — which skips them before
    // drawing — exactly. Hit nodes replay their stream from the key:
    // should_inject consumes the predicate draw (true by construction),
    // then the destination draws follow as in the scalar loop.
    for (NodeId blk = sh.begin; blk < sh.end; blk += 64) {
      const auto cnt =
          static_cast<unsigned>(std::min<NodeId>(64, sh.end - blk));
      std::uint64_t mask = counter_bernoulli_mask(simd_, config_.seed, now,
                                                  blk, cnt, *rate);
      for (; mask != 0; mask &= mask - 1) {
        const NodeId u = blk + static_cast<NodeId>(std::countr_zero(mask));
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
  if (timing_) t2 = std::chrono::steady_clock::now();
  // Pass 2: counts become start offsets, ascending over the busy nodes;
  // with finite buffers they are also this cycle's committed occupancy.
  std::uint32_t total = 0;
  sh.busy.for_each_set([&](std::uint64_t bit) {
    const std::uint32_t count = sh.run_end[bit];
    if (config_.buffer_limit != 0) {
      occ_[sh.begin + static_cast<NodeId>(bit)] = count;
    }
    sh.run_end[bit] = total;
    total += count;
  });
  // Pass 3: scatter in input order (stable), which leaves run_end at each
  // run's end.
  sh.cur.resize_for_overwrite(total);
  const auto place = [&sh](const NodeRecord& r) {
    sh.cur[sh.run_end[r.node - sh.begin]++] = r.rec;
  };
  for (const NodeRecord& r : sh.stays) place(r);
  sh.stays.clear();
  for (unsigned s = 0; s < shard_count; ++s) {
    RecordList<NodeRecord>& box = box_of(s, w, prev);
    for (const NodeRecord& r : box) place(r);
    box.clear();
  }
  for (const NodeRecord& r : sh.fresh) place(r);
  sh.fresh.clear();
  if (timing_) {
    const auto t3 = std::chrono::steady_clock::now();
    sh.metrics.phase_drain_ns += ns_between(t0, t1) + ns_between(t2, t3);
    sh.metrics.phase_inject_ns += ns_between(t1, t2);
  }
}

void NetworkSim::deliver(unsigned w, const PacketRecord& rec, Cycle now,
                         bool measuring) {
  Shard& sh = shards_[w];
  if (rec.audited()) {
    const PacketCold& c = cold_of(rec.ref);
    NodeId replay = c.src;
    for (std::uint32_t k = 0; k < rec.hops; ++k) {
      replay = flip_bit(replay, packet_hop_at(c, k));
    }
    GCUBE_REQUIRE(replay == rec.dst,
                  "delivered packet's recorded path must end at dst");
  }
  if (measuring) {
    SimMetrics& m = sh.metrics;
    const PacketCold& c = cold_of(rec.ref);
    if (c.created < config_.warmup_cycles) {
      // Warmup-generated packet completing inside the window: real work,
      // but counting it in delivered/latency would let the delivery ratio
      // exceed the offered load and skew the averages.
      ++m.carryover_delivered;
    } else {
      ++m.delivered;
      m.total_latency += now - c.created;
      m.total_hops += rec.hops;
      m.latency_histogram.record(now - c.created);
    }
    ++m.service_ops;
  }
  ++sh.removed;
  release_ref(w, rec, static_cast<unsigned>(now & 1));
}

bool NetworkSim::serve_record(unsigned w, NodeId u, bool clean,
                              PacketRecord& rec, std::uint32_t& links_used,
                              Cycle now, bool measuring) {
  Shard& sh = shards_[w];
  SimMetrics& m = sh.metrics;
  const unsigned parity = static_cast<unsigned>(now & 1);
  // Adaptive and steered packets carry no complete route, so arrival is
  // detected positionally; a planned packet arrives exactly when its route
  // is consumed (the planner guarantees it ends at dst).
  const bool arrived = rec.positional_arrival()
                           ? u == rec.dst
                           : rec.hops == cold_of(rec.ref).plan_len;
  if (arrived) {
    deliver(w, rec, now, measuring);
    return true;
  }
  // A dropped packet leaves the network for good; dropping counts as
  // progress for the stall detector.
  const auto drop_hop_limit = [&]() {
    if (measuring) ++m.dropped_hop_limit;
    ++sh.removed;
    release_ref(w, rec, parity);
    return true;
  };
  // A packet with no usable continuation is dropped outright in legacy
  // mode; in recovery mode it is handed to the serial commit, which decides
  // between a parked retry, a source retransmit, and giving up. A stranded
  // packet stays in flight (not counted in sh.removed).
  const auto strand = [&]() {
    if (retries_) {
      sh.stranded.push_back({u, rec});
    } else {
      if (measuring) ++m.dropped_no_route;
      ++sh.removed;
      release_ref(w, rec, parity);
    }
    return true;
  };
  Dim c;
  if ((rec.flags & kPktSteered) != 0) {
    if (rec.hops >= hop_limit_) {
      return drop_hop_limit();  // livelock guard, same as adaptive re-plans
    }
    std::optional<Dim> hop;
    if ((rec.flags & kPktHasPlan) != 0) {
      // Following a plan adopted at an earlier fault-adjacent node; verify
      // the next adopted hop is still alive before taking it.
      PacketCold& cd = cold_of(rec.ref);
      const Dim pc = cd.plan->hops()[cd.steer_next];
      if (overlay_.link_usable(u, pc)) {
        hop = pc;
      } else {
        if (measuring) ++m.reroutes;
        cd.plan.reset();  // died underfoot: re-steer from this node
        cd.steer_next = 0;
        rec.flags &= static_cast<std::uint16_t>(~kPktHasPlan);
      }
    }
    if (!hop) {
      if (clean) {
        // No fault within distance 1: the fabric's fault-free table hop is
        // guaranteed usable — no per-link checks at all.
        hop = fabric_->fault_free_hop(u, rec.dst);
      } else {
        // Fault-adjacent node: adopt the router's full fault-aware plan
        // from here. A reroute is counted when the fault actually deflects
        // the packet off its fault-free table hop.
        if (measuring &&
            !overlay_.link_usable(u, fabric_->fault_free_hop(u, rec.dst))) {
          ++m.reroutes;
        }
        std::shared_ptr<const Route> adopted =
            router_.plan_shared(u, rec.dst);
        if (adopted == nullptr || adopted->length() == 0 ||
            !overlay_.link_usable(u, adopted->hops().front())) {
          return strand();  // no usable continuation (dst dead or cut off)
        }
        PacketCold& cd = cold_of(rec.ref);
        cd.plan = std::move(adopted);
        cd.steer_next = 0;
        rec.flags |= kPktHasPlan;
        hop = cd.plan->hops().front();
      }
    }
    c = *hop;
  } else if ((rec.flags & kPktAdaptive) != 0) {
    if (rec.hops >= hop_limit_) {
      return drop_hop_limit();  // livelock guard: stepwise re-plans cycled
    }
    const std::optional<Dim> nh = router_.next_hop(u, rec.dst);
    if (!nh || !overlay_.link_usable(u, *nh)) {
      return strand();  // no usable continuation (dst dead or cut off)
    }
    c = *nh;
  } else {
    PacketCold& cd = cold_of(rec.ref);
    c = cd.plan->hops()[rec.hops];
    if (!overlay_.link_usable(u, c)) {
      // The precomputed next link died under the packet: re-plan from here
      // with current fault knowledge instead of traversing it.
      if (measuring) ++m.reroutes;
      rec.flags |= kPktAdaptive;
      cd.plan_len = rec.hops;  // abandon the unconsumed planned tail
      const std::optional<Dim> nh = router_.next_hop(u, rec.dst);
      if (!nh || !overlay_.link_usable(u, *nh)) return strand();
      c = *nh;
    }
  }
  const std::uint32_t link = std::uint32_t{1} << c;
  const NodeId v = flip_bit(u, c);
  // Link busy (head-of-line blocking), or backpressure against
  // start-of-cycle committed occupancy: the packet stays at the head,
  // keeping what this service changed in `rec` (a dropped or adopted
  // plan, a switch to adaptive routing).
  if ((links_used & link) != 0 ||
      (config_.buffer_limit != 0 && occ_[v] >= config_.buffer_limit)) {
    return false;
  }
  links_used |= link;
  if (measuring) ++m.service_ops;
  if ((rec.flags & (kPktSteered | kPktAdaptive)) != 0) {
    // Online-routed hop: only the audited sample records it (the audit
    // path lives in the tail); everyone else keeps just the hop count.
    if (rec.audited()) cold_of(rec.ref).tail.push_back(c);
    if ((rec.flags & (kPktSteered | kPktHasPlan)) ==
        (kPktSteered | kPktHasPlan)) {
      PacketCold& cd = cold_of(rec.ref);
      if (++cd.steer_next >= static_cast<std::uint32_t>(cd.plan->length())) {
        cd.plan.reset();  // adopted plan consumed; back to table steering
        cd.steer_next = 0;
        rec.flags &= static_cast<std::uint16_t>(~kPktHasPlan);
      }
    }
  }
  depart(w, v, rec, parity);
  return true;
}

void NetworkSim::phase_forward(unsigned w, Cycle now, bool measuring) {
  Shard& sh = shards_[w];
  const unsigned parity = static_cast<unsigned>(now & 1);
  bool moved = false;
  std::chrono::steady_clock::time_point t0;
  if (timing_) t0 = std::chrono::steady_clock::now();
  // Busy nodes in ascending order, each serving its run of the sorted
  // array in place: the walk reads `cur` front to back. Records that will
  // read their cold line (planned, plan-following, audited, or at their
  // destination) get it prefetched kColdAhead records ahead of the walk.
  constexpr std::uint32_t kColdAhead = 8 * kPrefetchAhead;
  // The walk's loop invariants, hoisted into locals: record stores could
  // otherwise alias the members they come from and force reloads.
  PacketRecord* const cur = sh.cur.data();
  std::uint32_t* const run_end = sh.run_end.data();
  const NodeId first = sh.begin;
  const auto size = static_cast<std::uint32_t>(sh.cur.size());
  const std::uint32_t service_rate = config_.service_rate;
  const std::uint32_t hop_limit = hop_limit_;
  const std::uint32_t buffer_limit = config_.buffer_limit;
  const NextHopFabric* const fabric = fabric_;
  const bool steer = steer_;
  const bool no_faults = no_faults_;
  std::uint64_t fast_hops = 0;  // fast-path service_ops, added at the end
  std::uint32_t begin = 0;
  sh.busy.for_each_set([&](std::uint64_t bit) {
    const NodeId u = first + static_cast<NodeId>(bit);
    const std::uint32_t end = run_end[bit];
    run_end[bit] = 0;  // ready for the next phase A's count
    // One service of node u: up to service_rate records from the front of
    // its run. One packet per directed link per cycle: bit c of the mask
    // is set once this service has sent a packet along dimension c. u is
    // served once per cycle and owns its outgoing links, so no state
    // outlives the service.
    static_assert(kMaxDimension <= 32, "link mask is one 32-bit word");
    const bool clean = steer && (no_faults || overlay_.node_clean(u));
    std::uint32_t links_used = 0;
    const std::uint32_t stop =
        end - begin > service_rate ? begin + service_rate : end;
    std::uint32_t i = begin;
    for (; i < stop; ++i) {
      if (i + kColdAhead < size) {
        const PacketRecord& r = cur[i + kColdAhead];
        if (r.reads_cold()) prefetch_read(&cold_of(r.ref));
      }
      PacketRecord& rec = cur[i];
      if (clean && (rec.flags & (kPktSteered | kPktHasPlan | kPktAudited)) ==
                       kPktSteered) {
        // The fast path: a steered, plan-free, unaudited packet at a node
        // with no fault within distance 1 delivers or takes the fabric's
        // fault-free table hop — guaranteed usable, no per-link checks —
        // without touching its cold record unless it delivers.
        if (u == rec.dst) {
          deliver(w, rec, now, measuring);
          moved = true;
          continue;
        }
        if (rec.hops < hop_limit) {
          const Dim c = fabric->fault_free_hop(u, rec.dst);
          const std::uint32_t link = std::uint32_t{1} << c;
          const NodeId v = flip_bit(u, c);
          if ((links_used & link) != 0 ||
              (buffer_limit != 0 && occ_[v] >= buffer_limit)) {
            break;  // head-of-line blocking or backpressure
          }
          links_used |= link;
          ++fast_hops;
          depart(w, v, rec, parity);
          moved = true;
          continue;
        }
      }
      // Everything else takes the full decision tree.
      if (!serve_record(w, u, clean, rec, links_used, now, measuring)) break;
      moved = true;
    }
    // Whatever this service did not move stays queued, in order.
    for (; i < end; ++i) sh.stays.push_back({u, cur[i]});
    begin = end;
  });
  if (measuring) sh.metrics.service_ops += fast_hops;
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
  // double-buffered boxes and release rings, pointer-stable pools), so the
  // common
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

CheckpointPacket NetworkSim::capture_packet(const PacketRecord& rec) {
  const PacketCold& c = cold_of(rec.ref);
  CheckpointPacket p;
  p.dst = rec.dst;
  p.hops = rec.hops;
  p.plan_len = c.plan_len;
  p.flags = rec.flags & ~kPktAtDst;  // a prefetch hint, not state
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
  if (rec.audited()) {
    p.tail_hops.reserve(c.tail.size());
    for (std::uint32_t i = 0; i < c.tail.size(); ++i) {
      p.tail_hops.push_back(c.tail[i]);
    }
  }
  return p;
}

PacketRecord NetworkSim::restore_packet(unsigned w, NodeId node,
                                        const CheckpointPacket& p,
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
  // The record counts hops in 16 bits; a planned packet's count runs up
  // to its plan length.
  need(p.hops <= kMaxPacketHops && p.plan_len <= kMaxPacketHops,
       "hop count or plan length beyond the record's 16-bit hop field");

  Shard& sh = shards_[w];
  const PacketIndex slot = sh.pool.acquire();
  PacketCold& c = sh.pool.cold(slot);
  c.src = p.src;
  c.plan_len = p.plan_len;
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
  return PacketRecord{
      make_packet_ref(w, slot), p.dst, static_cast<std::uint16_t>(p.hops),
      static_cast<std::uint16_t>(p.flags | (node == p.dst ? kPktAtDst : 0))};
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

  // Effective queues, shard-count independent: node u's stays followed by
  // its pending box arrivals in ascending source-shard (= ascending
  // source-node) order — exactly the order phase A of cycle `next` would
  // sort them in. At this serial point one parity of each foreign box is
  // empty, and a shard's box toward itself is parity 0; the restore puts
  // everything in the stays with the merge pre-applied.
  ck.queues.resize(node_count_);
  for (const Shard& sh : shards_) {
    for (const NodeRecord& r : sh.stays) {
      ck.queues[r.node].push_back(capture_packet(r.rec));
    }
  }
  for (const Shard& src : shards_) {
    for (const auto& parity : src.box) {
      for (const RecordList<NodeRecord>& box : parity) {
        for (const NodeRecord& r : box) {
          ck.queues[r.node].push_back(capture_packet(r.rec));
        }
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
    cp.packet = capture_packet(pk.rec);
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
  // simulated trajectory, so refuse with the field's name. threads and
  // the SIMD level are deliberately NOT checked — metrics are bit-identical
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
      requeue_serial(u, restore_packet(w, u, p, "packets"));
      ++queued;
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
    const PacketRecord rec = restore_packet(shard_of(cp.node), cp.node,
                                            cp.packet, "parked");
    parked_.emplace(cp.wake, Parked{cp.node, rec, cp.respawn});
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
