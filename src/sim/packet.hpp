// Packet representation for the network simulator: a by-value per-hop
// record plus a pooled cold record.
//
// The cycle loop touches every in-flight packet once per hop, so the fields
// it reads there form a 12-byte PacketRecord — pool reference, destination,
// hop count, flags — which the simulator carries BY VALUE in per-shard
// arrays sorted by node (sim/network.hpp): a service reads and writes the
// records of consecutive nodes sequentially, with no pointer to chase.
// Everything else (source, creation cycle, the shared route plan and its
// consumed length, retry/retransmit counters, the audit hop log) lives in
// the one-cache-line PacketCold record the reference names in its pool,
// touched only at injection, by planned or plan-following packets, near
// faults (plan adoption / adaptive re-planning), on the audited
// delivery-replay sample, and at delivery accounting — never on the
// steered fault-free fast path. A packet's id is not stored: it is
// created · node_count + src, unique without a shared counter, and derived
// where it is needed (the audit flag, checkpoints).
//
// A packet does not own its source route: PacketCold::plan holds shared
// ownership of an immutable Route produced by the router's plan cache, so
// injection is a refcount bump instead of a hop-vector copy. A packet that
// goes adaptive (its precomputed next link died mid-flight) stops
// consuming the plan and — when it is in the audit sample — records each
// online hop in a heap-only byte log, reserved at injection and freed at
// release. The recorded path is plan[0, plan_len) ++ tail, which the
// simulator replays at delivery as a safety check on the deterministic
// 1-in-64 audited sample; non-audited packets keep only the hop COUNT
// (PacketRecord::hops) and an empty log handle, so the common case pays no
// per-hop store and no allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>

#include "routing/route.hpp"
#include "util/bits.hpp"

namespace gcube {

using Cycle = std::uint64_t;

/// Pool-tagged packet reference: owning pool shard in the top bits, slot
/// index below. 8 shard bits bound the simulator at 256 worker shards; the
/// slot field bounds each pool at PacketPool::kMaxSlots live packets,
/// enforced by PacketPool::acquire.
using PacketRef = std::uint32_t;
using PacketIndex = std::uint32_t;

inline constexpr unsigned kPacketRefShardShift = 24;
inline constexpr PacketRef kPacketRefSlotMask =
    (PacketRef{1} << kPacketRefShardShift) - 1;
inline constexpr unsigned kMaxPoolShards = 1u << (32 - kPacketRefShardShift);

[[nodiscard]] constexpr PacketRef make_packet_ref(unsigned shard,
                                                  PacketIndex slot) noexcept {
  return (static_cast<PacketRef>(shard) << kPacketRefShardShift) | slot;
}
[[nodiscard]] constexpr unsigned packet_ref_shard(PacketRef r) noexcept {
  return r >> kPacketRefShardShift;
}
[[nodiscard]] constexpr PacketIndex packet_ref_slot(PacketRef r) noexcept {
  return r & kPacketRefSlotMask;
}

/// Append-only log of an audited packet's online hops, one byte per hop.
/// Heap-only: an empty log is a null handle, the state of every packet
/// outside the audit sample. reserve() sizes it once at injection; a push
/// past the reservation (a deep detour under dense dynamic faults) doubles
/// it. clear() keeps the buffer; release() frees it.
class HopLog {
 public:
  static_assert(kMaxDimension <= UINT8_MAX,
                "the hop log stores one dimension per byte");

  void reserve(std::uint32_t capacity) {
    if (capacity > capacity_) regrow(capacity);
  }
  void push_back(Dim c) {
    if (size_ == capacity_) regrow(capacity_ == 0 ? 16 : 2 * capacity_);
    hops_[size_++] = static_cast<std::uint8_t>(c);
  }
  [[nodiscard]] Dim operator[](std::uint32_t i) const { return hops_[i]; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  void clear() noexcept { size_ = 0; }
  void release() noexcept {
    hops_.reset();
    size_ = 0;
    capacity_ = 0;
  }

 private:
  void regrow(std::uint32_t capacity) {
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
    std::copy_n(hops_.get(), size_, bigger.get());
    hops_ = std::move(bigger);
    capacity_ = capacity;
  }

  std::unique_ptr<std::uint8_t[]> hops_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

// PacketRecord::flags bits. kPktHasPlan mirrors PacketCold::plan != nullptr
// so the fast path can rule out an adopted plan without touching the cold
// record; kPktAudited precomputes (id & 63) == 0 for the same reason, and
// marks the cold record as owning a hop log. kPktAtDst is a prefetch hint,
// not state: set when the packet was handed to its destination node, so the
// service walk can load the cold record delivery will read ahead of time.
// Checkpoints leave it out and restores recompute it.
inline constexpr std::uint32_t kPktSteered = 1u << 0;
inline constexpr std::uint32_t kPktAdaptive = 1u << 1;
inline constexpr std::uint32_t kPktHasPlan = 1u << 2;
inline constexpr std::uint32_t kPktAudited = 1u << 3;
inline constexpr std::uint32_t kPktAtDst = 1u << 4;

/// Hop counts and plan lengths fit the record's 16-bit hop field: the
/// simulator refuses a livelock guard or a router plan above this.
inline constexpr std::uint32_t kMaxPacketHops =
    std::numeric_limits<std::uint16_t>::max();

/// The per-hop working set of one in-flight packet, carried by value:
/// everything the steered fault-free fast path reads or writes, and the
/// reference to the rest. Exactly 12 bytes.
struct PacketRecord {
  PacketRef ref;
  NodeId dst;
  /// Hops already taken (the cursor into the recorded path). For a planned
  /// packet this doubles as the index of the next plan hop to consume.
  std::uint16_t hops;
  std::uint16_t flags;  // kPkt* bits

  /// kSteered: fabric-steered packet, injected with NO plan, routed by
  /// per-hop table lookups at clean nodes and by an adopted router plan
  /// near faults; arrival is positional (current node == dst).
  /// kAdaptive: a mid-flight fault invalidated the precomputed route; the
  /// packet is steered hop by hop via Router::next_hop from then on.
  /// Either way arrival cannot be read off the plan cursor.
  [[nodiscard]] bool positional_arrival() const noexcept {
    return (flags & (kPktSteered | kPktAdaptive)) != 0;
  }
  /// Whether this packet participates in the delivery-replay audit (and so
  /// records its online hops in cold.tail). A deterministic 1-in-64 sample
  /// keyed on the id — a pure function of (creation cycle, source), so the
  /// sample is identical across thread counts — keeps the invariant
  /// continuously exercised without putting an O(path) replay plus a hop
  /// recording store on every packet of the hot path.
  [[nodiscard]] bool audited() const noexcept {
    return (flags & kPktAudited) != 0;
  }
  /// Whether serving this packet will read its cold record: anything but a
  /// steered, plan-free, unaudited packet short of its destination.
  [[nodiscard]] bool reads_cold() const noexcept {
    return (flags & kPktSteered) == 0 ||
           (flags & (kPktHasPlan | kPktAudited | kPktAtDst)) != 0;
  }
};
static_assert(sizeof(PacketRecord) == 12, "packet records stay 12 bytes");

/// Everything else: touched at injection, delivery, fault adjacency, and
/// on the audited sample — off the per-hop fast path by construction.
/// Exactly one cache line, aligned to one.
struct alignas(64) PacketCold {
  NodeId src = 0;
  /// Cursor into an adopted plan (steered packets only); adopted hops are
  /// NOT part of plan_len — they land in `tail`.
  std::uint32_t steer_next = 0;
  Cycle created = 0;
  /// Hops [0, plan_len) of the recorded path come from *plan; an adaptive
  /// packet truncates this to the hops actually traversed before the
  /// re-plan. Steered packets launch with 0 (no plan at all). Read only by
  /// planned and adaptive packets, which read `plan` on every hop anyway.
  std::uint32_t plan_len = 0;
  /// Source route: the cached immutable plan computed at injection (the
  /// paper's O(n) header), shared with the router's plan cache and any
  /// other packet on the same (src, dst) pair — or a plan adopted
  /// mid-flight at a fault-adjacent node by a steered packet.
  std::shared_ptr<const Route> plan;
  /// Transient-fault recovery state (SimConfig::retry_limit /
  /// retry_budget). How many times this packet has been parked in a retry
  /// queue since its last (re)launch, and how many end-to-end source
  /// retransmits it has consumed.
  std::uint16_t retry_attempts = 0;
  std::uint16_t retransmits_used = 0;
  /// Audited packets only: every online (steered or adaptive) hop taken.
  HopLog tail;
};
static_assert(sizeof(PacketCold) == 64, "cold lane record is one cache line");

/// The i-th hop of an audited packet's recorded path (i < hops, or
/// i < plan_len for the not-yet-traversed planned suffix).
[[nodiscard]] inline Dim packet_hop_at(const PacketCold& cold,
                                       std::uint32_t i) {
  return i < cold.plan_len ? cold.plan->hops()[i]
                           : cold.tail[i - cold.plan_len];
}

}  // namespace gcube
