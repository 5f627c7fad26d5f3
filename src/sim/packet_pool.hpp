// Flat packet storage for the simulator hot path.
//
// Packets live in pools, and every per-node FIFO is intrusive: a node's
// queue is a fixed 12-byte {head, tail, size} record, and the packets
// themselves are chained through a 4-byte `next` lane of the pool.
// Forwarding a packet relinks one 32-bit reference, no node owns a heap
// object, and once the pools have grown to the run's working set the cycle
// loop allocates nothing on the fast path: plans are shared with the
// router's cache, and only the 1-in-64 audited packets own a small hop log,
// allocated at injection and freed at release.
//
// Storage is structure-of-arrays at the slot level: every slot index i
// names a 16-byte PacketHot record in the hot lane, a 64-byte PacketCold
// record in the cold lane AND a 4-byte queue link in the next lane. The
// cycle loop's per-hop pass touches only hot(i) and, for queues deeper
// than one, next(i) — at GC(10,4)'s steady state a few hundred in-flight
// packets fit in a few KB of L1 — while cold(i) is dereferenced only at
// injection, delivery, fault adjacency, and on the audited sample.
//
// The node-sharded simulator keeps one pool per shard (each thread
// allocates from its own slabs) and tags every reference with its owning
// pool in the top bits, so a packet forwarded across a shard boundary can
// still be dereferenced and, eventually, returned home. Concurrency is by
// phase discipline, not locks: only the owner thread grows or releases
// into its pool, foreign threads only *dereference* live slots (and write
// the next link of a packet queued at a node they own), and cross-shard
// releases travel through mailboxes drained under the cycle barrier.
//
// Storage is CHUNKED with fixed-capacity chunk directories, so growing
// never moves an existing slot and never reallocates a directory. That
// stability is load-bearing for the fused cycle loop: shard A may be
// injecting (acquiring fresh slots in its pool) while shard B is still
// forwarding and dereferencing A's live slots — legal only because a
// foreign dereference touches memory that acquire() can never move. A
// foreign thread only ever reads directory entries published before the
// last cycle barrier, so the owner writing a NEW entry races with nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.hpp"
#include "util/error.hpp"

namespace gcube {

using PacketIndex = std::uint32_t;

/// Pool-tagged packet reference: owning pool shard in the top bits, slot
/// index below. 8 shard bits bound the simulator at 256 worker shards; the
/// slot field bounds each pool at kPacketRefSlotMask live packets, enforced
/// by PacketPool::acquire.
using PacketRef = std::uint32_t;

inline constexpr unsigned kPacketRefShardShift = 24;
inline constexpr PacketRef kPacketRefSlotMask =
    (PacketRef{1} << kPacketRefShardShift) - 1;
inline constexpr unsigned kMaxPoolShards = 1u << (32 - kPacketRefShardShift);

/// The "no packet" reference: the empty end of an intrusive queue. Its
/// slot field is the first index acquire() refuses, so it never names a
/// live packet in any pool.
inline constexpr PacketRef kNoPacket = ~PacketRef{0};

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

class PacketPool {
 public:
  /// Slots per chunk. 4096 slots per slab amortizes the allocation; each
  /// directory covering the whole 16M-slot reference space is then 4096
  /// pointers — preallocated once, so it never reallocates under a
  /// concurrent foreign dereference.
  static constexpr unsigned kChunkBits = 12;
  static constexpr PacketIndex kChunkSize = PacketIndex{1} << kChunkBits;

  /// Slots one pool can hand out: indices [0, kMaxSlots). The slot field
  /// is kPacketRefShardShift bits wide, and its all-ones value is kept
  /// back so kNoPacket stays unambiguous.
  static constexpr PacketIndex kMaxSlots = kPacketRefSlotMask;

  PacketPool()
      : hot_chunks_((kPacketRefSlotMask + 1) >> kChunkBits),
        cold_chunks_((kPacketRefSlotMask + 1) >> kChunkBits),
        next_chunks_((kPacketRefSlotMask + 1) >> kChunkBits) {}

  /// A slot ready for initialization (recycled when possible). The caller
  /// (admit_packet / respawn) must initialize EVERY hot and cold field it
  /// relies on — release() clears only the flag word and the cold fields
  /// that hold resources. The next link is written by the queue push that
  /// makes it meaningful. Owner thread only. Throws std::invalid_argument
  /// when kMaxSlots packets of this pool are already live.
  [[nodiscard]] PacketIndex acquire() {
    if (free_.empty()) {
      GCUBE_REQUIRE(size_ < kMaxSlots,
                    "packet pool exhausted: one simulator shard holds "
                    "16777215 packets in flight (lower the injection rate "
                    "or the cycle count, or set a buffer limit)");
      if ((size_ & (kChunkSize - 1)) == 0) {
        hot_chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketHot[]>(kChunkSize);
        cold_chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketCold[]>(kChunkSize);
        next_chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketRef[]>(kChunkSize);
      }
      return size_++;
    }
    const PacketIndex i = free_.back();
    free_.pop_back();
    return i;
  }

  /// The slot the acquire() `ahead` calls from now will hand out if no
  /// release() comes between, or kMaxSlots when that slot's chunk is not
  /// allocated yet. Lets the injection loop prefetch the records it is
  /// about to initialize.
  [[nodiscard]] PacketIndex upcoming_slot(std::size_t ahead) const noexcept {
    if (ahead < free_.size()) return free_[free_.size() - 1 - ahead];
    const std::size_t fresh = size_ + (ahead - free_.size());
    const std::size_t allocated =
        (std::size_t{size_} + kChunkSize - 1) & ~std::size_t{kChunkSize - 1};
    return fresh < allocated ? static_cast<PacketIndex>(fresh) : kMaxSlots;
  }

  /// Returns a slot to the free list. Deliberately minimal: the cold
  /// record is touched only when the flag word says it holds a plan
  /// refcount or a hop log — a delivered fast-path steered packet releases
  /// with a single hot-lane store. Owner thread only.
  void release(PacketIndex i) {
    PacketHot& h = hot(i);
    if ((h.flags & (kPktHasPlan | kPktAudited)) != 0) {
      PacketCold& c = cold(i);
      c.plan.reset();
      c.tail.release();
    }
    h.flags = 0;
    free_.push_back(i);
  }

  [[nodiscard]] PacketHot& hot(PacketIndex i) {
    return hot_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PacketHot& hot(PacketIndex i) const {
    return hot_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] PacketCold& cold(PacketIndex i) {
    return cold_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PacketCold& cold(PacketIndex i) const {
    return cold_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  /// The reference queued behind slot i at its node. Meaningful only while
  /// i is queued and not its queue's tail.
  [[nodiscard]] PacketRef& next(PacketIndex i) {
    return next_chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }
  [[nodiscard]] std::size_t live() const noexcept {
    return size_ - free_.size();
  }

 private:
  // Fixed-size directories; hot, cold and next lanes grow in lockstep.
  std::vector<std::unique_ptr<PacketHot[]>> hot_chunks_;
  std::vector<std::unique_ptr<PacketCold[]>> cold_chunks_;
  std::vector<std::unique_ptr<PacketRef[]>> next_chunks_;
  PacketIndex size_ = 0;  // slots ever handed out (chunks allocated lazily)
  std::vector<PacketIndex> free_;
};

static_assert(packet_ref_slot(kNoPacket) == PacketPool::kMaxSlots,
              "the empty-queue sentinel must name a slot acquire() refuses");

/// FIFO ring buffer with power-of-two capacity. Grows geometrically on
/// overflow and never shrinks, so a ring that reached its steady-state
/// depth stops allocating. T must be trivially copyable-ish (packet refs,
/// mailbox entries).
template <typename T>
class Ring {
 public:
  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = v;
    ++count_;
  }
  /// Precondition for front()/pop_front(): !empty().
  [[nodiscard]] T front() const {
    assert(count_ > 0);
    return buf_[head_];
  }
  /// The i-th element from the front (i < size()). Lets a consumer drain a
  /// whole ring as one indexed batch + clear() instead of size() many
  /// front()/pop_front() pairs.
  [[nodiscard]] T at(std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t grown = buf_.empty() ? 8 : 2 * buf_.size();
    std::vector<T> bigger(grown);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  // power-of-two size (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gcube
