// Flat storage for the packets' cold records.
//
// The simulator carries each in-flight packet's per-hop state by value, in
// 12-byte PacketRecords sorted by node (sim/network.hpp); the record's
// reference names a slot here, which holds the packet's one-cache-line
// PacketCold record. The cycle loop's per-hop pass never dereferences it on
// the steered fault-free fast path; it is read at injection, by planned or
// plan-following packets, near faults, on the audited sample and at
// delivery. Once the pools have grown to the run's working set the cycle
// loop allocates nothing here: plans are shared with the router's cache,
// and only the 1-in-64 audited packets own a small hop log, allocated at
// injection and freed by whichever worker releases the packet.
//
// The node-sharded simulator keeps one pool per shard (each thread
// allocates from its own slabs) and tags every reference with its owning
// pool in the top bits (sim/packet.hpp), so a packet forwarded across a
// shard boundary can still be dereferenced and, eventually, returned home.
// Concurrency is by phase discipline, not locks: only the owner thread
// grows its pool or returns slots to it; foreign threads only dereference
// the cold records of packets they are serving, and hand released slots
// home through rings drained under the cycle barrier.
//
// Storage is CHUNKED with a fixed-capacity chunk directory, so growing
// never moves an existing slot and never reallocates the directory. That
// stability is load-bearing for the fused cycle loop: shard A may be
// injecting (acquiring fresh slots in its pool) while shard B is still
// forwarding and dereferencing A's live slots — legal only because a
// foreign dereference touches memory that acquire() can never move. A
// foreign thread only ever reads directory entries published before the
// last cycle barrier, so the owner writing a NEW entry races with nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/packet.hpp"
#include "util/error.hpp"

namespace gcube {

class PacketPool {
 public:
  /// Slots per chunk. 4096 slots per slab amortizes the allocation; the
  /// directory covering the whole 16M-slot reference space is then 4096
  /// pointers — preallocated once, so it never reallocates under a
  /// concurrent foreign dereference.
  static constexpr unsigned kChunkBits = 12;
  static constexpr PacketIndex kChunkSize = PacketIndex{1} << kChunkBits;

  /// Slots one pool can hand out: indices [0, kMaxSlots), the slot field
  /// of a reference less its all-ones value.
  static constexpr PacketIndex kMaxSlots = kPacketRefSlotMask;

  PacketPool() : chunks_((kPacketRefSlotMask + 1) >> kChunkBits) {}

  /// A slot ready for initialization (recycled when possible). The caller
  /// must initialize every cold field it relies on; a released slot has no
  /// plan and an empty hop log. Owner thread only. Throws
  /// std::invalid_argument when kMaxSlots packets of this pool are live.
  [[nodiscard]] PacketIndex acquire() {
    if (free_.empty()) {
      GCUBE_REQUIRE(size_ < kMaxSlots,
                    "packet pool exhausted: one simulator shard holds "
                    "16777215 packets in flight (lower the injection rate "
                    "or the cycle count, or set a buffer limit)");
      if ((size_ & (kChunkSize - 1)) == 0) {
        chunks_[size_ >> kChunkBits] =
            std::make_unique<PacketCold[]>(kChunkSize);
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

  /// Takes a slot back. The releasing worker has already dropped the cold
  /// record's plan and hop log, so the home pool touches only its free
  /// list. Owner thread only.
  void release(PacketIndex i) { free_.push_back(i); }

  [[nodiscard]] PacketCold& cold(PacketIndex i) {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PacketCold& cold(PacketIndex i) const {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }
  [[nodiscard]] std::size_t live() const noexcept {
    return size_ - free_.size();
  }

 private:
  std::vector<std::unique_ptr<PacketCold[]>> chunks_;  // fixed-size directory
  // The owner updates these on every acquire and release; a line apart
  // from the directory every worker reads to dereference a reference.
  alignas(64) PacketIndex size_ = 0;  // slots ever handed out
  std::vector<PacketIndex> free_;
};

/// A growable array of trivially copyable records: the cycle loop's
/// per-cycle lists (departure boxes, stays, injections, release rings).
/// push_back inlines to a capacity check and one store, with growth kept
/// out of line — std::vector's push_back is not reliably inlined, and its
/// by-reference argument then costs a store-forwarding stall per packet
/// hop. clear() keeps the capacity, so a list that reached its
/// steady-state size stops allocating.
template <typename T>
class RecordList {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  void push_back(const T& value) {
    if (size_ == capacity_) [[unlikely]] grow(size_ + 1);
    data_[size_++] = value;
  }
  /// Sets the size to n without initializing new elements.
  void resize_for_overwrite(std::size_t n) {
    if (n > capacity_) grow(n);
    size_ = n;
  }
  /// Drops the elements from index n on (n <= size()).
  void truncate(std::size_t n) noexcept { size_ = n; }
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T* begin() noexcept { return data_.get(); }
  [[nodiscard]] T* end() noexcept { return data_.get() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_.get(); }
  [[nodiscard]] const T* end() const noexcept { return data_.get() + size_; }

 private:
  [[gnu::noinline]] void grow(std::size_t need) {
    const std::size_t capacity = std::max({need, 2 * capacity_,
                                           std::size_t{16}});
    auto bigger = std::make_unique_for_overwrite<T[]>(capacity);
    std::copy_n(data_.get(), size_, bigger.get());
    data_ = std::move(bigger);
    capacity_ = capacity;
  }

  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace gcube
