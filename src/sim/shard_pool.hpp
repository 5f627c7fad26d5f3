// Persistent worker pool for the node-sharded simulation cycle loop.
//
// The simulator executes its whole cycle loop as ONE dispatched job: every
// worker runs the loop locally and lines up with the others at barriers
// inside it. At thousands of cycles per run, even a per-cycle dispatch
// (epoch bump + done-count join) would cost two extra rendezvous per
// cycle, so run() is paid once per simulation and each cycle costs only
// its barriers — one on the fused fast path (phase A and B overlap freely
// across shards), two when a mid-cycle snapshot point is required.
//
// barrier_serial() is the fusion device: the LAST worker to arrive runs a
// caller-supplied serial section (global accounting, fault-schedule
// application) before opening the gate, so the per-cycle serial commit
// needs no extra rendezvous and no handoff to a distinguished thread.
//
// Waiting is three-staged: spin with a pause instruction (the inter-phase
// gaps are microseconds when every worker has a core), then a bounded
// number of sched_yields (gives the scheduler a chance when slightly
// oversubscribed), then a real futex park via std::atomic::wait — so
// workers > cores degrades to blocking instead of burning the cores the
// working threads need. Every gate opener notifies; the notify is cheap
// when nobody is parked. All handshakes are release/acquire pairs, so
// everything a worker wrote before arriving at a barrier is visible to
// every worker after it — the property the simulator's cross-shard
// departure-box reads rely on, and what ThreadSanitizer checks end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gcube {

namespace detail {
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace detail

class ShardPool {
 public:
  /// A pool of `threads` workers total (>= 1); `threads - 1` are spawned,
  /// the caller of run() acts as worker 0.
  explicit ShardPool(unsigned threads);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs job(0) .. job(threads - 1) concurrently (job(0) on the calling
  /// thread) and returns once all are done. The first exception escaping a
  /// job is rethrown here. A job that calls barrier() must not throw
  /// before its last barrier() — every worker has to arrive or the others
  /// wait forever — so jobs with internal phases catch per phase and
  /// report after the join (the simulator does exactly that).
  void run(const std::function<void(unsigned)>& job);

  /// Full synchronization point inside a job: no worker returns until all
  /// `threads` workers have arrived. Release/acquire on both edges, so
  /// pre-barrier writes are visible post-barrier.
  void barrier() noexcept {
    barrier_serial([] {});
  }

  /// Barrier with a fused serial section: the last worker to arrive runs
  /// fn() — alone, with every pre-barrier write of every worker visible —
  /// before opening the gate, and fn's writes are visible to all workers
  /// after the barrier. fn must not throw (catch inside and report through
  /// shared state) and must not depend on WHICH thread runs it.
  template <typename F>
  void barrier_serial(F&& fn) noexcept {
    if (workers_.empty()) {  // single-worker pool: no rendezvous at all
      fn();
      return;
    }
    const std::uint64_t gen = bar_gen_.load(std::memory_order_acquire);
    // The last arriver resets the count *before* opening the gate, so the
    // next barrier's arrivals can't be lost; everyone else waits on the
    // generation. A worker can only reach barrier N+1 after observing the
    // generation bump of barrier N, so its captured `gen` is always
    // current.
    if (bar_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        threads()) {
      fn();
      bar_arrived_.store(0, std::memory_order_relaxed);
      bar_gen_.fetch_add(1, std::memory_order_release);
      bar_gen_.notify_all();
    } else {
      wait_for(bar_gen_, gen);
    }
  }

 private:
  void worker_loop(unsigned worker);
  void record_error() noexcept;

  /// Spin, then yield, then park until `flag` moves off `last_seen`.
  template <typename T>
  void wait_for(const std::atomic<T>& flag, T last_seen) const noexcept {
    // Stage 1: pure spin — the common multi-core case where the other
    // workers are mid-phase and the gate opens within microseconds.
    // Pointless when workers outnumber cores: the flag can only move
    // after the kernel runs someone else, so go straight to yielding.
    const int spin_budget = oversubscribed_ ? 0 : 128;
    for (int spins = 0; spins < spin_budget; ++spins) {
      if (flag.load(std::memory_order_acquire) != last_seen) return;
      detail::cpu_relax();
    }
    // Stage 2: bounded yields — slight oversubscription, give the
    // scheduler a chance to run whoever holds the work.
    for (int yields = 0; yields < 32; ++yields) {
      if (flag.load(std::memory_order_acquire) != last_seen) return;
      std::this_thread::yield();
    }
    // Stage 3: futex park — workers > cores (or a long serial section).
    // Burning the only core with yields is precisely what made threads=4
    // slower than threads=1 on small machines.
    T seen = flag.load(std::memory_order_acquire);
    while (seen == last_seen) {
      flag.wait(seen, std::memory_order_acquire);
      seen = flag.load(std::memory_order_acquire);
    }
  }

  std::vector<std::jthread> workers_;
  const std::function<void(unsigned)>* job_ = nullptr;  // valid per epoch
  bool oversubscribed_ = false;  // workers > cores: skip the spin stage

  // Each handshake atomic gets its own cache line: arrivers RMW one
  // counter while waiters spin-load another, and sharing a line would
  // ping-pong it on every crossing.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};  // bumped per dispatch
  alignas(64) std::atomic<unsigned> done_{0};  // workers finished the epoch
  alignas(64) std::atomic<std::uint64_t> bar_gen_{0};  // barrier generation
  alignas(64) std::atomic<unsigned> bar_arrived_{0};
  alignas(64) std::atomic<bool> stop_{false};

  std::atomic<bool> has_error_{false};
  std::exception_ptr first_error_;          // guarded by error_mutex_
  std::mutex error_mutex_;
};

}  // namespace gcube
