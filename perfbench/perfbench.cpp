// gcube_perfbench — the repository benchmark binary.
//
// Runs one workload of the Gaussian Cube simulator for a host-time budget
// and prints its metrics as one JSON object on the last line of stdout.
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report per-layer metrics taken from SimConfig::phase_timing,
// from a timing wrapper around the Router the simulator calls, and from
// timers around the library's public calls. Throughput divides by process
// CPU seconds, which leave out hypervisor steal (README.md, "Why CPU
// seconds"). perfbench/README.md maps every metric to its layer and
// workload.
//
//   gcube_perfbench --workload clean_scale|static_faults|churn_recovery
//                   --seed N --seconds S --trace 0|1 [--tiny] [--commit SHA]
//
// Every run also checks the program's outputs (traced and untraced
// SimMetrics deterministic_equals, sampled FTGCR plans validate against the
// workload's fault set, delivered <= generated); a failed check prints
// "correct": false and exits 1.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_set.hpp"
#include "fault/overlay.hpp"
#include "fault/preconditions.hpp"
#include "routing/ftgcr.hpp"
#include "routing/next_hop_table.hpp"
#include "routing/route.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "topology/gaussian_cube.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace gcube;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Every workload runs the FTGCR router on GC(n, 4) under uniform
// traffic at rate 0.05 in one process; README.md says why each was chosen.

constexpr std::uint64_t kModulus = 4;
constexpr double kInjectionRate = 0.05;
constexpr double kMttf = 200.0;  // flapping links: mean up-time, cycles
constexpr double kMttr = 50.0;   // flapping links: mean down-time, cycles

struct Workload {
  const char* name;
  Dim n;
  std::size_t static_faults;   // precondition-checked, drawn from the seed
  std::size_t flapping_links;  // mttf kMttf, mttr kMttr
  double node_fault_rate;      // random node-fault arrivals per cycle
  Cycle node_repair_after;     // each random node fault heals after this
  std::uint32_t retry_limit;
  std::uint32_t retry_budget;
  std::uint32_t threads;
  Cycle warmup;
  Cycle measure;
  std::size_t scenarios;  // panel size: distinct inputs per run

  [[nodiscard]] bool dynamic() const {
    return flapping_links > 0 || node_fault_rate > 0.0;
  }
  [[nodiscard]] Cycle horizon() const { return warmup + measure; }
};

constexpr Workload kWorkloads[] = {
    {"clean_scale", 18, 0, 0, 0.0, 0, 0, 0, 4, 100, 200, 8},
    {"static_faults", 16, 16, 0, 0.0, 0, 0, 0, 1, 20, 40, 20},
    {"churn_recovery", 14, 0, 64, 0.01, 400, 4, 2, 4, 100, 500, 30},
};

// The self-test pass: the same workloads shrunk to GC(10, 4).
constexpr Workload kTinyWorkloads[] = {
    {"clean_scale", 10, 0, 0, 0.0, 0, 0, 0, 4, 100, 200, 4},
    {"static_faults", 10, 4, 0, 0.0, 0, 0, 0, 1, 100, 200, 4},
    {"churn_recovery", 10, 0, 8, 0.01, 400, 4, 2, 4, 100, 400, 4},
};

// Seed streams for the workload's random inputs, kept apart so that changing
// one generator never shifts another's draws.
constexpr std::uint64_t kFaultStream = 0x51a7f00dULL;
constexpr std::uint64_t kNodeChurnStream = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kLinkChurnStream = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kSampleStream = 0x5a3b1e5eedULL;
constexpr std::uint64_t kScenarioStream = 0x5ce7a210ULL;

/// Seed of a run's i-th scenario: its faults, schedule and traffic. Each
/// repetition runs its own scenario, so a run's medians average over many
/// fault placements; one placement alone can cost twice another.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t i) {
  return counter_key(seed, i, kScenarioStream);
}

/// `count` distinct faulty nodes satisfying the FTGCR precondition; the
/// precondition is checked on the returned set even when it is empty.
FaultSet draw_static_faults(const GaussianCube& gc, std::size_t count,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed ^ kFaultStream);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    FaultSet faults;
    while (faults.node_fault_count() < count) {
      faults.fail_node(static_cast<NodeId>(rng.below(gc.node_count())));
    }
    if (check_ftgcr_precondition(gc, faults)) return faults;
  }
  GCUBE_REQUIRE(false, "no tolerable fault pattern found for " + gc.name());
  return {};
}

/// Flapping links plus transient random node faults over the workload's
/// whole horizon.
FaultSchedule build_schedule(const GaussianCube& gc, const Workload& w,
                             std::uint64_t seed) {
  FaultSchedule schedule;
  if (w.node_fault_rate > 0.0) {
    const FaultSchedule arrivals = FaultSchedule::random_node_faults(
        gc.node_count(), w.node_fault_rate, w.horizon(),
        seed ^ kNodeChurnStream,
        static_cast<std::size_t>(gc.node_count() / 8));
    for (const FaultEvent& e : arrivals.events()) {
      schedule.fail_node_at(e.cycle, e.node);
      schedule.repair_node_at(e.cycle + w.node_repair_after, e.node);
    }
  }
  if (w.flapping_links > 0) {
    std::vector<LinkId> candidates;
    for (NodeId u = 0; u < gc.node_count(); ++u) {
      for (Dim c = 0; c < gc.dims(); ++c) {
        // Each undirected link once, named by its lower endpoint.
        if (gc.has_link(u, c) && bit(u, c) == 0) candidates.push_back({u, c});
      }
    }
    const FaultSchedule flaps = FaultSchedule::random_flapping_links(
        candidates, w.flapping_links, kMttf, kMttr, w.horizon(),
        seed ^ kLinkChurnStream);
    for (const FaultEvent& e : flaps.events()) {
      if (e.kind == FaultEvent::Kind::kLink) {
        schedule.fail_link_at(e.cycle, e.node, e.dim);
      } else {
        schedule.repair_link_at(e.cycle, e.node, e.dim);
      }
    }
  }
  return schedule;
}

void apply_event(FaultSet& faults, const FaultEvent& e) {
  switch (e.kind) {
    case FaultEvent::Kind::kNode: faults.fail_node(e.node); break;
    case FaultEvent::Kind::kLink: faults.fail_link(e.node, e.dim); break;
    case FaultEvent::Kind::kRepairNode: faults.repair_node(e.node); break;
    case FaultEvent::Kind::kRepairLink:
      faults.repair_link(e.node, e.dim);
      break;
  }
}

/// The workload's fault set as routing sees it: the static draw, plus — for
/// churn — every schedule event up to the middle of the run.
FaultSet fault_snapshot(const GaussianCube& gc, const Workload& w,
                        std::uint64_t seed) {
  FaultSet faults = draw_static_faults(gc, w.static_faults, seed);
  if (w.dynamic()) {
    const FaultSchedule schedule = build_schedule(gc, w, seed);
    for (const FaultEvent& e : schedule.events()) {
      if (e.cycle > w.horizon() / 2) break;
      apply_event(faults, e);
    }
  }
  return faults;
}

// ---------------------------------------------------------------------------
// Traced runs hand the simulator this wrapper instead of the FTGCR router:
// it forwards every call and adds the time spent in the router's planning
// entry points. The simulator reaches them only off the fabric fast path,
// so the wrapper costs nothing per fault-free hop.

class TimedRouter final : public Router {
 public:
  explicit TimedRouter(const Router& inner) : inner_(inner) {}

  [[nodiscard]] RoutingResult plan(NodeId s, NodeId d) const override {
    const auto t0 = Clock::now();
    RoutingResult r = inner_.plan(s, d);
    add(t0);
    return r;
  }
  [[nodiscard]] std::shared_ptr<const Route> plan_shared(
      NodeId s, NodeId d) const override {
    const auto t0 = Clock::now();
    std::shared_ptr<const Route> r = inner_.plan_shared(s, d);
    add(t0);
    return r;
  }
  [[nodiscard]] std::optional<Dim> next_hop(NodeId cur,
                                            NodeId dst) const override {
    const auto t0 = Clock::now();
    const std::optional<Dim> r = inner_.next_hop(cur, dst);
    add(t0);
    return r;
  }
  [[nodiscard]] RouterCacheStats cache_stats() const override {
    return inner_.cache_stats();
  }
  [[nodiscard]] const NextHopFabric* fabric() const override {
    return inner_.fabric();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  /// Nanoseconds spent inside the forwarded planning calls, all threads.
  [[nodiscard]] std::uint64_t busy_ns() const noexcept {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  void add(Clock::time_point t0) const noexcept {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                       std::memory_order_relaxed);
  }

  const Router& inner_;
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

// ---------------------------------------------------------------------------
// One repetition: set up anew, then NetworkSim::run.

struct SetupTimes {
  double topology_s = 0.0;      // GaussianCube construction
  double precondition_s = 0.0;  // fault draw + FTGCR precondition check
  double router_s = 0.0;        // FtgcrRouter (tree + next-hop fabric)
  double construct_s = 0.0;     // NetworkSim construction
  double total_s = 0.0;         // start to the first cycle
};

/// Everything one simulation needs. The router and the simulator keep
/// references into it, so it is built in place and never moves.
struct Instance {
  std::unique_ptr<GaussianCube> gc;
  FaultSet faults;
  std::unique_ptr<FtgcrRouter> router;
  std::unique_ptr<TimedRouter> timed;  // traced repetitions only
  FaultSchedule schedule;
  std::unique_ptr<NetworkSim> sim;
};

struct Rep {
  SetupTimes setup;
  double run_s = 0.0;  // wall seconds of NetworkSim::run
  double cpu_s = 0.0;  // process CPU seconds of NetworkSim::run
  std::uint64_t router_ns = 0;
  SimMetrics metrics;
};

/// Builds everything anew — the set-up a simulation pays before its
/// first cycle — timing each stage into `times`.
std::unique_ptr<Instance> build_instance(const Workload& w, std::uint64_t seed,
                                         bool traced, SetupTimes& times) {
  auto in = std::make_unique<Instance>();
  const auto t0 = Clock::now();
  in->gc = std::make_unique<GaussianCube>(w.n, kModulus);
  const auto t1 = Clock::now();
  in->faults = draw_static_faults(*in->gc, w.static_faults, seed);
  const auto t2 = Clock::now();
  in->router = std::make_unique<FtgcrRouter>(*in->gc, in->faults);
  if (traced) in->timed = std::make_unique<TimedRouter>(*in->router);
  const auto t3 = Clock::now();
  if (w.dynamic()) in->schedule = build_schedule(*in->gc, w, seed);
  const auto t4 = Clock::now();
  SimConfig cfg;
  cfg.injection_rate = kInjectionRate;
  cfg.warmup_cycles = w.warmup;
  cfg.measure_cycles = w.measure;
  cfg.seed = seed;
  cfg.threads = w.threads;
  cfg.retry_limit = w.retry_limit;
  cfg.retry_budget = w.retry_budget;
  cfg.phase_timing = traced;
  const Router& router =
      traced ? static_cast<const Router&>(*in->timed) : *in->router;
  if (w.dynamic()) {
    in->sim = std::make_unique<NetworkSim>(*in->gc, router, in->faults, cfg,
                                           in->schedule);
  } else {
    in->sim = std::make_unique<NetworkSim>(*in->gc, router, in->faults, cfg);
  }
  const auto t5 = Clock::now();
  // Schedule generation (t3 to t4) counts only toward the total.
  times = {seconds_between(t0, t1), seconds_between(t1, t2),
           seconds_between(t2, t3), seconds_between(t4, t5),
           seconds_between(t0, t5)};
  return in;
}

/// CPU time of all the process's threads. Unlike wall time it leaves out
/// time the hypervisor stole from the guest and time spent blocked.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

Rep run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  Rep rep;
  const std::unique_ptr<Instance> in =
      build_instance(w, seed, traced, rep.setup);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  rep.metrics = in->sim->run();
  rep.run_s = seconds_between(t0, Clock::now());
  rep.cpu_s = process_cpu_s() - cpu0;
  if (traced) rep.router_ns = in->timed->busy_ns();
  return rep;
}

/// Packets the network lost: every offered packet that neither arrived nor
/// was still in flight when the window closed.
std::uint64_t lost_packets(const SimMetrics& m) {
  return m.dropped + m.injections_blocked + m.dropped_no_route +
         m.dropped_hop_limit + m.orphaned_by_node_fault + m.gave_up;
}

/// FNV-1a over every field deterministic_equals compares, so a change that
/// only moves speed prints the same digest.
std::uint64_t metrics_digest(const SimMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint64_t v :
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

// ---------------------------------------------------------------------------
// Routing-layer samples on the workload's fault set.

struct RoutingSample {
  std::vector<double> plan_us;
  std::vector<double> next_hop_cold_us;
  std::vector<double> next_hop_warm_us;
  std::size_t undelivered = 0;  // allowed only when the precondition fails
  std::vector<std::string> problems;
};

/// Times FtgcrRouter::plan and next_hop on `count` (cur, dst) pairs whose
/// source sits next to a fault (random sources on a fault-free cube), and
/// checks every plan with validate_route and against next_hop. Appends to
/// `out`.
void sample_routing(const GaussianCube& gc, const FaultSet& faults,
                    std::size_t count, std::uint64_t seed, RoutingSample& out) {
  const bool tolerable =
      static_cast<bool>(check_ftgcr_precondition(gc, faults));
  FaultOverlay overlay;
  overlay.attach(gc);
  overlay.refresh(faults);
  std::vector<NodeId> sources;
  for (NodeId u = 0; u < gc.node_count(); ++u) {
    if (!faults.node_faulty(u) && !overlay.node_clean(u)) sources.push_back(u);
  }
  Xoshiro256 rng(seed ^ kSampleStream);
  auto random_live = [&]() {
    for (;;) {
      const auto u = static_cast<NodeId>(rng.below(gc.node_count()));
      if (!faults.node_faulty(u)) return u;
    }
  };
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const NodeId cur = sources.empty()
                           ? random_live()
                           : sources[rng.below(sources.size())];
    const NodeId dst = random_live();
    if (cur != dst) pairs.emplace_back(cur, dst);
  }

  const FtgcrRouter planner(gc, faults);
  std::vector<std::optional<Dim>> first_hop(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [cur, dst] = pairs[i];
    const auto t0 = Clock::now();
    const RoutingResult r = planner.plan(cur, dst);
    out.plan_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (!r.delivered()) {
      ++out.undelivered;
      if (tolerable) {
        out.problems.push_back("plan " + std::to_string(cur) + "->" +
                               std::to_string(dst) + " failed: " + r.failure);
      }
      continue;
    }
    const RouteCheck check = validate_route(gc, faults, *r.route);
    if (!check || r.route->source() != cur ||
        r.route->destination() != dst) {
      out.problems.push_back("plan " + std::to_string(cur) + "->" +
                             std::to_string(dst) + " invalid: " +
                             check.reason);
    }
    if (!r.route->empty()) first_hop[i] = r.route->hops().front();
  }

  // A fresh router, so the first next_hop of each pair misses its caches.
  const FtgcrRouter stepper(gc, faults);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [cur, dst] = pairs[i];
    const auto t0 = Clock::now();
    const std::optional<Dim> cold = stepper.next_hop(cur, dst);
    const auto t1 = Clock::now();
    const std::optional<Dim> warm = stepper.next_hop(cur, dst);
    const auto t2 = Clock::now();
    out.next_hop_cold_us.push_back(seconds_between(t0, t1) * 1e6);
    out.next_hop_warm_us.push_back(seconds_between(t1, t2) * 1e6);
    if (cold != warm || cold != first_hop[i]) {
      out.problems.push_back("next_hop " + std::to_string(cur) + "->" +
                             std::to_string(dst) +
                             " disagrees with the planned first hop");
    }
  }
}

/// Nanoseconds per batched NextHopFabric::fault_free_hops lookup on random
/// pairs (64-pair batches, as the simulator's batched advance issues them);
/// median over passes. Checks the batch against the scalar lookup.
double fabric_ns_per_lookup(const GaussianCube& gc, double budget_s,
                            std::uint64_t seed,
                            std::vector<std::string>& problems) {
  const NextHopFabric fabric(gc);
  GCUBE_REQUIRE(fabric.supported(), "next-hop fabric unsupported");
  constexpr std::size_t kPairs = std::size_t{1} << 14;
  constexpr std::size_t kBatch = 64;
  Xoshiro256 rng(seed ^ kSampleStream ^ 0xfab);
  std::vector<NodeId> cur(kPairs);
  std::vector<NodeId> dst(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    do {
      cur[i] = static_cast<NodeId>(rng.below(gc.node_count()));
      dst[i] = static_cast<NodeId>(rng.below(gc.node_count()));
    } while (cur[i] == dst[i]);
  }
  std::vector<Dim> hop(kPairs);
  const SimdLevel level = simd_level();
  std::vector<double> pass_ns;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPairs; i += kBatch) {
      fabric.fault_free_hops(level, kBatch, &cur[i], &dst[i], &hop[i]);
    }
    pass_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(kPairs));
  } while (pass_ns.size() < 5 ||
           seconds_between(start, Clock::now()) < budget_s);
  for (std::size_t i = 0; i < kPairs; ++i) {
    if (hop[i] != fabric.fault_free_hop(cur[i], dst[i])) {
      problems.push_back("batched fabric lookup disagrees with scalar");
      break;
    }
  }
  std::sort(pass_ns.begin(), pass_ns.end());
  return pass_ns[pass_ns.size() / 2];
}

/// Microseconds for FaultOverlay::attach + refresh on the workload's fault
/// set after a repair (the full rebuild a repair event forces); median.
double overlay_rebuild_us(const GaussianCube& gc, FaultSet faults,
                          std::size_t samples) {
  NodeId victim = 0;
  while (faults.node_faulty(victim)) ++victim;
  FaultOverlay overlay;
  std::vector<double> us;
  for (std::size_t i = 0; i <= samples; ++i) {
    faults.fail_node(victim);
    faults.repair_node(victim);
    const auto t0 = Clock::now();
    overlay.attach(gc);
    overlay.refresh(faults);
    const double t = seconds_between(t0, Clock::now()) * 1e6;
    if (i > 0) us.push_back(t);  // the first pass also allocates
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// ---------------------------------------------------------------------------
// Statistics and output.

double median(std::vector<double> v) {
  GCUBE_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  GCUBE_REQUIRE(!v.empty(), "percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

template <class F>
double median_of(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return median(std::move(v));
}

/// Median over the panel's scenarios of each scenario's median, so every
/// scenario weighs the same however many passes the budget allowed.
template <class F>
double per_scenario_median(const std::vector<Rep>& reps, std::size_t panel,
                           F f) {
  std::vector<std::vector<double>> by_scenario(panel);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    by_scenario[i % panel].push_back(f(reps[i]));
  }
  std::vector<double> medians;
  for (std::vector<double>& v : by_scenario) {
    if (!v.empty()) medians.push_back(median(std::move(v)));
  }
  return median(std::move(medians));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    GCUBE_REQUIRE(i + 1 < argc, "missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      GCUBE_REQUIRE(a.seconds > 0.0 && a.seconds <= 600.0,
                    "--seconds must be in (0, 600]");
    } else if (key == "--trace") {
      GCUBE_REQUIRE(val == "0" || val == "1", "--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      GCUBE_REQUIRE(false, "unknown argument " + key);
    }
  }
  GCUBE_REQUIRE(have_workload, "--workload is required");
  return a;
}

// Set-up samples per untraced run (repetitions' set-ups included).
constexpr std::size_t kSetupSamples = 15;
// Scenarios whose fault sets the routing samples are spread over.
constexpr std::size_t kSampleScenarios = 8;

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : args.tiny ? kTinyWorkloads : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  GCUBE_REQUIRE(found != nullptr, "unknown workload " + args.workload);
  const Workload& w = *found;
  const std::uint64_t seed = args.seed;
  unsigned nproc = std::thread::hardware_concurrency();
  if (nproc == 0) nproc = 1;
  const unsigned threads = std::min(w.threads, nproc);  // NetworkSim clamps
  const GaussianCube gc(w.n, kModulus);
  const auto node_count = static_cast<double>(gc.node_count());
  std::vector<std::string> problems;

  // Routing layer: plans sampled on several scenarios' fault sets are
  // validated in every run and timed for the traced report.
  RoutingSample routing;
  const std::size_t pairs = (args.tiny ? 200 : 2000) / kSampleScenarios;
  for (std::size_t i = 0; i < kSampleScenarios; ++i) {
    const std::uint64_t s = scenario_seed(seed, i);
    sample_routing(gc, fault_snapshot(gc, w, s), pairs, s, routing);
  }
  problems.insert(problems.end(), routing.problems.begin(),
                  routing.problems.end());
  double fabric_ns = 0.0;
  double overlay_us = 0.0;
  if (args.trace) {
    fabric_ns = fabric_ns_per_lookup(gc, args.tiny ? 0.02 : 0.2, seed,
                                     problems);
    overlay_us = overlay_rebuild_us(
        gc, fault_snapshot(gc, w, scenario_seed(seed, 0)), args.tiny ? 5 : 31);
  }

  // Repetitions until the budget is spent, cycling over the run's panel of
  // scenarios; an untraced run covers the whole panel at least once, so a
  // faster program repeats the same inputs rather than adding new ones.
  // `timed` holds the repetitions the report is taken from, `twins` reruns
  // in the other mode: a traced run pairs every repetition with an untraced
  // twin (for the overhead), an untraced run ends with one traced twin of
  // scenario 0. A rerun of a scenario must match its first run exactly.
  const std::size_t panel = w.scenarios;
  const std::size_t min_reps = args.trace ? 2 : panel;
  std::vector<Rep> timed;
  std::vector<Rep> twins;
  const auto start = Clock::now();
  do {
    const std::size_t k = timed.size() % panel;
    timed.push_back(run_rep(w, scenario_seed(seed, k), args.trace));
    if (args.trace) {
      twins.push_back(run_rep(w, scenario_seed(seed, k), false));
    }
    std::fprintf(stderr,
                 "perfbench: rep %zu scenario %zu setup_s=%.4f run_s=%.4f "
                 "cpu_s=%.4f\n",
                 timed.size(), k, timed.back().setup.total_s,
                 timed.back().run_s, timed.back().cpu_s);
  } while (timed.size() < min_reps ||
           seconds_between(start, Clock::now()) < args.seconds);
  if (!args.trace) twins.push_back(run_rep(w, scenario_seed(seed, 0), true));

  for (std::size_t i = 0; i < timed.size(); ++i) {
    const Rep& first = timed[i % panel];
    const bool twin_differs =
        i < twins.size() &&
        !twins[i].metrics.deterministic_equals(first.metrics);
    if (twin_differs ||
        !timed[i].metrics.deterministic_equals(first.metrics)) {
      problems.push_back("SimMetrics of a rerun differ, scenario " +
                         std::to_string(i % panel));
    }
  }
  // Packets count once per scenario (the first pass), so attempted and
  // failed depend on the seed alone, not on how many passes fit.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const SimMetrics& rm = timed[i].metrics;
    if (rm.delivered > rm.generated) {
      problems.push_back("delivered > generated");
    }
    if (rm.delivered == 0) problems.push_back("no packet delivered");
    if (rm.deadlocked) problems.push_back("deadlock reported");
    if (!w.dynamic() && lost_packets(rm) != 0) {
      problems.push_back("packets lost without dynamic faults");
    }
    if (i < panel) {
      attempted += rm.generated;
      failed += lost_packets(rm);
    }
  }
  // Deterministic figures come from scenario 0, which every run holds.
  const SimMetrics& m = timed.front().metrics;

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Set-up is short next to a repetition, so it gets extra samples of its
    // own: set up and tear down without running.
    std::vector<double> setup_s;
    for (const Rep& r : timed) setup_s.push_back(r.setup.total_s);
    while (setup_s.size() < kSetupSamples) {
      SetupTimes t;
      build_instance(w, scenario_seed(seed, setup_s.size() % panel), false,
                     t);
      setup_s.push_back(t.total_s);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"packets_per_s",
         per_scenario_median(timed, panel,
                             [](const Rep& r) {
                               return static_cast<double>(
                                          r.metrics.delivered) / r.cpu_s;
                             }),
         "1/s"},
        {"hops_per_s",
         per_scenario_median(timed, panel,
                             [](const Rep& r) {
                               return static_cast<double>(
                                          r.metrics.total_hops) / r.cpu_s;
                             }),
         "1/s"},
        {"setup_s", median(std::move(setup_s)), "s"},
        {"peak_rss_bytes_per_node",
         static_cast<double>(usage.ru_maxrss) * 1024.0 / node_count, "B"},
        {"delivery_ratio", m.delivery_ratio(), "ratio"},
        {"avg_latency_cycles", m.avg_latency(), "cycles"},
    };
  } else {
    const auto cycles = static_cast<double>(w.horizon());
    const double lanes = threads;
    auto med = [&timed](auto f) { return median_of(timed, f); };
    auto ns_per_cycle = [&](std::uint64_t SimMetrics::*phase) {
      return med([&](const Rep& r) {
        return static_cast<double>(r.metrics.*phase) / cycles;
      });
    };
    auto per_kpacket = [&](std::uint64_t (*count)(const SimMetrics&)) {
      return med([&](const Rep& r) {
        return 1000.0 * static_cast<double>(count(r.metrics)) /
               static_cast<double>(r.metrics.generated);
      });
    };
    auto mean_count = [&timed](std::uint64_t SimMetrics::*count) {
      double sum = 0.0;
      for (const Rep& r : timed) sum += static_cast<double>(r.metrics.*count);
      return sum / static_cast<double>(timed.size());
    };
    std::vector<double> overhead;
    for (std::size_t i = 0; i < timed.size(); ++i) {
      overhead.push_back(timed[i].run_s / twins[i].run_s - 1.0);
    }
    metrics = {
        {"topology.build_s",
         med([](const Rep& r) { return r.setup.topology_s; }), "s"},
        {"fault.precondition_s",
         med([](const Rep& r) { return r.setup.precondition_s; }), "s"},
        {"fault.overlay_rebuild_us", overlay_us, "us"},
        {"routing.router_build_s",
         med([](const Rep& r) { return r.setup.router_s; }), "s"},
        {"routing.plan_us_p50", percentile(routing.plan_us, 0.50), "us"},
        {"routing.plan_us_p99", percentile(routing.plan_us, 0.99), "us"},
        {"routing.next_hop_us_cold", median(routing.next_hop_cold_us), "us"},
        {"routing.next_hop_us_warm", median(routing.next_hop_warm_us), "us"},
        {"routing.fabric_ns_per_lookup", fabric_ns, "ns"},
        {"routing.plan_cache_hit_ratio",
         med([](const Rep& r) { return r.metrics.plan_cache.hit_rate(); }),
         "ratio"},
        {"routing.hop_cache_hit_ratio",
         med([](const Rep& r) { return r.metrics.hop_cache.hit_rate(); }),
         "ratio"},
        {"routing.plan_lookups_per_kpacket",
         per_kpacket(
             [](const SimMetrics& s) { return s.plan_cache.lookups(); }),
         "1/kpacket"},
        {"routing.plan_time_share",
         med([&](const Rep& r) {
           return static_cast<double>(r.router_ns) * 1e-9 / (lanes * r.run_s);
         }),
         "ratio"},
        {"sim.construct_s",
         med([](const Rep& r) { return r.setup.construct_s; }), "s"},
        {"sim.drain_ns_per_cycle", ns_per_cycle(&SimMetrics::phase_drain_ns),
         "ns/cycle"},
        {"sim.inject_ns_per_cycle", ns_per_cycle(&SimMetrics::phase_inject_ns),
         "ns/cycle"},
        {"sim.commit_ns_per_cycle", ns_per_cycle(&SimMetrics::phase_commit_ns),
         "ns/cycle"},
        // Hops are counted over the measurement window only, so the advance
        // time per cycle is divided by the measured hops per cycle.
        {"sim.advance_ns_per_hop",
         ns_per_cycle(&SimMetrics::phase_advance_ns) /
             med([&](const Rep& r) {
               return static_cast<double>(r.metrics.service_ops) /
                      static_cast<double>(w.measure);
             }),
         "ns/hop"},
        {"sim.outside_phase_share",
         med([&](const Rep& r) {
           const SimMetrics& s = r.metrics;
           const auto phase_ns = static_cast<double>(
               s.phase_drain_ns + s.phase_inject_ns + s.phase_advance_ns +
               s.phase_commit_ns);
           return 1.0 - phase_ns * 1e-9 / (lanes * r.run_s);
         }),
         "ratio"},
        {"sim.reroutes_per_kpacket",
         per_kpacket([](const SimMetrics& s) { return s.reroutes; }),
         "1/kpacket"},
        // Counts per repetition, averaged: a single scenario can park none.
        {"sim.parked_retries", mean_count(&SimMetrics::parked_retries),
         "count"},
        {"sim.retransmits", mean_count(&SimMetrics::retransmits), "count"},
        {"sim.peak_in_flight", mean_count(&SimMetrics::peak_in_flight),
         "count"},
        {"sim.tracing_overhead", median(std::move(overhead)), "ratio"},
        // Wall-clock throughput of the untraced twins: packets_per_s with
        // barrier waits and hypervisor steal left in.
        {"sim.packets_per_wall_s",
         median_of(twins,
                   [](const Rep& r) {
                     return static_cast<double>(r.metrics.delivered) / r.run_s;
                   }),
         "1/s"},
    };
  }

  const bool correct = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::printf(
      "provenance: {\"workload\": \"%s\", \"tiny\": %s, \"seed\": %llu, "
      "\"topology\": \"%s\", \"nodes\": %llu, \"cycles\": [%llu, %llu], "
      "\"threads_requested\": %u, \"threads_effective\": %u, \"nproc\": %u, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"git_commit\": \"%s\", "
      "\"repetitions\": %zu, \"plans_sampled\": %zu, "
      "\"plans_undelivered\": %zu}\n",
      w.name, args.tiny ? "true" : "false",
      static_cast<unsigned long long>(seed), json_escape(gc.name()).c_str(),
      static_cast<unsigned long long>(gc.node_count()),
      static_cast<unsigned long long>(w.warmup),
      static_cast<unsigned long long>(w.measure), w.threads, threads, nproc,
      to_string(simd_level()), PERFBENCH_BUILD_TYPE,
      json_escape(args.commit).c_str(), timed.size(),
      routing.plan_us.size(), routing.undelivered);
  std::printf("metrics_digest: %016llx\n",
              static_cast<unsigned long long>(metrics_digest(m)));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
