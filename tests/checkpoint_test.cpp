// Checkpoint/restore contract tests.
//
// The golden contract (ISSUE 10): for any interruption cycle k, any thread
// count, any SIMD level, both steered/planned modes — with static faults,
// scheduled faults, and transient-recovery retries live — resuming from
// the checkpoint produces final metrics that deterministic_equals the
// uninterrupted run; and a corrupted or truncated checkpoint is refused
// with an error NAMING the failing section, falling back to the previous
// good generation. The in-process matrix here uses the deterministic
// halt_at_cycle knob (the same serial-point path a SIGINT takes); the CI
// crash-replay job adds the true _exit(137) mid-run legs via sim_cli.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_set.hpp"
#include "routing/ftgcr.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "topology/gaussian_cube.hpp"

#include "golden_cells.hpp"

namespace gcube {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "gcube_" + name + ".ckpt";
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove(checkpoint_previous_generation(path).c_str());
  std::remove((path + ".tmp").c_str());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.03;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 700;
  cfg.seed = 1234;
  cfg.allow_oversubscribe = true;  // real concurrency on small machines
  return cfg;
}

/// Isolation flaps around a handful of victims — the transient-recovery
/// regime (packets genuinely strand and park while links heal).
FaultSchedule recovery_schedule(const GaussianCube& gc) {
  FaultSchedule s;
  Cycle t = 80;
  for (const NodeId v : {9u, 40u, 101u, 164u}) {
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(v, c)) s.fail_link_at(t, v, c);
    }
    for (Dim c = 0; c < gc.dims(); ++c) {
      if (gc.has_link(v, c)) s.repair_link_at(t + 150, v, c);
    }
    t += 90;
  }
  return s;
}

/// Plain fault/repair churn (no retries in this scenario's config).
FaultSchedule churn_schedule() {
  FaultSchedule s;
  s.fail_node_at(60, 11);
  s.fail_link_at(120, 77, 1);
  s.repair_node_at(300, 11);
  s.fail_node_at(350, 130);
  s.repair_link_at(420, 77, 1);
  s.fail_link_at(500, 8, 2);
  return s;
}

enum class Scenario { kStatic, kScheduled, kRetryRecovery };

SimConfig scenario_config(Scenario sc) {
  SimConfig cfg = base_config();
  if (sc == Scenario::kRetryRecovery) {
    cfg.retry_limit = 6;
    cfg.retry_backoff_base = 2;
    cfg.park_capacity = 32;
    cfg.retry_budget = 3;
    cfg.retransmit_timeout = 48;
  }
  return cfg;
}

/// One simulation run of the given scenario. `halt` != 0 interrupts at
/// that cycle (writing a final checkpoint to `path`); a non-empty
/// `resume` continues from a checkpoint instead of starting at cycle 0.
SimMetrics run_scenario(Scenario sc, bool fabric, std::uint32_t threads,
                        const std::string& path = "", Cycle halt = 0,
                        const std::string& resume = "") {
  const GaussianCube gc(8, 2);
  SimConfig cfg = scenario_config(sc);
  cfg.fabric = fabric;
  cfg.threads = threads;
  cfg.checkpoint_path = path;
  cfg.halt_at_cycle = halt;
  cfg.resume_from = resume;
  if (sc == Scenario::kStatic) {
    FaultSet faults;
    for (const NodeId v : {3u, 50u, 100u}) faults.fail_node(v);
    const FtgcrRouter router(gc, faults);
    NetworkSim sim(gc, router, faults, cfg);
    return sim.run();
  }
  const FaultSchedule schedule = sc == Scenario::kScheduled
                                     ? churn_schedule()
                                     : recovery_schedule(gc);
  FaultSet live;
  const FtgcrRouter router(gc, live);
  NetworkSim sim(gc, router, live, cfg, schedule);
  return sim.run();
}

// ---------------------------------------------------------------------------
// The resume-determinism matrix: interruption cycles (early/mid/late) x
// thread counts {1,2,4} on BOTH sides of the interruption x steered and
// planned modes x all three fault scenarios. The halted run and the
// resumed run deliberately use different thread counts — execution shape
// is not part of the state.
// ---------------------------------------------------------------------------

TEST(Checkpoint, ResumeMatrixIsBitIdenticalToUninterruptedRun) {
  struct Leg {
    Cycle halt;
    std::uint32_t halt_threads;
    std::uint32_t resume_threads;
  };
  const Leg legs[] = {{150, 1, 4}, {400, 2, 1}, {650, 4, 2}};
  for (const Scenario sc :
       {Scenario::kStatic, Scenario::kScheduled, Scenario::kRetryRecovery}) {
    for (const bool fabric : {true, false}) {
      const SimMetrics uninterrupted = run_scenario(sc, fabric, 1);
      EXPECT_EQ(uninterrupted.interrupted_at, 0u);
      for (const Leg& leg : legs) {
        const std::string path = tmp_path("matrix");
        remove_generations(path);
        const SimMetrics partial = run_scenario(sc, fabric, leg.halt_threads,
                                                path, leg.halt);
        ASSERT_EQ(partial.interrupted_at, leg.halt);
        const SimMetrics resumed = run_scenario(
            sc, fabric, leg.resume_threads, "", 0, path);
        EXPECT_EQ(resumed.interrupted_at, 0u);
        EXPECT_TRUE(resumed.deterministic_equals(uninterrupted))
            << "scenario=" << static_cast<int>(sc)
            << " fabric=" << fabric << " halt=" << leg.halt << " threads "
            << leg.halt_threads << "->" << leg.resume_threads;
        remove_generations(path);
      }
    }
  }
}

// The link-conflict golden cell (rate 0.3, four services per node) halted
// while its queues are deep and heads wait on links a packet ahead of them
// already took: the checkpoint must carry every queue in order, and the
// resumed run, under another worker count, must hash to the cell's golden
// digest.
TEST(Checkpoint, GoldenLinkConflictResumesFromDeepQueues) {
  constexpr std::uint64_t kLinkConflictDigest = 0x761d91ce8d86cdb3ULL;
  struct Leg {
    Cycle halt;
    std::uint32_t halt_threads;
    std::uint32_t resume_threads;
  };
  const Leg legs[] = {{37, 1, 4}, {37, 4, 3}, {80, 1, 4}, {80, 4, 3}};
  for (const bool fabric : {true, false}) {
    for (const Leg& leg : legs) {
      const std::string at = std::string(fabric ? "steered" : "planned") +
                             " halt=" + std::to_string(leg.halt) +
                             " threads " + std::to_string(leg.halt_threads) +
                             "->" + std::to_string(leg.resume_threads);
      const std::string path = tmp_path("golden_link_conflict");
      remove_generations(path);
      GcSimSpec spec = golden_spec(GoldenCell::kLinkConflict, fabric);
      spec.sim.threads = leg.halt_threads;
      spec.sim.checkpoint_path = path;
      spec.sim.halt_at_cycle = leg.halt;
      ASSERT_EQ(run_gc_simulation(spec).metrics.interrupted_at, leg.halt)
          << at;
      // Non-vacuity: some queue holds more packets than one service can
      // move, so the resumed run starts with blocked heads.
      std::size_t deepest = 0;
      for (const auto& queue : load_checkpoint(path).queues) {
        deepest = std::max(deepest, queue.size());
      }
      EXPECT_GT(deepest, std::size_t{spec.sim.service_rate}) << at;
      spec.sim.threads = leg.resume_threads;
      spec.sim.checkpoint_path.clear();
      spec.sim.halt_at_cycle = 0;
      spec.sim.resume_from = path;
      const SimMetrics resumed = run_gc_simulation(spec).metrics;
      EXPECT_EQ(resumed.interrupted_at, 0u) << at;
      EXPECT_EQ(metrics_digest(resumed), kLinkConflictDigest)
          << at << ": digest 0x" << std::hex << metrics_digest(resumed);
      remove_generations(path);
    }
  }
}

TEST(Checkpoint, PeriodicCheckpointRotationKeepsPreviousGeneration) {
  const std::string path = tmp_path("rotation");
  remove_generations(path);
  const SimMetrics uninterrupted =
      run_scenario(Scenario::kScheduled, true, 2);
  SimConfig cfg;  // run again with periodic checkpoints, halting at 550
  (void)cfg;
  const SimMetrics partial =
      [&] {
        const GaussianCube gc(8, 2);
        SimConfig c = scenario_config(Scenario::kScheduled);
        c.fabric = true;
        c.threads = 2;
        c.checkpoint_every = 200;
        c.checkpoint_path = path;
        c.halt_at_cycle = 550;
        FaultSet live;
        const FtgcrRouter router(gc, live);
        NetworkSim sim(gc, router, live, c, churn_schedule());
        return sim.run();
      }();
  ASSERT_EQ(partial.interrupted_at, 550u);
  // Generations: newest = the halt checkpoint (cycle 550), previous = the
  // last periodic one (cycle 400).
  const SimCheckpoint newest = load_checkpoint(path);
  const SimCheckpoint previous =
      load_checkpoint(checkpoint_previous_generation(path));
  EXPECT_EQ(newest.resume_cycle, 550u);
  EXPECT_EQ(previous.resume_cycle, 400u);

  // Corrupt the newest generation: the fallback loader must name the
  // failing section, load the previous generation, and the resume must
  // STILL converge to the uninterrupted metrics.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(path, bytes);
  std::string used;
  const SimCheckpoint fallback = load_checkpoint_with_fallback(path, &used);
  EXPECT_EQ(used, checkpoint_previous_generation(path));
  EXPECT_EQ(fallback.resume_cycle, 400u);
  const SimMetrics resumed =
      run_scenario(Scenario::kScheduled, true, 1, "", 0, path);
  EXPECT_TRUE(resumed.deterministic_equals(uninterrupted));
  remove_generations(path);
}

TEST(Checkpoint, BothGenerationsCorruptThrowsThePrimaryError) {
  const std::string path = tmp_path("bothbad");
  remove_generations(path);
  write_file(path, {'G', 'C', 'U', 'B', 'E', 'C', 'K', 'X'});  // bad magic
  try {
    (void)load_checkpoint_with_fallback(path);
    FAIL() << "corrupt checkpoint with no fallback generation must throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.section(), "header");
  }
  remove_generations(path);
}

TEST(Checkpoint, ConfigMismatchIsRefusedNamingTheField) {
  const std::string path = tmp_path("mismatch");
  remove_generations(path);
  (void)run_scenario(Scenario::kScheduled, true, 1, path, 300);
  const GaussianCube gc(8, 2);
  const auto expect_refused = [&](SimConfig cfg, const char* field) {
    cfg.fabric = true;
    cfg.allow_oversubscribe = true;
    cfg.resume_from = path;
    FaultSet live;
    const FtgcrRouter router(gc, live);
    NetworkSim sim(gc, router, live, cfg, churn_schedule());
    try {
      (void)sim.run();
      FAIL() << "mismatched " << field << " must be refused";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.section(), "config") << field;
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "error must name the mismatched field: " << e.what();
    }
  };
  SimConfig wrong_seed = base_config();
  wrong_seed.seed = 99;
  expect_refused(wrong_seed, "seed");
  SimConfig wrong_rate = base_config();
  wrong_rate.injection_rate = 0.25;
  expect_refused(wrong_rate, "injection_rate");
  SimConfig wrong_retry = base_config();
  wrong_retry.retry_limit = 6;
  expect_refused(wrong_retry, "retry_limit");

  // A different fault schedule is a different experiment.
  {
    SimConfig cfg = base_config();
    cfg.fabric = true;
    cfg.resume_from = path;
    FaultSet live;
    const FtgcrRouter router(gc, live);
    NetworkSim sim(gc, router, live, cfg, recovery_schedule(gc));
    try {
      (void)sim.run();
      FAIL() << "mismatched schedule must be refused";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.section(), "config");
      EXPECT_NE(std::string(e.what()).find("schedule"), std::string::npos);
    }
  }
  remove_generations(path);
}

TEST(Checkpoint, PresetStopRequestHaltsAtTheFirstSerialPoint) {
  const GaussianCube gc(8, 2);
  SimConfig cfg = base_config();
  std::atomic<bool> stop{true};  // as if SIGINT landed before the run
  cfg.stop_requested = &stop;
  FaultSet faults;
  const FtgcrRouter router(gc, faults);
  NetworkSim sim(gc, router, faults, cfg);
  const SimMetrics m = sim.run();
  EXPECT_EQ(m.interrupted_at, 1u)
      << "the stop flag is honored at the serial point entering cycle 1";
}

// ---------------------------------------------------------------------------
// Corruption fuzzing: flip EVERY byte of a small checkpoint in turn; the
// loader must refuse each mutant with a section-naming error (header
// flips fail the magic/version check) and never crash or load silently.
// Runs under ASan in the CI sanitize job like every other test.
// ---------------------------------------------------------------------------

TEST(Checkpoint, EveryByteFlipIsRefusedWithASectionName) {
  const std::string path = tmp_path("fuzz");
  const std::string mutant = tmp_path("fuzz_mutant");
  remove_generations(path);
  remove_generations(mutant);
  // Small but populated checkpoint: retries on so parked entries and
  // recovery counters are present in the file.
  (void)run_scenario(Scenario::kRetryRecovery, true, 1, path, 260);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 100u);
  const std::vector<std::string> sections = {
      "header", "trailer", "provenance", "config", "globals",
      "faults", "packets", "parked",     "fires",  "metrics"};
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x20;
    write_file(mutant, bad);
    try {
      (void)load_checkpoint(mutant);
      FAIL() << "byte " << i << " flip loaded silently";
    } catch (const CheckpointError& e) {
      const bool known = std::find(sections.begin(), sections.end(),
                                   e.section()) != sections.end();
      EXPECT_TRUE(known) << "byte " << i << " flip produced an error for "
                         << "unknown section '" << e.section() << "'";
    }
    // Any other exception type (or a crash) fails the test run itself.
  }
  // Truncations at every length must be refused too (a torn write that
  // escaped the atomic rename protocol, e.g. a copied partial file).
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, good.size() / 3,
        good.size() / 2, good.size() - 1}) {
    std::vector<std::uint8_t> bad(good.begin(),
                                  good.begin() + static_cast<long>(len));
    write_file(mutant, bad);
    EXPECT_THROW((void)load_checkpoint(mutant), CheckpointError)
        << "truncation to " << len;
  }
  // Trailing garbage is refused as well — a valid prefix is not a file.
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  write_file(mutant, padded);
  EXPECT_THROW((void)load_checkpoint(mutant), CheckpointError);
  remove_generations(path);
  remove_generations(mutant);
}

// ---------------------------------------------------------------------------
// Semantic validation: a file whose CRCs are all good but whose content the
// simulator cannot have written (a crafted or hand-edited checkpoint) must
// be refused at resume, naming the section. Each case loads a real
// checkpoint, mutates one field, saves it afresh and resumes from it.
// ---------------------------------------------------------------------------

void expect_resume_refused(const std::string& good,
                           const std::function<void(SimCheckpoint&)>& mutate,
                           const std::string& section,
                           const std::string& detail) {
  const std::string mutant = tmp_path("semantic_mutant");
  remove_generations(mutant);
  SimCheckpoint ck = load_checkpoint(good);
  mutate(ck);
  save_checkpoint(ck, mutant);
  try {
    (void)run_scenario(Scenario::kScheduled, true, 2, "", 0, mutant);
    FAIL() << "resume accepted a checkpoint with " << detail;
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.section(), section) << e.what();
    EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
        << e.what();
  }
  remove_generations(mutant);
}

/// The first queued packet whose audit-sample membership is `audited`.
CheckpointPacket& first_packet(SimCheckpoint& ck, bool audited) {
  for (auto& queue : ck.queues) {
    for (CheckpointPacket& p : queue) {
      if (((p.flags & kPktAudited) != 0) == audited) return p;
    }
  }
  throw std::logic_error("no such packet in the checkpoint");
}

TEST(Checkpoint, ForgedPacketIdOrAuditFlagIsRefused) {
  const std::string path = tmp_path("semantic_packets");
  remove_generations(path);
  (void)run_scenario(Scenario::kScheduled, true, 1, path, 300);
  {
    // The unmodified file resumes: the cases below fail for their edit.
    const SimCheckpoint ck = load_checkpoint(path);
    std::size_t audited = 0;
    for (const auto& queue : ck.queues) {
      for (const CheckpointPacket& p : queue) {
        EXPECT_EQ(p.id, p.created * ck.config.node_count + p.src);
        audited += (p.flags & kPktAudited) != 0 ? 1 : 0;
      }
    }
    ASSERT_GT(audited, 0u);
    (void)run_scenario(Scenario::kScheduled, true, 2, "", 0, path);
  }
  expect_resume_refused(
      path, [](SimCheckpoint& ck) { ++first_packet(ck, false).id; },
      "packets", "packet id");
  expect_resume_refused(
      path,
      [](SimCheckpoint& ck) { first_packet(ck, false).flags |= kPktAudited; },
      "packets", "audit flag");
  expect_resume_refused(
      path,
      [](SimCheckpoint& ck) {
        CheckpointPacket& p = first_packet(ck, true);
        p.flags &= ~kPktAudited;
        p.tail_hops.clear();
      },
      "packets", "audit flag");
  remove_generations(path);
}

TEST(Checkpoint, FireAtOrPastTheRunEndIsRefused) {
  const std::string path = tmp_path("semantic_fires");
  remove_generations(path);
  (void)run_scenario(Scenario::kScheduled, true, 1, path, 300);
  const Cycle run_end =
      base_config().warmup_cycles + base_config().measure_cycles;
  // run_end itself, and a cycle past 2^38 whose far-heap key
  // (cycle << 26) | node would wrap to a cycle inside the run.
  for (const Cycle at : {run_end, (Cycle{1} << 38) + 400}) {
    expect_resume_refused(
        path,
        [at](SimCheckpoint& ck) {
          ASSERT_FALSE(ck.fires.empty());
          ck.fires.front().at = at;
        },
        "fires", "after the run ends");
  }
  remove_generations(path);
}

TEST(Checkpoint, FormatVersion1IsRefusedInTheHeader) {
  // Version 1 carried a per-(node, dim) link stamp section that version 2
  // dropped; an old file must be refused up front, naming its version,
  // rather than misparsed section by section.
  const std::string path = tmp_path("version");
  const std::string old = tmp_path("version_v1");
  remove_generations(path);
  remove_generations(old);
  (void)run_scenario(Scenario::kStatic, true, 1, path, 200);
  std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 12u);
  // The u32 version word follows the 8-byte magic, little-endian.
  ASSERT_EQ(std::uint32_t{bytes[8]}, kCheckpointFormatVersion);
  bytes[8] = 1;
  write_file(old, bytes);
  try {
    (void)load_checkpoint(old);
    FAIL() << "a version 1 checkpoint loaded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
  remove_generations(path);
  remove_generations(old);
}

TEST(Checkpoint, Crc32MatchesTheIeeeReferenceVector) {
  const char* s = "123456789";
  EXPECT_EQ(checkpoint_crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(checkpoint_crc32(s, 0), 0u);
  // Streaming in two chunks equals one shot.
  const std::uint32_t part = checkpoint_crc32(s, 4);
  EXPECT_EQ(checkpoint_crc32(s + 4, 5, part), 0xCBF43926u);
}

TEST(Checkpoint, FaultEventFingerprintIsOrderAndContentSensitive) {
  FaultSchedule a;
  a.fail_node_at(10, 3);
  a.fail_link_at(10, 7, 1);
  FaultSchedule b;  // same events, same cycle, opposite order
  b.fail_link_at(10, 7, 1);
  b.fail_node_at(10, 3);
  FaultSchedule c;
  c.fail_node_at(10, 3);
  c.fail_link_at(10, 7, 2);  // different dim
  const std::uint64_t fa = fault_events_fingerprint(a.events());
  EXPECT_NE(fa, fault_events_fingerprint(b.events()));
  EXPECT_NE(fa, fault_events_fingerprint(c.events()));
  EXPECT_EQ(fa, fault_events_fingerprint(a.events()));
  EXPECT_NE(fa, fault_events_fingerprint({}));
}

TEST(Checkpoint, ProvenanceAndConfigSurviveTheRoundTrip) {
  const std::string path = tmp_path("provenance");
  remove_generations(path);
  (void)run_scenario(Scenario::kScheduled, true, 2, path, 300);
  const SimCheckpoint ck = load_checkpoint(path);
  EXPECT_EQ(ck.provenance.seed, 1234u);
  EXPECT_EQ(ck.provenance.threads, 2u);
  EXPECT_FALSE(ck.provenance.topology.empty());
  EXPECT_FALSE(ck.provenance.router.empty());
  EXPECT_FALSE(ck.provenance.simd.empty());
  EXPECT_FALSE(ck.provenance.build_type.empty());
  EXPECT_EQ(ck.config.seed, 1234u);
  EXPECT_EQ(ck.config.node_count, 256u);
  EXPECT_EQ(ck.resume_cycle, 300u);
  EXPECT_EQ(ck.config.schedule_events, churn_schedule().events().size());
  // The in-flight invariant the loader enforces.
  std::uint64_t queued = 0;
  for (const auto& q : ck.queues) queued += q.size();
  EXPECT_EQ(queued + ck.parked.size(), ck.in_flight);
  remove_generations(path);
}

TEST(CheckpointDeathTest, CrashInjectionExitsWith137) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = tmp_path("crash");
  remove_generations(path);
  EXPECT_EXIT(
      {
        const GaussianCube gc(8, 2);
        SimConfig cfg = base_config();
        cfg.threads = 1;
        cfg.checkpoint_every = 100;
        cfg.checkpoint_path = path;
        cfg.crash_at_cycle = 250;
        FaultSet faults;
        const FtgcrRouter router(gc, faults);
        NetworkSim sim(gc, router, faults, cfg);
        (void)sim.run();
      },
      testing::ExitedWithCode(137), "");
  // The crash landed AFTER the cycle-200 checkpoint was made durable.
  const SimCheckpoint ck = load_checkpoint(path);
  EXPECT_EQ(ck.resume_cycle, 200u);
  remove_generations(path);
}

}  // namespace
}  // namespace gcube
