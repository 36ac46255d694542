// One harness for the overhead gates: what each optional subsystem costs a
// busy §VI.A random-access run when it is off, and when it is on.
//
// A gate is a row: its arms (a label plus DeviceConfig / DriverConfig
// deltas), an optional drive-loop override, its work checks, its scores
// with their thresholds, and its record file.  The harness owns the one
// copy of everything else: warmup, the interleaved rounds, the off-vs-off
// gap and the overhead formula, the JSON writer and the argv parsing.
// bench_overhead.cpp is main(); tests/bench/test_overhead_gates.cpp runs
// every arm of every row once at small scale and checks the work checks
// only.
//
// Scoring.  An off-vs-off gate compares two independently built
// simulators of one configuration: a systematic cost of the disabled
// subsystem shows in both, so the gap between them is the noise floor the
// gate bounds.  Each round times every arm once, in an order rotated by
// one per round, each burst on a simulator built for it and dropped right
// after.  A score is the median over rounds of a ratio between two bursts
// of the same round: on a shared 4-CPU host one arm's bursts spread by
// 40-80% across a run, far more than within a round.  Scored as best-of
// over rounds, as the per-gate benches did, the same bursts put two off
// arms up to 5.6% apart (ROADMAP item 5).  Each arm's recorded rate comes
// from the same per-round ratios: the baseline's median round rate (the
// off arms' mean burst, or every arm's when a gate has no off arm),
// divided by the median over rounds of the arm's burst over the baseline's
// in that round.  So two off arms' rates differ exactly as their scored gap
// says (for an odd round count), and an on arm's rate sits below the
// baseline's by its scored overhead.  An arm's recorded seconds stay its
// measured median burst.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "backend/timing_backend.hpp"
#include "core/device.hpp"
#include "core/simulator.hpp"
#include "trace/lifecycle.hpp"
#include "trace/sink.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace hmcsim::bench {

using Fields = std::vector<std::pair<std::string, double>>;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double lookup(const Fields& fields, const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return 0.0;
}

struct ArmRun;

/// One configuration under test.
struct Arm {
  const char* label;
  void (*device)(DeviceConfig&) = nullptr;
  void (*driver)(DriverConfig&) = nullptr;
  /// Attach a CountingSink at TraceLevel::Off / a LifecycleSink after the
  /// warmup burst.
  bool trace_sink = false;
  bool lifecycle_sink = false;
  /// A baseline arm: overheads are scored against the mean of these, and
  /// the off-vs-off gap between the two of them.
  bool off = false;
  /// Replaces the plain `while (driver.step(r)) {}` drive loop.
  void (*drive)(ArmRun&, HostDriver&, DriverResult&) = nullptr;
  /// Work check on the arm's summed counters: nullptr when satisfied,
  /// else what did not happen.
  const char* (*check)(const ArmRun&) = nullptr;
};

/// A recorded number; `limit` makes it a gate that passes below it.
struct Score {
  enum class Kind { OffGap, Overhead, Value };
  static constexpr double kReported = std::numeric_limits<double>::infinity();
  const char* key;
  Kind kind;
  usize arm = 0;  ///< Overhead: the arm scored against the off baseline
  double limit = kReported;
};

struct GateRun;

struct Gate {
  const char* name;
  const char* record;  ///< BENCH_*.json file name, nullptr = none
  u64 requests;        ///< per timed burst
  u64 rounds;
  std::vector<Arm> arms;
  std::vector<Score> scores;
  /// The arm's work counters, read off one simulator before it is dropped.
  Fields (*counters)(ArmRun&) = nullptr;
  /// Gate-specific measurement after the rounds: adds to the run's values,
  /// returns a work failure or "".
  std::string (*finish)(GateRun&) = nullptr;
};

struct ArmRun {
  const Arm* arm;
  DeviceConfig device;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<RandomAccessGenerator> gen;
  std::shared_ptr<CountingSink> trace;
  std::shared_ptr<LifecycleSink> lifecycle;
  u64 generations{0};  ///< checkpoint generations the current sim wrote
  u64 completed{0};    ///< timed bursts only
  u64 errors{0};
  std::vector<double> bursts;  ///< seconds of the timed burst, per round
  Fields counters;  ///< summed over every simulator this arm built

  [[nodiscard]] double seconds() const { return median(bursts); }

  [[nodiscard]] double counter(const std::string& key) const {
    return lookup(counters, key);
  }
};

struct GateRun {
  const Gate* gate;
  u64 requests;
  u64 rounds;
  std::vector<ArmRun> arms;
  Fields values;  ///< finish() measurements, then the scores
  std::vector<std::string> failures;  ///< work checks
  std::vector<std::string> breaches;  ///< thresholds

  /// The baseline's burst in round `r`: the off arms' mean, or every
  /// arm's when the gate has no off arm.
  [[nodiscard]] double baseline_seconds(u64 r) const {
    const bool any_off = std::any_of(
        arms.begin(), arms.end(), [](const ArmRun& a) { return a.arm->off; });
    double sum = 0.0;
    usize n = 0;
    for (const ArmRun& a : arms) {
      if (any_off && !a.arm->off) continue;
      sum += a.bursts[r];
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  /// Median over rounds of `ratio(r)`.
  template <typename Ratio>
  [[nodiscard]] double per_round(Ratio ratio) const {
    std::vector<double> v;
    for (u64 r = 0; r < rounds; ++r) v.push_back(ratio(r));
    return median(std::move(v));
  }

  /// The arm's rate, normalized per round like the scores (see the top).
  [[nodiscard]] double rps(usize arm) const {
    const double base = per_round([&](u64 r) { return baseline_seconds(r); });
    const double rel = per_round([&](u64 r) {
      const double b = baseline_seconds(r);
      return b > 0.0 ? arms[arm].bursts[r] / b : 0.0;
    });
    const double per_burst = static_cast<double>(arms[arm].completed) /
                             static_cast<double>(rounds);
    return base > 0.0 && rel > 0.0 ? per_burst / (base * rel) : 0.0;
  }
  [[nodiscard]] double value(const std::string& key) const {
    return lookup(values, key);
  }
};

/// Percentage gap of the slower rate below the faster one.
inline double pct_gap(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0.0 ? 100.0 * (hi - std::min(a, b)) / hi : 0.0;
}

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// One burst of `requests` through the arm's simulator; returns seconds.
inline double burst(ArmRun& a, u64 requests, DriverResult& r) {
  DriverConfig dcfg;
  dcfg.total_requests = requests;
  if (a.arm->driver != nullptr) a.arm->driver(dcfg);
  HostDriver driver(*a.sim, *a.gen, dcfg);
  const auto start = SteadyClock::now();
  if (a.arm->drive != nullptr) {
    a.arm->drive(a, driver, r);
  } else {
    while (driver.step(r)) {}
  }
  driver.finish(r);
  return seconds_since(start);
}

/// A fresh simulator and generator for the arm, warmed by one untimed
/// burst that faults in the storage arenas.
inline void build(ArmRun& a, u64 requests) {
  a.sim = std::make_unique<Simulator>();
  std::string diag;
  if (!ok(a.sim->init_simple(a.device, &diag))) {
    std::fprintf(stderr, "%s: simulator init failed: %s\n", a.arm->label,
                 diag.c_str());
    std::exit(1);
  }
  GeneratorConfig gc;
  gc.capacity_bytes = a.device.derived_capacity();
  gc.request_bytes = 64;
  a.gen = std::make_unique<RandomAccessGenerator>(gc);
  a.generations = 0;
  DriverResult warmup;
  (void)burst(a, std::min<u64>(requests, 8192), warmup);
  if (a.arm->trace_sink) {
    a.trace = std::make_shared<CountingSink>();
    a.sim->tracer().add_sink(a.trace);
    a.sim->tracer().set_level(TraceLevel::Off);
  }
  if (a.arm->lifecycle_sink) {
    a.lifecycle = std::make_shared<LifecycleSink>();
    a.sim->add_lifecycle_observer(a.lifecycle);
  }
}

/// Add the simulator's counters to the arm's sums.
inline void collect(const Gate& g, ArmRun& a) {
  if (g.counters == nullptr) return;
  for (const auto& [key, v] : g.counters(a)) {
    auto it = std::find_if(a.counters.begin(), a.counters.end(),
                           [&](const auto& f) { return f.first == key; });
    if (it == a.counters.end()) {
      a.counters.emplace_back(key, v);
    } else {
      it->second += v;
    }
  }
}

/// Run one gate: the interleaved rounds, the work checks, the gate's own
/// measurement, then the scores.
inline GateRun run_gate(const Gate& g, u64 requests, u64 rounds) {
  GateRun run{&g, requests, rounds, {}, {}, {}, {}};
  const DeviceConfig base = [] {
    DeviceConfig dc = table1_config_4link_8bank();
    dc.capacity_bytes = 0;
    dc.model_data = false;
    return dc;
  }();
  for (const Arm& arm : g.arms) {
    ArmRun a{&arm, base, {}, {}, {}, {}, 0, 0, 0, {}, {}};
    if (arm.device != nullptr) arm.device(a.device);
    run.arms.push_back(std::move(a));
  }
  const usize n = run.arms.size();
  for (u64 round = 0; round < rounds; ++round) {
    for (usize k = 0; k < n; ++k) {
      ArmRun& a = run.arms[(round + k) % n];
      build(a, requests);
      DriverResult r;
      a.bursts.push_back(burst(a, requests, r));
      a.completed += r.completed;
      a.errors += r.errors;
      if (round + 1 < rounds) {  // the last round's stay for finish()
        collect(g, a);
        a.sim.reset();
      }
    }
  }
  for (ArmRun& a : run.arms) {
    collect(g, a);
    if (a.completed != requests * rounds) {
      run.failures.push_back(std::string(a.arm->label) + ": " +
                             std::to_string(a.completed) + " of " +
                             std::to_string(requests * rounds) +
                             " requests retired");
    }
    if (a.arm->check != nullptr) {
      if (const char* why = a.arm->check(a)) {
        run.failures.push_back(std::string(a.arm->label) + ": " + why);
      }
    }
  }
  if (g.finish != nullptr) {
    const std::string why = g.finish(run);
    if (!why.empty()) run.failures.push_back(why);
  }

  // Ratios of bursts of one round, medianed across rounds (see the top).
  std::vector<const std::vector<double>*> off;
  for (const ArmRun& a : run.arms) {
    if (a.arm->off) off.push_back(&a.bursts);
  }
  for (const Score& s : g.scores) {
    double v = 0.0;
    switch (s.kind) {
      case Score::Kind::OffGap:  // slower off arm below the faster one
        v = pct_gap(1.0, run.per_round([&](u64 r) {
                      return (*off.at(0))[r] / (*off.at(1))[r];
                    }));
        break;
      case Score::Kind::Overhead:  // arm's time over the off baseline's
        v = 100.0 * (run.per_round([&](u64 r) {
                       return run.arms[s.arm].bursts[r] /
                              run.baseline_seconds(r);
                     }) -
                     1.0);
        break;
      case Score::Kind::Value:  // already among finish()'s values
        v = run.value(s.key);
        break;
    }
    if (s.kind != Score::Kind::Value) run.values.emplace_back(s.key, v);
    if (!(v < s.limit)) {
      run.breaches.push_back(std::string(s.key) + " = " + std::to_string(v) +
                             " (gate: < " + std::to_string(s.limit) + ")");
    }
  }
  return run;
}

inline void print(const GateRun& run) {
  std::printf("== %s: %llu requests x %llu rounds ==\n", run.gate->name,
              static_cast<unsigned long long>(run.requests),
              static_cast<unsigned long long>(run.rounds));
  for (usize i = 0; i < run.arms.size(); ++i) {
    const ArmRun& a = run.arms[i];
    std::printf("%-14s %10llu reqs | %10.0f req/s", a.arm->label,
                static_cast<unsigned long long>(a.completed), run.rps(i));
    for (const auto& [k, v] : a.counters) {
      std::printf(" | %s %.0f", k.c_str(), v);
    }
    std::printf("\n");
  }
  for (const Score& s : run.gate->scores) {
    std::printf("%s: %.3f", s.key, run.value(s.key));
    if (s.limit != Score::kReported) std::printf(" (gate: < %g)", s.limit);
    std::printf("\n");
  }
  std::fflush(stdout);
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "FAIL %s: %s\n", run.gate->name, f.c_str());
  }
  for (const std::string& b : run.breaches) {
    std::fprintf(stderr, "FAIL %s: %s\n", run.gate->name, b.c_str());
  }
}

inline void write_record(std::ostream& os, const GateRun& run) {
  os.precision(15);  // counters are exact integers
  os << "{\n  \"bench\": \"bench_overhead\",\n  \"gate\": \""
     << run.gate->name << "\",\n  \"requests\": " << run.requests
     << ",\n  \"rounds\": " << run.rounds << ",\n  \"modes\": [\n";
  for (usize i = 0; i < run.arms.size(); ++i) {
    const ArmRun& a = run.arms[i];
    os << "   {\"name\": \"" << a.arm->label
       << "\", \"completed\": " << a.completed
       << ", \"errors\": " << a.errors;
    for (const auto& [k, v] : a.counters) os << ", \"" << k << "\": " << v;
    os << ", \"seconds\": " << a.seconds() * static_cast<double>(run.rounds)
       << ", \"requests_per_sec\": " << run.rps(i) << "}"
       << (i + 1 < run.arms.size() ? "," : "") << "\n";
  }
  os << "  ]";
  for (const auto& [k, v] : run.values) os << ",\n  \"" << k << "\": " << v;
  os << "\n}\n";
}

// ---- the gates --------------------------------------------------------------

/// Link-layer retry protocol (docs/LINK_LAYER.md): every entry point sits
/// behind one `link_protocol` branch, so the off path pays ~0.  clean arms
/// the machine on a clean link (stamping, token debits and returns,
/// retry-buffer accounting); storm adds 20000 ppm uniform corruption
/// (error-abort entries, IRTRY exchanges, replays).
inline void link_protocol_on(DeviceConfig& d) {
  d.link_protocol = true;
  d.link_retry_limit = 8;
  d.link_retry_latency = 4;
}

inline Gate link_retry_gate() {
  return {
      .name = "link_retry",
      .record = "BENCH_linkretry.json",
      .requests = 1 << 15,
      .rounds = 15,
      .arms = {{.label = "off", .off = true},
               {.label = "clean",
                .device = link_protocol_on,
                .check = [](const ArmRun& a) -> const char* {
                  return a.counter("link_tokens_debited") == 0 ||
                                 a.errors != 0
                             ? "token loop never engaged cleanly"
                             : nullptr;
                }},
               {.label = "storm",
                .device =
                    [](DeviceConfig& d) {
                      link_protocol_on(d);
                      d.link_error_rate_ppm = 20'000;
                    },
                .check = [](const ArmRun& a) -> const char* {
                  return a.counter("link_abort_entries") == 0 ||
                                 a.counter("link_retries") == 0
                             ? "abort machine never engaged"
                             : nullptr;
                }},
               {.label = "off_rerun", .off = true}},
      .scores = {{"protocol_off_overhead_pct", Score::Kind::OffGap, 0, 10.0},
                 {"protocol_clean_overhead_pct", Score::Kind::Overhead, 1}},
      .counters = [](ArmRun& a) -> Fields {
        const DeviceStats s = a.sim->total_stats();
        return {{"link_retries", static_cast<double>(s.link_retries)},
                {"link_abort_entries",
                 static_cast<double>(s.link_abort_entries)},
                {"link_tokens_debited",
                 static_cast<double>(s.link_tokens_debited)}};
      },
  };
}

/// Observability layer (docs/OBSERVABILITY.md): every entry point sits
/// behind a null-pointer or interval check, so all-off pays ~0; all_on is
/// the self-profiler, occupancy telemetry every 64 cycles and a depth-256
/// flight recorder.
inline Gate profile_gate() {
  return {
      .name = "profile",
      .record = "BENCH_profile.json",
      .requests = 1 << 15,
      .rounds = 45,
      .arms = {{.label = "off", .off = true},
               {.label = "all_on",
                .device =
                    [](DeviceConfig& d) {
                      d.self_profile = true;
                      d.telemetry_interval_cycles = 64;
                      d.flight_recorder_depth = 256;
                    },
                .check = [](const ArmRun& a) -> const char* {
                  return a.counter("sample_passes") == 0 ||
                                 a.counter("profiled_cycles") == 0
                             ? "instrumentation never engaged"
                             : nullptr;
                }},
               {.label = "off_rerun", .off = true}},
      .scores = {{"observability_off_overhead_pct", Score::Kind::OffGap, 0,
                  2.0},
                 {"observability_on_overhead_pct", Score::Kind::Overhead, 1,
                  10.0}},
      .counters = [](ArmRun& a) -> Fields {
        Simulator& sim = *a.sim;
        sim.flush_observability();
        double samples = 0, cycles = 0, events = 0;
        if (const Telemetry* tel = sim.telemetry()) {
          samples = static_cast<double>(tel->sample_passes());
        }
        if (const StageProfiler* prof = sim.profiler()) {
          cycles = static_cast<double>(prof->staged_cycles() +
                                       prof->fast_cycles());
        }
        if (const FlightRecorder* rec = sim.flight_recorder()) {
          for (u32 d = 0; d < rec->num_devices(); ++d) {
            events += static_cast<double>(rec->recorded(d));
          }
        }
        return {{"sample_passes", samples},
                {"profiled_cycles", cycles},
                {"flight_events", events}};
      },
  };
}

/// Periodic auto-checkpointing (docs/FORMATS.md §5): the off path is one
/// integer compare per drive-loop iteration; ckpt_10k writes a rotated
/// generation every 10000 device cycles, keeping 3, through the
/// tools/hmcsim_run drive loop.
constexpr u64 kCheckpointInterval = 10000;

inline std::filesystem::path checkpoint_dir() {
  return std::filesystem::temp_directory_path() /
         ("hmcsim_ckptbench_" + std::to_string(::getpid()));
}

inline void checkpoint_drive(ArmRun& a, HostDriver& driver, DriverResult& r) {
  const std::string dir = checkpoint_dir().string();
  std::filesystem::create_directories(dir);
  Simulator& sim = *a.sim;
  Cycle next = (sim.now() / kCheckpointInterval + 1) * kCheckpointInterval;
  while (driver.step(r)) {
    if (sim.now() < next) continue;
    CheckpointError err;
    if (!ok(sim.save_checkpoint_file(
            checkpoint_generation_path(dir, a.generations), &err,
            save_host_state(driver, r)))) {
      std::fprintf(stderr, "checkpoint write failed: %s\n",
                   err.message().c_str());
      std::exit(1);
    }
    ++a.generations;
    prune_checkpoint_generations(dir, 3);
    next = (sim.now() / kCheckpointInterval + 1) * kCheckpointInterval;
  }
}

/// One save and one restore of the busy ckpt_10k simulator, timed.
inline std::string checkpoint_finish(GateRun& run) {
  namespace fs = std::filesystem;
  const fs::path dir = checkpoint_dir();
  fs::create_directories(dir);
  const std::string one = (dir / "single.bin").string();
  CheckpointError err;
  std::string failure;
  auto t0 = SteadyClock::now();
  if (!ok(run.arms[1].sim->save_checkpoint_file(one, &err))) {
    failure = "save failed: " + err.message();
  }
  const double save_ms = 1e3 * seconds_since(t0);
  Simulator restored;
  t0 = SteadyClock::now();
  if (failure.empty() && !ok(restored.restore_checkpoint_file(one, &err))) {
    failure = "a saved checkpoint does not restore: " + err.message();
  }
  const double restore_ms = 1e3 * seconds_since(t0);
  std::error_code ec;
  const auto bytes = failure.empty() ? fs::file_size(one, ec) : 0;
  fs::remove_all(dir, ec);
  run.values = {{"interval_cycles", static_cast<double>(kCheckpointInterval)},
                {"save_ms", save_ms},
                {"restore_ms", restore_ms},
                {"checkpoint_bytes", static_cast<double>(bytes)}};
  return failure;
}

inline Gate checkpoint_gate() {
  return {
      .name = "checkpoint",
      .record = "BENCH_checkpoint.json",
      .requests = 1 << 16,
      .rounds = 45,
      .arms = {{.label = "off", .off = true},
               {.label = "ckpt_10k", .drive = checkpoint_drive},
               {.label = "off_rerun", .off = true}},
      .scores = {{"checkpoint_off_overhead_pct", Score::Kind::OffGap, 0, 2.0},
                 {"checkpoint_on_overhead_pct", Score::Kind::Overhead, 1,
                  5.0}},
      .counters = [](ArmRun& a) -> Fields {
        return {{"checkpoints_written", static_cast<double>(a.generations)}};
      },
      .finish = checkpoint_finish,
  };
}

/// Vault timing-backend seam (docs/BACKENDS.md): the pre-refactor vault
/// scan inlined the closed-page bank arithmetic; the shipping code makes
/// one virtual call per gate/issue/refresh decision.  A micro-kernel runs
/// the same rotating bank scan both ways; the per-call premium, amortized
/// over the hmc_dram arm's measured dispatch density (issues + gated
/// conflict scans + refreshes per request), must stay under 2% of its
/// end-to-end run time.  The arms report each backend's throughput.
constexpr u32 kKernelBanks = 8;

/// Keep a value alive without letting the optimizer reason about it.
template <typename T>
inline void keep(T& value) {
  asm volatile("" : "+r"(value) : : "memory");
}

struct KernelState {
  VaultState vault;
  DeviceStats stats;

  KernelState() {
    vault.bank_busy_until.assign(kKernelBanks, 0);
    vault.open_row.assign(kKernelBanks, ~u64{0});
  }
};

/// Inline arm: the closed-page arithmetic exactly as the pre-refactor
/// vault scan inlined it.
inline double kernel_inline_ns(const DeviceConfig& dc, u64 iters) {
  KernelState st;
  u64 ready = 0;
  const auto start = SteadyClock::now();
  for (u64 i = 0; i < iters; ++i) {
    const Cycle now = static_cast<Cycle>(i / kKernelBanks);
    const u32 bank = static_cast<u32>(i % kKernelBanks);
    if (st.vault.bank_busy_until[bank] > now) continue;
    ++ready;
    st.vault.bank_busy_until[bank] = now + dc.bank_busy_cycles;
  }
  const double secs = seconds_since(start);
  keep(ready);
  keep(st.vault.bank_busy_until[0]);
  return 1e9 * secs / static_cast<double>(iters);
}

/// Virtual arm: the same pattern through the factory's opaque pointer,
/// exactly as core/simulator.cpp dispatches it.
inline double kernel_virtual_ns(const DeviceConfig& dc, u64 iters) {
  KernelState st;
  std::unique_ptr<VaultTimingBackend> backend = make_timing_backend(dc, 0);
  VaultTimingBackend* p = backend.get();
  keep(p);  // opaque: no devirtualization
  u64 ready = 0;
  const auto start = SteadyClock::now();
  for (u64 i = 0; i < iters; ++i) {
    const Cycle now = static_cast<Cycle>(i / kKernelBanks);
    const u32 bank = static_cast<u32>(i % kKernelBanks);
    if (p->gate(st.vault, bank, AccessClass::Read, now) != BankGate::Ready) {
      continue;
    }
    ++ready;
    p->issue(st.vault, bank, /*row=*/0, AccessClass::Read, now, st.stats);
  }
  const double secs = seconds_since(start);
  keep(ready);
  keep(st.vault.bank_busy_until[0]);
  return 1e9 * secs / static_cast<double>(iters);
}

/// The dispatch kernel, best of 3 after a warmup pass, scored against the
/// hmc_dram arm (arm 0).
inline std::string backend_finish(GateRun& run) {
  const ArmRun& dram = run.arms[0];
  const u64 iters = run.requests << 10;
  double inline_ns = 0.0;
  double virtual_ns = 0.0;
  for (int rep = -1; rep < 3; ++rep) {
    const double a = kernel_inline_ns(dram.device, iters);
    const double b = kernel_virtual_ns(dram.device, iters);
    if (rep < 0) continue;
    if (rep == 0 || a < inline_ns) inline_ns = a;
    if (rep == 0 || b < virtual_ns) virtual_ns = b;
  }
  const double retired = dram.counter("retired");
  const double dispatches_per_burst =
      retired > 0.0 ? dram.counter("dispatches") / retired *
                          static_cast<double>(run.requests)
                    : 0.0;
  const double delta_ns = virtual_ns - inline_ns;
  run.values = {{"inline_ns_per_call", inline_ns},
                {"virtual_ns_per_call", virtual_ns},
                {"delta_ns_per_call", delta_ns},
                {"hmc_dram_dispatches_per_request",
                 dispatches_per_burst / static_cast<double>(run.requests)},
                {"hmc_dram_dispatch_overhead_pct",
                 dram.seconds() > 0.0
                     ? 100.0 * delta_ns * dispatches_per_burst /
                           (dram.seconds() * 1e9)
                                 : 0.0}};
  return "";
}

inline Gate backend_gate() {
  return {
      .name = "backend",
      .record = "BENCH_backend.json",
      .requests = 1 << 16,
      .rounds = 15,
      .arms = {{.label = "hmc_dram"},
               {.label = "generic_ddr",
                .device =
                    [](DeviceConfig& d) {
                      d.timing_backend = TimingBackend::GenericDdr;
                    }},
               {.label = "pcm_like",
                .device =
                    [](DeviceConfig& d) {
                      d.timing_backend = TimingBackend::PcmLike;
                      d.pcm_write_gap_cycles = 8;  // keep the throttle hot
                    }}},
      .scores = {{"hmc_dram_dispatch_overhead_pct", Score::Kind::Value, 0,
                  2.0}},
      .counters = [](ArmRun& a) -> Fields {
        const DeviceStats s = a.sim->total_stats();
        return {{"retired", static_cast<double>(s.retired())},
                {"dispatches", static_cast<double>(s.retired() +
                                                   s.bank_conflicts +
                                                   s.refreshes)}};
      },
      .finish = backend_finish,
  };
}

/// Chaos subsystem (docs/CHAOS.md): one null-pointer check in the clock
/// path when no plan is armed and chaos_invariants = 0; checker_on runs
/// the full invariant suite every 1024 cycles, the cadence hmcsim_run arms
/// alongside a plan.  The link protocol is on in every arm so that a
/// checker pass walks the token-conservation identities too.
inline Gate chaos_gate() {
  return {
      .name = "chaos",
      .record = "BENCH_chaos.json",
      .requests = 1 << 15,
      .rounds = 45,
      .arms = {{.label = "off",
                .device = [](DeviceConfig& d) {
                  d.link_protocol = true;
                  d.link_retry_limit = 8;
                },
                .off = true},
               {.label = "checker_on",
                .device =
                    [](DeviceConfig& d) {
                      d.link_protocol = true;
                      d.link_retry_limit = 8;
                      d.chaos_invariants = 1024;
                    },
                .check = [](const ArmRun& a) -> const char* {
                  if (a.counter("invariant_checks") == 0) {
                    return "the checker never ran";
                  }
                  return a.counter("invariant_violations") != 0
                             ? "invariant violated mid-bench"
                             : nullptr;
                }},
               {.label = "off_rerun",
                .device = [](DeviceConfig& d) {
                  d.link_protocol = true;
                  d.link_retry_limit = 8;
                },
                .off = true}},
      .scores = {{"chaos_off_overhead_pct", Score::Kind::OffGap, 0, 2.0},
                 {"chaos_checker_overhead_pct", Score::Kind::Overhead, 1,
                  5.0}},
      .counters = [](ArmRun& a) -> Fields {
        const ChaosEngine* chaos = a.sim->chaos();
        return {{"invariant_checks",
                 chaos != nullptr
                     ? static_cast<double>(chaos->invariant_checks())
                     : 0.0},
                {"invariant_violations", a.sim->chaos_violated() ? 1.0 : 0.0}};
      },
  };
}

/// RAS (docs/RAS.md): every entry point sits behind one config-gated
/// branch.  Data is modeled in every arm (ECC decode exists only for
/// modeled data), so the arms differ in the RAS knobs alone; the last arm
/// arms the host driver's timeout/retry bookkeeping with a timeout that
/// never trips.  Report-only.
inline void ras_ecc(DeviceConfig& d) {
  d.model_data = true;
  d.dram_sbe_rate_ppm = 10'000;  // ~1% of accesses plant a latent flip
  d.dram_dbe_rate_ppm = 100;
}

inline void ras_ecc_scrub(DeviceConfig& d) {
  ras_ecc(d);
  d.scrub_interval_cycles = 64;
  d.scrub_window_bytes = 1 << 20;
}

inline Gate ras_gate() {
  const auto modeled = [](DeviceConfig& d) { d.model_data = true; };
  return {
      .name = "ras",
      .record = nullptr,
      .requests = 1 << 14,
      .rounds = 15,
      .arms = {{.label = "off", .device = modeled, .off = true},
               {.label = "ecc", .device = ras_ecc},
               {.label = "ecc+scrub", .device = ras_ecc_scrub},
               {.label = "ecc+scrub+wdog",
                .device =
                    [](DeviceConfig& d) {
                      ras_ecc_scrub(d);
                      d.vault_fail_threshold = 1'000'000;  // never trips
                      d.vault_remap = true;
                      d.watchdog_cycles = 100'000;
                    }},
               {.label = "timeout_armed",
                .device = modeled,
                .driver =
                    [](DriverConfig& c) {
                      c.response_timeout_cycles = 1'000'000;
                      c.retry_limit = 4;
                      c.retry_backoff_cycles = 16;
                    }}},
      .scores = {{"ecc_overhead_pct", Score::Kind::Overhead, 1},
                 {"ecc_scrub_overhead_pct", Score::Kind::Overhead, 2},
                 {"ecc_scrub_wdog_overhead_pct", Score::Kind::Overhead, 3},
                 {"timeout_armed_overhead_pct", Score::Kind::Overhead, 4}},
  };
}

/// Tracer and lifecycle stamping (docs/OBSERVABILITY.md): a disabled trace
/// level costs one branch per would-be event, and lifecycle aggregation is
/// invisible next to the simulation work.  The 50% bound is deliberately
/// generous: the regressions it guards against are 5-50x.
inline Gate trace_gate() {
  return {
      .name = "trace",
      .record = nullptr,
      .requests = 1 << 16,
      .rounds = 15,
      .arms = {{.label = "baseline", .off = true},
               {.label = "gated",
                .trace_sink = true,
                .check = [](const ArmRun& a) -> const char* {
                  return a.counter("trace_records") != 0
                             ? "records leaked past TraceLevel::Off"
                             : nullptr;
                }},
               {.label = "lifecycle",
                .lifecycle_sink = true,
                .check = [](const ArmRun& a) -> const char* {
                  return a.counter("lifecycle_completed") !=
                                 static_cast<double>(a.completed)
                             ? "the lifecycle sink missed packets"
                             : nullptr;
                }}},
      .scores = {{"gated_overhead_pct", Score::Kind::Overhead, 1, 50.0},
                 {"lifecycle_overhead_pct", Score::Kind::Overhead, 2, 50.0}},
      .counters = [](ArmRun& a) -> Fields {
        return {{"trace_records",
                 a.trace ? static_cast<double>(a.trace->total()) : 0.0},
                {"lifecycle_completed",
                 a.lifecycle ? static_cast<double>(a.lifecycle->completed())
                             : 0.0}};
      },
  };
}

inline std::vector<Gate> overhead_gates() {
  return {link_retry_gate(), profile_gate(), checkpoint_gate(),
          backend_gate(),    chaos_gate(),   ras_gate(),
          trace_gate()};
}

/// bench_overhead [GATE...] [--out-dir DIR]: run the named gates (default
/// all), write each gate's record under DIR, exit 1 if any gate failed.
inline int run_main(int argc, char** argv) {
  const std::vector<Gate> gates = overhead_gates();
  std::vector<const Gate*> chosen;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto it = std::find_if(gates.begin(), gates.end(),
                                 [&](const Gate& g) { return arg == g.name; });
    if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (it != gates.end()) {
      chosen.push_back(&*it);
    } else {
      std::fprintf(stderr, "usage: %s [GATE...] [--out-dir DIR]\ngates:",
                   argv[0]);
      for (const Gate& g : gates) std::fprintf(stderr, " %s", g.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (chosen.empty()) {
    for (const Gate& g : gates) chosen.push_back(&g);
  }
  std::string failed;
  for (const Gate* g : chosen) {
    const GateRun run = run_gate(*g, g->requests, g->rounds);
    print(run);
    if (!out_dir.empty() && g->record != nullptr) {
      const std::string path =
          (std::filesystem::path(out_dir) / g->record).string();
      std::ofstream os(path);
      write_record(os, run);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    if (!run.failures.empty() || !run.breaches.empty()) {
      failed += std::string(" ") + g->name;
    }
  }
  if (!failed.empty()) {
    std::printf("gates failed:%s\n", failed.c_str());
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}

}  // namespace hmcsim::bench
