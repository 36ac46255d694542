// In-process simulator-speed harness.
//
// Drives the public API (Simulator::init_simple, HostDriver, Generator and
// the packet codec) through repeats of a fixed amount of simulated work and
// prints one JSON record per repeat; run.py aggregates, checks and reports
// them.  Everything is timed from outside the library: an untraced repeat
// times setup and the drive loop only, while a traced repeat also wraps
// Generator::next, times every HostDriver::step, reads the clock-stage
// profiler and occupancy telemetry, and keeps spans in memory that are
// written out at the end of the process.
//
// Usage:
//   perfbench_hmcsim --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    [--spans <file>]
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "packet/packet.hpp"
#include "profile/profiler.hpp"
#include "profile/telemetry.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace hmcsim {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Occupancy sampling cadence of traced repeats: prime, so the samples do
/// not phase-lock with sparse_gups_d's 128-cycle drive period.
constexpr u32 kTelemetryInterval = 251;
/// Packets per codec pass, and passes per run.
constexpr usize kCodecPackets = 16384;
constexpr int kCodecPasses = 5;
/// Setup-only samples recorded before each repeat.
constexpr int kSetupTrials = 3;

u64 now_ns() { return StageProfiler::now_ns(); }

// ---- workloads --------------------------------------------------------------

/// One closed-loop workload: a Table I preset, a request stream, and how the
/// host drives it.  Every workload leaves sim_threads at its default of 1.
struct Workload {
  DeviceConfig device;
  GeneratorConfig gen;
  bool stream{false};          ///< unit-stride stream instead of random
  u32 max_outstanding{512};    ///< per host port
  u32 idle_cycles_per_step{0}; ///< extra clock() calls after each step
  u64 requests{0};             ///< simulated requests per repeat
};

bool make_workload(const std::string& name, u32 seed, Workload& w) {
  if (name == "random_d") {
    // The paper's section VI.A harness on preset d: uniformly random
    // 64-byte requests, 50/50 reads and writes, round-robin links,
    // saturating (512 outstanding per port), data modelling off.
    w.device = table1_config_8link_16bank();
    w.device.model_data = false;
    w.gen.request_bytes = 64;
    w.gen.read_fraction = 0.5;
    w.requests = u64{1} << 18;
  } else if (name == "stream_write_a") {
    // Preset a with payloads stored and the spec link protocol on over a
    // clean link: maximal 9-FLIT write packets dominate, so the host driver
    // and packet codec carry most of the cost.
    w.device = table1_config_4link_8bank();
    w.device.model_data = true;
    w.device.link_protocol = true;
    w.device.link_retry_limit = 1;
    w.gen.request_bytes = 128;
    w.gen.read_fraction = 0.25;
    w.stream = true;
    w.requests = u64{1} << 18;
  } else if (name == "sparse_gups_d") {
    // The random_d request mix injected sparsely: one request in flight per
    // port and 127 idle cycles after every drive-loop step, with a short
    // refresh every 2048 cycles.  Most cycles take the fast-forward path.
    w.device = table1_config_8link_16bank();
    w.device.model_data = false;
    w.device.refresh_interval_cycles = 2048;
    w.device.refresh_busy_cycles = 4;
    w.gen.request_bytes = 64;
    w.gen.read_fraction = 0.5;
    w.max_outstanding = 1;
    w.idle_cycles_per_step = 127;
    w.requests = u64{1} << 17;
  } else {
    return false;
  }
  w.gen.capacity_bytes = w.device.derived_capacity();
  w.gen.seed = seed;
  return true;
}

std::unique_ptr<Generator> make_generator(const Workload& w) {
  if (w.stream) return std::make_unique<StreamGenerator>(w.gen);
  return std::make_unique<RandomAccessGenerator>(w.gen);
}

// ---- spans ------------------------------------------------------------------

enum class SpanKind : u8 { Setup, Step, Generate, Idle, Encode, Validate, Crc };

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Setup: return "setup";
    case SpanKind::Step: return "step";
    case SpanKind::Generate: return "generate";
    case SpanKind::Idle: return "idle_clock";
    case SpanKind::Encode: return "encode";
    case SpanKind::Validate: return "validate";
    case SpanKind::Crc: return "crc";
  }
  return "?";
}

constexpr u32 kNoParent = ~u32{0};

/// One timed interval at a layer boundary.  `clock_ns` is the clock-stage
/// profiler time that elapsed inside the span (its clock-engine child time).
struct Span {
  SpanKind kind{SpanKind::Setup};
  u32 parent{kNoParent};
  u64 id{0};  ///< request number (generate), step number (step/idle), or 0
  u64 start{0};
  u64 end{0};
  u64 clock_ns{0};
};

struct SpanLog {
  std::vector<Span> spans;
  u32 open_step{kNoParent};

  u32 add(SpanKind kind, u32 parent, u64 id, u64 start, u64 end,
          u64 clock_ns = 0) {
    spans.push_back({kind, parent, id, start, end, clock_ns});
    return static_cast<u32>(spans.size() - 1);
  }

  [[nodiscard]] u64 total(SpanKind kind) const {
    u64 ns = 0;
    for (const Span& s : spans) {
      if (s.kind == kind) ns += s.end - s.start;
    }
    return ns;
  }
  [[nodiscard]] u64 clock_total(SpanKind kind) const {
    u64 ns = 0;
    for (const Span& s : spans) {
      if (s.kind == kind) ns += s.clock_ns;
    }
    return ns;
  }

  bool write(const std::string& path, u64 origin) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "kind,id,parent,start_ns,end_ns,clock_ns\n";
    for (const Span& s : spans) {
      out << span_name(s.kind) << ',' << s.id << ',';
      if (s.parent == kNoParent) {
        out << "-";
      } else {
        out << s.parent;
      }
      out << ',' << s.start - origin << ',' << s.end - origin << ','
          << s.clock_ns << '\n';
    }
    return static_cast<bool>(out);
  }
};

/// Generator wrapper recording one span per Generator::next, parented to the
/// drive-loop step that asked for it.
class TimedGenerator final : public Generator {
 public:
  TimedGenerator(Generator& inner, SpanLog& log) : inner_(inner), log_(log) {}

  RequestDesc next() override {
    const u64 t0 = now_ns();
    const RequestDesc d = inner_.next();
    log_.add(SpanKind::Generate, log_.open_step, calls_++, t0, now_ns());
    return d;
  }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  Generator& inner_;
  SpanLog& log_;
  u64 calls_{0};
};

// ---- simulated-output digest -----------------------------------------------

/// FNV-1a over 64-bit words of every deterministic simulated statistic.
class Digest {
 public:
  void add(u64 word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const DeviceStats& s) {
    static_assert(std::is_trivially_copyable_v<DeviceStats> &&
                  sizeof(DeviceStats) % sizeof(u64) == 0);
    u64 words[sizeof(DeviceStats) / sizeof(u64)];
    std::memcpy(words, &s, sizeof words);
    for (const u64 w : words) add(w);
  }
  void add(const LatencyStats& l) {
    add(l.count);
    add(l.sum);
    add(l.min);
    add(l.max);
    for (const u64 b : l.log2_buckets) add(b);
  }
  [[nodiscard]] u64 value() const { return h_; }

 private:
  u64 h_{0xcbf29ce484222325ull};
};

// ---- one repeat -------------------------------------------------------------

struct Repeat {
  bool ok{false};
  double setup_s{0};
  double run_s{0};
  DriverResult result;
  DeviceStats stats;
  u64 skipped{0};
  u64 digest{0};
  // Traced repeats only.
  u64 gen_ns{0};
  u64 step_ns{0};
  u64 step_clock_ns{0};
  u64 stage_ns[kProfileStageCount]{};
  double vault_rqst_occ{0};
  double xbar_rqst_occ{0};
};

u64 profiler_ns(const Simulator& sim) {
  return sim.profiler() == nullptr ? 0 : sim.profiler()->total_ns();
}

Repeat run_repeat(const Workload& w, bool traced, SpanLog& log) {
  Repeat rep;
  DeviceConfig dc = w.device;
  if (traced) {
    dc.self_profile = true;
    dc.telemetry_interval_cycles = kTelemetryInterval;
    log.spans.clear();
    log.spans.reserve(w.requests + w.requests / 2);
    log.open_step = kNoParent;
  }
  const std::unique_ptr<Generator> base = make_generator(w);
  TimedGenerator timed(*base, log);
  Generator& gen = traced ? static_cast<Generator&>(timed) : *base;
  DriverConfig dcfg;
  dcfg.total_requests = w.requests;
  dcfg.max_outstanding_per_port = w.max_outstanding;

  const u64 t0 = now_ns();
  auto sim = std::make_unique<Simulator>();
  std::string diag;
  if (!ok(sim->init_simple(dc, &diag))) {
    std::fprintf(stderr, "perfbench: init_simple failed: %s\n",
                 diag.c_str());
    return rep;
  }
  HostDriver driver(*sim, gen, dcfg);
  const u64 t1 = now_ns();

  DriverResult& r = rep.result;
  if (!traced) {
    while (driver.step(r)) {
      for (u32 i = 0; i < w.idle_cycles_per_step; ++i) sim->clock();
    }
  } else {
    log.add(SpanKind::Setup, kNoParent, 0, t0, t1);
    for (u64 step = 0;; ++step) {
      const u64 c0 = profiler_ns(*sim);
      const u64 s0 = now_ns();
      log.open_step = log.add(SpanKind::Step, kNoParent, step, s0, s0);
      const bool more = driver.step(r);
      const u64 s1 = now_ns();
      Span& sp = log.spans[log.open_step];
      sp.end = s1;
      sp.clock_ns = profiler_ns(*sim) - c0;
      log.open_step = kNoParent;
      if (!more) break;
      if (w.idle_cycles_per_step != 0) {
        const u64 c1 = profiler_ns(*sim);
        for (u32 i = 0; i < w.idle_cycles_per_step; ++i) sim->clock();
        log.add(SpanKind::Idle, kNoParent, step, s1, now_ns(),
                profiler_ns(*sim) - c1);
      }
    }
  }
  driver.finish(r);
  const u64 t2 = now_ns();

  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.run_s = static_cast<double>(t2 - t1) * 1e-9;
  rep.stats = sim->total_stats();
  rep.skipped = sim->cycles_skipped();

  Digest d;
  d.add(r.cycles);
  d.add(r.sent);
  d.add(r.completed);
  d.add(r.errors);
  d.add(r.send_stalls);
  d.add(r.timeouts);
  d.add(r.retries);
  d.add(r.abandoned);
  d.add(r.hit_cycle_cap ? 1 : 0);
  d.add(r.watchdog_fired ? 1 : 0);
  d.add(r.latency);
  for (u32 dev = 0; dev < sim->num_devices(); ++dev) d.add(sim->stats(dev));
  rep.digest = d.value();

  if (traced) {
    sim->flush_observability();
    rep.gen_ns = log.total(SpanKind::Generate);
    rep.step_ns = log.total(SpanKind::Step);
    rep.step_clock_ns = log.clock_total(SpanKind::Step);
    if (const StageProfiler* p = sim->profiler()) {
      for (usize s = 0; s < kProfileStageCount; ++s) {
        rep.stage_ns[s] = p->stage_ns(static_cast<ProfileStage>(s));
      }
    }
    if (const Telemetry* tel = sim->telemetry()) {
      u64 vsum = 0, vn = 0, xsum = 0, xn = 0;
      for (u32 dev = 0; dev < tel->num_devices(); ++dev) {
        const OccupancyTrack& v = tel->track(TelemetryTrack::VaultRqst, dev);
        const OccupancyTrack& x = tel->track(TelemetryTrack::XbarRqst, dev);
        vsum += v.sum;
        vn += v.samples;
        xsum += x.sum;
        xn += x.samples;
      }
      rep.vault_rqst_occ = vn == 0 ? 0.0 : static_cast<double>(vsum) /
                                               static_cast<double>(vn);
      rep.xbar_rqst_occ = xn == 0 ? 0.0 : static_cast<double>(xsum) /
                                              static_cast<double>(xn);
    }
  }
  rep.ok = true;
  return rep;
}

void print_repeat(int index, bool traced, u64 requests, const Repeat& rep) {
  const DriverResult& r = rep.result;
  const DeviceStats& s = rep.stats;
  std::printf(
      "{\"repeat\": %d, \"traced\": %d, \"setup_s\": %.9f, "
      "\"run_s\": %.9f, \"requests\": %" PRIu64 ", \"completed\": %" PRIu64
      ", \"errors\": %" PRIu64 ", \"abandoned\": %" PRIu64
      ", \"cycles\": %" PRIu64 ", \"skipped\": %" PRIu64 ", \"sent\": %" PRIu64
      ", \"send_stalls\": %" PRIu64 ", \"bank_conflicts\": %" PRIu64
      ", \"xbar_rqst_stalls\": %" PRIu64 ", \"latency_penalties\": %" PRIu64
      ", \"link_token_stalls\": %" PRIu64 ", \"latency_p50\": %" PRIu64
      ", \"latency_p99\": %" PRIu64 ", \"digest\": \"%016" PRIx64 "\"",
      index, traced ? 1 : 0, rep.setup_s, rep.run_s, requests, r.completed,
      r.errors, r.abandoned, r.cycles, rep.skipped, r.sent, r.send_stalls,
      s.bank_conflicts, s.xbar_rqst_stalls, s.latency_penalties,
      s.link_token_stalls, r.latency.percentile(0.50),
      r.latency.percentile(0.99), rep.digest);
  if (traced) {
    std::printf(", \"gen_ns\": %" PRIu64 ", \"step_ns\": %" PRIu64
                ", \"step_clock_ns\": %" PRIu64 ", \"stage_ns\": [",
                rep.gen_ns, rep.step_ns, rep.step_clock_ns);
    for (usize i = 0; i < kProfileStageCount; ++i) {
      std::printf("%s%" PRIu64, i == 0 ? "" : ", ", rep.stage_ns[i]);
    }
    std::printf("], \"vault_rqst_occ\": %.6f, \"xbar_rqst_occ\": %.6f",
                rep.vault_rqst_occ, rep.xbar_rqst_occ);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

// ---- packet codec pass -----------------------------------------------------

/// Time build_memrequest, validate_packet and packet_crc over the
/// workload's own request mix, outside the simulated run.  Returns false if
/// any packet fails to build or validate.
bool codec_pass(const Workload& w, int pass, SpanLog& log) {
  const std::unique_ptr<Generator> gen = make_generator(w);
  std::vector<RequestDesc> reqs(kCodecPackets);
  for (RequestDesc& r : reqs) r = gen->next();
  std::vector<PacketBuffer> pkts(kCodecPackets);
  u64 payload[spec::kMaxPayloadBytes / 8] = {};
  usize bad = 0;

  const u64 t0 = now_ns();
  for (usize i = 0; i < kCodecPackets; ++i) {
    const usize words = request_data_bytes(reqs[i].cmd) / 8;
    const u32 link = static_cast<u32>(i % w.device.num_links);
    if (!ok(build_memrequest(0, reqs[i].addr, static_cast<Tag>(i % 512),
                             reqs[i].cmd, link, {payload, words}, pkts[i]))) {
      ++bad;
    }
  }
  const u64 t1 = now_ns();
  for (const PacketBuffer& p : pkts) {
    if (!ok(validate_packet(p))) ++bad;
  }
  const u64 t2 = now_ns();
  u64 flits = 0;
  u32 crc_fold = 0;
  for (const PacketBuffer& p : pkts) {
    crc_fold ^= packet_crc(p);
    flits += p.flits;
  }
  const u64 t3 = now_ns();

  log.add(SpanKind::Encode, kNoParent, static_cast<u64>(pass), t0, t1);
  log.add(SpanKind::Validate, kNoParent, static_cast<u64>(pass), t1, t2);
  log.add(SpanKind::Crc, kNoParent, static_cast<u64>(pass), t2, t3);
  const double n = static_cast<double>(kCodecPackets);
  std::printf("{\"codec_pass\": %d, \"encode_ns\": %.6f, \"validate_ns\": "
              "%.6f, \"crc_ns_per_flit\": %.6f, \"flits\": %" PRIu64
              ", \"bad\": %zu, \"crc_fold\": %u}\n",
              pass, static_cast<double>(t1 - t0) / n,
              static_cast<double>(t2 - t1) / n,
              static_cast<double>(t3 - t2) / static_cast<double>(flits),
              flits, bad, crc_fold);
  return bad == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload random_d|stream_write_a|sparse_gups_d "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace hmcsim

int main(int argc, char** argv) {
  using namespace hmcsim;
  std::string workload;
  std::string spans_path;
  unsigned long long seed = 1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--spans") {
      spans_path = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0' || !(seconds > 0)) return usage(argv[0]);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0') return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1) || seconds <= 0) {
    return usage(argv[0]);
  }
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to measure a non-optimised "
                         "build (build type '%s')\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Workload w;
  // The workload seed reaches the simulator only through the generator.
  if (!make_workload(workload, static_cast<u32>(seed), w)) {
    return usage(argv[0]);
  }

  std::printf("{\"host\": {\"cpus\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"optimized\": %s}}\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false");

  SpanLog log;
  SpanLog last_traced;
  Workload setup_only = w;
  setup_only.requests = 0;

  // Trace 0 runs untraced repeats only; trace 1 alternates untraced and
  // traced repeats so the tracing overhead is measured under the same
  // conditions.  Each repeat simulates the same fixed work from a fresh
  // simulator, so its digest must repeat exactly.
  const int min_each = trace == 0 ? 3 : 2;
  const u64 budget_ns = static_cast<u64>(seconds * 1e9);
  const u64 origin = now_ns();
  int untraced = 0;
  int traced = 0;
  bool all_ok = true;
  for (int i = 0;; ++i) {
    // Setup takes milliseconds, so it is sampled on its own, with no
    // simulated work, a few times before every repeat; the samples thus
    // span the whole run.  The first trial is not recorded: it re-faults
    // the memory the previous repeat returned to the OS.
    for (int t = 0; t <= kSetupTrials; ++t) {
      const Repeat rep = run_repeat(setup_only, false, log);
      if (!rep.ok) return 1;
      if (t != 0) {
        std::printf("{\"setup_only\": %d, \"setup_s\": %.9f}\n", i,
                    rep.setup_s);
      }
    }
    const bool is_traced = trace == 1 && (i % 2 == 1);
    const Repeat rep = run_repeat(w, is_traced, log);
    if (!rep.ok) return 1;
    print_repeat(i, is_traced, w.requests, rep);
    if (is_traced) {
      ++traced;
      std::swap(last_traced.spans, log.spans);
    } else {
      ++untraced;
    }
    const bool enough =
        untraced >= min_each && (trace == 0 || traced >= min_each);
    if (enough && now_ns() - origin >= budget_ns) break;
  }

  if (trace == 1) {
    for (int pass = 0; pass < kCodecPasses; ++pass) {
      if (!codec_pass(w, pass, last_traced)) all_ok = false;
    }
    if (!spans_path.empty() && !last_traced.write(spans_path, origin)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   spans_path.c_str());
      all_ok = false;
    }
  }
  std::printf("{\"done\": %s, \"peak_rss_mb\": %.3f}\n",
              all_ok ? "true" : "false", peak_rss_mb());
  return all_ok ? 0 : 1;
}
