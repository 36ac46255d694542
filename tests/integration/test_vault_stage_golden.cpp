// Exact goldens for stages 3 and 4 of the sub-cycle clock (paper §IV.C:
// bank-conflict recognition, then out-of-order retire of non-conflicting
// packets).
//
// The differential and backend-parity goldens run every vault knob at its
// default.  This suite pins the knobs those two leave alone —
// `conflict_window`, `vault_schedule` and `vault_drain_limit` — against
// every timing backend, chosen pairwise so the whole suite stays a few
// seconds, together with the events that reshape a vault queue mid-run:
// refresh windows, a bank wedged by a direct write of `bank_busy_until`,
// a vault failing with entries queued, and a checkpoint saved mid-run and
// restored into a fresh simulator.
//
// Each golden records the finish cycle, every DeviceStats counter, an
// FNV-1a digest over every completed lifecycle (all stamps, the stage-3
// `first_conflict` stamp included), the checkpoint bytes at the end (and
// at the mid-run save), and, for the traced cases, the trace stream.
//
// Regenerate only for an intentional behaviour change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest -R VaultStageGolden
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "tests/core/helpers.hpp"
#include "tests/integration/golden.hpp"
#include "trace/lifecycle.hpp"
#include "workload/driver.hpp"

namespace hmcsim {
namespace {

struct Case {
  const char* name;
  TimingBackend backend;
  bool open_page;
  VaultSchedule schedule;
  u32 conflict_window;
  u32 drain_limit;
  bool refresh;
  bool wedge;        ///< hold one bank busy by writing bank_busy_until
  bool fail_vault;   ///< mark one vault failed with entries queued
  bool checkpoint;   ///< save mid-run, restore into a fresh simulator
  bool trace;        ///< trace at SubCycle and digest the stream
};

constexpr VaultSchedule kReady = VaultSchedule::BankReady;
constexpr VaultSchedule kStrict = VaultSchedule::StrictFifo;

// Pairwise over backend x schedule x window x drain limit; each mid-run
// event and the traced walk appear under both schedules.
constexpr Case kCases[] = {
    // name                 backend           open  sched  win drn  refr  wedge fail  ckpt  trace
    {"closed_ready_w16_d0", TimingBackend::HmcDram, false, kReady, 16, 0, true, false, false, false, false},
    {"closed_strict_w1_d1", TimingBackend::HmcDram, false, kStrict, 1, 1, false, false, true, false, false},
    {"open_ready_w0_d1", TimingBackend::HmcDram, true, kReady, 0, 1, true, true, false, false, false},
    {"open_strict_w16_d0", TimingBackend::HmcDram, true, kStrict, 16, 0, false, false, false, true, true},
    {"ddr_ready_w1_d0", TimingBackend::GenericDdr, false, kReady, 1, 0, false, false, true, false, false},
    {"ddr_strict_w0_d1", TimingBackend::GenericDdr, true, kStrict, 0, 1, true, true, false, false, false},
    {"pcm_ready_w16_d1", TimingBackend::PcmLike, false, kReady, 16, 1, false, false, false, true, false},
    {"pcm_strict_w1_d0", TimingBackend::PcmLike, false, kStrict, 1, 0, true, true, false, false, false},
    {"pcm_ready_w0_d0", TimingBackend::PcmLike, false, kReady, 0, 0, false, false, true, false, true},
    {"closed_ready_all_events", TimingBackend::HmcDram, false, kReady, 16, 0, true, true, true, true, false},
};

// Mid-run events fire once the host has sent this many requests, so they
// land in saturated queues whatever each case's pace.  Every case also
// pauses the host (no sends, no receives) for a while, so responses back
// up into the vault response queues and stage 4 meets full ones.
constexpr u64 kRequests = 3000;
constexpr u64 kPauseAfter = 1000;
constexpr u32 kPauseCycles = 60;
constexpr u64 kWedgeAfter = 800;
constexpr Cycle kWedgeCycles = 120;
constexpr u64 kFailAfter = 1200;
constexpr u64 kCheckpointAfter = 1600;

DeviceConfig case_device(const Case& c) {
  DeviceConfig dc = test::small_device();
  // Deeper than the 16-entry window, so window 0 (the whole queue) and
  // window 16 see different entries.
  dc.vault_depth = 24;
  dc.xbar_depth = 16;
  // Slow banks make the vault queues, not the crossbar, the bottleneck.
  dc.bank_busy_cycles = 8;
  dc.timing_backend = c.backend;
  dc.vault_schedule = c.schedule;
  dc.conflict_window = c.conflict_window;
  dc.vault_drain_limit = c.drain_limit;
  if (c.open_page) {
    dc.row_policy = RowPolicy::OpenPage;
    dc.row_hit_cycles = 2;
    dc.row_miss_cycles = 7;
  }
  if (c.backend == TimingBackend::GenericDdr) {
    dc.ddr_tcl = 3;
    dc.ddr_trcd = 2;
    dc.ddr_trp = 2;
    dc.ddr_tras = 6;
  } else if (c.backend == TimingBackend::PcmLike) {
    dc.pcm_read_cycles = 4;
    dc.pcm_write_cycles = 12;
    dc.pcm_write_gap_cycles = 6;
  }
  if (c.refresh) {
    dc.refresh_interval_cycles = 256;
    dc.refresh_busy_cycles = 8;
  }
  return dc;
}

GeneratorConfig case_generator(const Simulator& sim) {
  GeneratorConfig gc;
  gc.capacity_bytes = sim.config().device.derived_capacity();
  gc.seed = 1919;
  return gc;
}

DriverConfig case_driver() {
  DriverConfig dcfg;
  dcfg.total_requests = kRequests;
  dcfg.max_cycles = 200000;
  return dcfg;
}

/// Folds every completed lifecycle, all stamps and identity fields in
/// completion order, into one FNV-1a digest.
class LifecycleDigest final : public LifecycleObserver {
 public:
  void complete(const PacketLifecycle& lc) override {
    const u64 words[] = {lc.inject, lc.vault_arrive, lc.first_conflict,
                         lc.retire, lc.rsp_register, lc.drain,
                         lc.dev,    lc.vault,        lc.link,
                         lc.tag,    static_cast<u64>(lc.cmd)};
    digest_ = test::fnv1a(
        {reinterpret_cast<const char*>(words), sizeof(words)}, digest_);
    ++count_;
    if (lc.first_conflict != 0) ++conflicted_;
  }
  u64 count_{0};
  u64 conflicted_{0};
  u64 digest_{test::kFnvOffset};
};

/// Folds every trace record, all fields in emission order, into one digest.
class TraceDigest final : public TraceSink {
 public:
  void record(const TraceRecord& r) override {
    const u64 words[] = {static_cast<u64>(r.event),
                         r.stage,
                         r.cycle,
                         r.dev,
                         r.link,
                         r.quad,
                         r.vault,
                         r.bank,
                         r.addr,
                         r.tag,
                         static_cast<u64>(r.cmd)};
    digest_ = test::fnv1a(
        {reinterpret_cast<const char*>(words), sizeof(words)}, digest_);
    ++count_;
  }
  u64 count_{0};
  u64 digest_{test::kFnvOffset};
};

void observe(Simulator& sim, const Case& c,
             const std::shared_ptr<LifecycleDigest>& life,
             const std::shared_ptr<TraceDigest>& trace) {
  sim.add_lifecycle_observer(life);
  if (c.trace) {
    sim.tracer().set_level(TraceLevel::SubCycle);
    sim.tracer().add_sink(trace);
  }
}

std::string checkpoint_bytes(const Simulator& sim, const HostDriver& driver,
                             const DriverResult& r) {
  std::ostringstream os;
  EXPECT_EQ(sim.save_checkpoint(os, nullptr, save_host_state(driver, r)),
            Status::Ok);
  return std::move(os).str();
}

/// The vault with the most queued requests (lowest index on a tie).
u32 fullest_vault(const Device& dev) {
  u32 best = 0;
  for (u32 v = 1; v < dev.vaults.size(); ++v) {
    if (dev.vaults[v].rqst.size() > dev.vaults[best].rqst.size()) best = v;
  }
  return best;
}

std::string hex(u64 v) {
  std::ostringstream os;
  os << std::hex << v;
  return std::move(os).str();
}

std::string capture(const Case& c) {
  std::ostringstream os;
  auto life = std::make_shared<LifecycleDigest>();
  auto trace = std::make_shared<TraceDigest>();

  auto sim = std::make_unique<Simulator>();
  std::string diag;
  EXPECT_EQ(sim->init_simple(case_device(c), &diag), Status::Ok) << diag;
  observe(*sim, c, life, trace);
  auto gen = std::make_unique<RandomAccessGenerator>(case_generator(*sim));
  auto driver = std::make_unique<HostDriver>(*sim, *gen, case_driver());

  DriverResult r;
  bool paused = false;
  bool wedged = false;
  bool failed = false;
  bool saved = false;
  while (driver->step(r)) {
    const Cycle now = sim->now();
    Device& dev = sim->device(0);
    if (!paused && r.sent >= kPauseAfter) {
      for (u32 i = 0; i < kPauseCycles; ++i) sim->clock();
      os << "pause at " << now << " vault_rsp_stalls "
         << dev.stats.vault_rsp_stalls << '\n';
      paused = true;
    }
    if (c.wedge && !wedged && r.sent >= kWedgeAfter) {
      // Hold the fullest vault's head bank busy.
      const u32 v = fullest_vault(dev);
      VaultState& vault = dev.vaults[v];
      const u32 bank = dev.address_map().bank_of(vault.rqst.front().req.addr);
      vault.bank_busy_until[bank] = now + kWedgeCycles;
      os << "wedge vault " << v << " bank " << bank << " at " << now
         << " queued " << vault.rqst.size() << '\n';
      wedged = true;
    }
    if (c.fail_vault && !failed && r.sent >= kFailAfter) {
      const u32 v = fullest_vault(dev);
      dev.ras.failed_vaults |= u64{1} << v;
      os << "fail vault " << v << " at " << now << " queued "
         << dev.vaults[v].rqst.size() << '\n';
      failed = true;
    }
    if (c.checkpoint && !saved && r.sent >= kCheckpointAfter) {
      const std::string bytes = checkpoint_bytes(*sim, *driver, r);
      os << "checkpoint at " << now << " fnv1a " << hex(test::fnv1a(bytes))
         << '\n';
      // Continue in a fresh simulator restored from the bytes.
      auto restored = std::make_unique<Simulator>();
      std::istringstream is(bytes);
      std::string host_blob;
      EXPECT_EQ(restored->restore_checkpoint(is, nullptr, &host_blob),
                Status::Ok);
      observe(*restored, c, life, trace);
      auto gen2 = std::make_unique<RandomAccessGenerator>(
          case_generator(*restored));
      auto driver2 =
          std::make_unique<HostDriver>(*restored, *gen2, case_driver());
      DriverResult r2;
      EXPECT_EQ(restore_host_state(host_blob, *driver2, r2), Status::Ok);
      driver = std::move(driver2);
      gen = std::move(gen2);
      sim = std::move(restored);
      r = r2;
      saved = true;
    }
  }
  driver->finish(r);

  os << "case " << c.name << '\n';
  os << "cycle " << sim->now() << '\n';
  os << "driver sent " << r.sent << " completed " << r.completed
     << " errors " << r.errors << '\n';
  test::append_stats(os, sim->stats(0));
  os << "lifecycle " << life->count_ << " conflicted " << life->conflicted_
     << " fnv1a " << hex(life->digest_) << '\n';
  if (c.trace) {
    os << "trace " << trace->count_ << " fnv1a " << hex(trace->digest_)
       << '\n';
  }
  os << "checkpoint final fnv1a "
     << hex(test::fnv1a(checkpoint_bytes(*sim, *driver, r))) << '\n';
  return std::move(os).str();
}

class VaultStageGolden : public ::testing::TestWithParam<Case> {};

TEST_P(VaultStageGolden, MatchesGolden) {
  const Case& c = GetParam();
  const std::string got = capture(c);
  // Non-vacuousness: every request answered, and stage 3 saw conflicts.
  EXPECT_NE(got.find("completed " + std::to_string(kRequests)),
            std::string::npos)
      << got;
  EXPECT_EQ(got.find("stat bank_conflicts 0\n"), std::string::npos) << got;
  test::expect_matches_golden(std::string("vault_stage/") + c.name + ".txt",
                              got, "VaultStageGolden");
}

INSTANTIATE_TEST_SUITE_P(Pairwise, VaultStageGolden,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hmcsim
