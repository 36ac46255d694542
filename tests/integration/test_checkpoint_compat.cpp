// Checkpoint backward-compatibility: every format version back to 2 must
// restore into the current simulator and replay deterministically.
//
// Committed binary fixtures live under tests/golden/checkpoints/:
//
//   checkpoint_v2.bin  pre-RAS era: no RAS config/stats/registers, no
//                      fault sidecar, no watchdog tail, no per-vault RNG
//   checkpoint_v3.bin  RAS era: full config/stats/registers + RAS tail,
//                      but the DRAM fault RNG is still device-wide
//   checkpoint_v4.bin  per-vault DRAM RNG, but no link-layer protocol
//                      records
//   checkpoint_v5.bin  link-layer config/stats/registers and per-link
//                      retry/token state, still one continuous stream
//   checkpoint_v6.bin  framed container: same records, split into
//                      sections with per-section length + CRC-32K and a
//                      trailer magic — but no timing-backend records
//   checkpoint_v7.bin  adds the backend config knobs, the
//                      pcm_write_throttle_stalls counter, and a per-vault
//                      backend-private state frame (this fixture runs
//                      pcm_like/generic_ddr vault overrides so the frames
//                      carry real state)
//   checkpoint_v8.bin  current: adds the optional CHAO section (this
//                      fixture freezes a machine mid-chaos-storm, events
//                      applied AND still pending, so the campaign cursor,
//                      baselines, and plan bytes are all exercised)
//
// Each fixture snapshots a mid-flight workload — requests in crossbar and
// vault queues, banks busy, memory pages resident — so restore exercises
// every record type, not just the config header.  The tests restore each
// fixture into a fresh simulator, replay 1000 cycles, and require (a) the
// machine drains and retires work, and (b) the replay is bit-identical
// with fast-forward off and on — proving old-version
// restores land in a fully coherent state, not merely a parseable one.
//
// The v2/v3 writers below mirror the historical put-side of
// src/core/checkpoint.cpp.  To regenerate after an intentional format
// change:
//
//   HMCSIM_UPDATE_GOLDEN=1 ctest -R CheckpointCompat
//
// then commit the new fixtures like any other source change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "core/config_file.hpp"
#include "packet/crc32.hpp"
#include "tests/core/helpers.hpp"
#include "topo/topology.hpp"
#include "workload/driver.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim {
namespace {

constexpr char kMagic[8] = {'H', 'M', 'C', 'S', 'I', 'M', 'C', 'K'};
constexpr usize kV2RegCount = 43;
constexpr usize kV3RegCount = 49;
constexpr usize kV2StatsCount = 25;
constexpr usize kV3StatsCount = 33;

std::string fixture_path(u32 version) {
  return std::string(HMCSIM_GOLDEN_DIR) + "/checkpoints/checkpoint_v" +
         std::to_string(version) + ".bin";
}

// ---- legacy put-side (mirrors src/core/checkpoint.cpp's framing) ----------

void put_u64(std::ostream& os, u64 v) {
  u8 bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<u8>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(bytes), 8);
}

void put_u32(std::ostream& os, u32 v) { put_u64(os, v); }
void put_u8(std::ostream& os, u8 v) { put_u64(os, v); }

void put_packet(std::ostream& os, const PacketBuffer& pkt) {
  put_u32(os, pkt.flits);
  for (usize i = 0; i < pkt.word_count(); ++i) put_u64(os, pkt.words[i]);
}

void put_queue_stats(std::ostream& os, const QueueStats& s) {
  put_u64(os, s.total_pushes);
  put_u64(os, s.total_pops);
  put_u64(os, s.rejected_full);
  put_u64(os, s.high_water);
}

void put_lifecycle(std::ostream& os, const PacketLifecycle& lc) {
  put_u64(os, lc.inject);
  put_u64(os, lc.vault_arrive);
  put_u64(os, lc.first_conflict);
  put_u64(os, lc.retire);
  put_u64(os, lc.rsp_register);
  put_u64(os, lc.drain);
  put_u32(os, lc.dev);
  put_u32(os, lc.vault);
  put_u32(os, lc.link);
  put_u32(os, lc.tag);
  put_u8(os, static_cast<u8>(lc.cmd));
}

template <typename Tags>
void put_request_queue(std::ostream& os,
                       const BoundedQueue<RequestEntry, Tags>& q) {
  put_u64(os, q.size());
  for (const RequestEntry& e : q) {
    put_packet(os, e.pkt);
    put_u64(os, e.ready_cycle);
    put_u32(os, e.home_dev);
    put_u32(os, e.home_link);
    put_u32(os, e.ingress_link);
    put_u8(os, e.penalty_applied ? 1 : 0);
    put_u8(os, e.retries);
    put_lifecycle(os, e.life);
  }
  put_queue_stats(os, q.stats());
}

void put_response_queue(std::ostream& os,
                        const BoundedQueue<ResponseEntry>& q) {
  put_u64(os, q.size());
  for (const ResponseEntry& e : q) {
    put_packet(os, e.pkt);
    put_u64(os, e.ready_cycle);
    put_u32(os, e.home_dev);
    put_u32(os, e.home_link);
    put_lifecycle(os, e.life);
  }
  put_queue_stats(os, q.stats());
}

void put_stats(std::ostream& os, const DeviceStats& s, u32 version) {
  const u64 fields[] = {s.reads, s.writes, s.atomics, s.mode_ops,
                        s.custom_ops, s.bytes_read, s.bytes_written,
                        s.responses, s.error_responses, s.bank_conflicts,
                        s.xbar_rqst_stalls, s.xbar_rsp_stalls,
                        s.vault_rsp_stalls, s.latency_penalties, s.route_hops,
                        s.misroutes, s.link_errors, s.link_retries,
                        s.refreshes, s.row_hits, s.row_misses, s.sends,
                        s.send_stalls, s.recvs, s.flow_packets,
                        s.dram_sbes, s.dram_dbes, s.scrub_steps,
                        s.scrub_corrections, s.scrub_uncorrectables,
                        s.vault_failures, s.vault_remaps, s.degraded_drops,
                        s.link_crc_errors, s.link_seq_errors,
                        s.link_abort_entries, s.link_irtry_tx,
                        s.link_irtry_rx, s.link_pret_tx, s.link_tret_tx,
                        s.link_replayed_flits, s.link_token_stalls,
                        s.link_retrain_cycles, s.link_failures,
                        s.link_tokens_debited, s.link_tokens_returned};
  const usize count = version >= 5   ? std::size(fields)
                      : version >= 3 ? kV3StatsCount
                                     : kV2StatsCount;
  for (usize i = 0; i < count; ++i) put_u64(os, fields[i]);
}

void put_device_config(std::ostream& os, const DeviceConfig& c, u32 version) {
  put_u32(os, c.num_links);
  put_u32(os, c.banks_per_vault);
  put_u32(os, c.drams_per_bank);
  put_u64(os, c.xbar_depth);
  put_u64(os, c.vault_depth);
  put_u64(os, c.capacity_bytes);
  put_u8(os, static_cast<u8>(c.map_mode));
  put_u64(os, c.max_block_bytes);
  put_u32(os, c.bank_busy_cycles);
  put_u32(os, c.xbar_flits_per_cycle);
  put_u32(os, c.vault_drain_limit);
  put_u32(os, c.nonlocal_penalty_cycles);
  put_u32(os, c.conflict_window);
  put_u8(os, static_cast<u8>(c.vault_schedule));
  put_u32(os, c.link_error_rate_ppm);
  put_u64(os, c.fault_seed);
  put_u32(os, c.link_retry_limit);
  put_u32(os, c.refresh_interval_cycles);
  put_u32(os, c.refresh_busy_cycles);
  put_u8(os, static_cast<u8>(c.row_policy));
  put_u32(os, c.row_hit_cycles);
  put_u32(os, c.row_miss_cycles);
  put_u8(os, c.model_data ? 1 : 0);
  if (version >= 3) {
    put_u32(os, c.dram_sbe_rate_ppm);
    put_u32(os, c.dram_dbe_rate_ppm);
    put_u32(os, c.scrub_interval_cycles);
    put_u64(os, c.scrub_window_bytes);
    put_u32(os, c.vault_fail_threshold);
    put_u64(os, c.failed_vault_mask);
    put_u8(os, c.vault_remap ? 1 : 0);
    put_u32(os, c.watchdog_cycles);
  }
  if (version >= 5) {
    put_u8(os, c.link_protocol ? 1 : 0);
    put_u32(os, c.link_tokens);
    put_u32(os, c.link_retry_buffer_flits);
    put_u32(os, c.link_retry_latency);
    put_u32(os, c.link_error_burst_len);
    put_u32(os, c.link_stuck_interval_cycles);
    put_u32(os, c.link_stuck_window_cycles);
    put_u32(os, c.link_fail_threshold);
  }
}

void put_link_proto(std::ostream& os, const LinkProtoState& st) {
  put_u64(os, static_cast<u64>(st.tokens));
  put_u64(os, st.tokens_debited);
  put_u64(os, st.tokens_returned);
  put_u32(os, st.retry_buf_flits);
  put_u8(os, st.tx_frp);
  put_u8(os, st.rx_rrp);
  put_u8(os, st.tx_seq);
  put_u8(os, st.rx_seq);
  put_u64(os, st.retrain_until);
  put_u32(os, st.burst_remaining);
  put_u32(os, st.fail_count);
  put_u8(os, st.dead ? 1 : 0);
  put_u8(os, st.replay_pending ? 1 : 0);
  if (st.replay_pending) {
    put_packet(os, st.replay.pkt);
    put_u64(os, st.replay.ready_cycle);
    put_u32(os, st.replay.home_dev);
    put_u32(os, st.replay.home_link);
    put_u32(os, st.replay.ingress_link);
    put_u8(os, st.replay.penalty_applied ? 1 : 0);
    put_u8(os, st.replay.retries);
    put_lifecycle(os, st.replay.life);
  }
}

/// Serialize `sim` in a historical checkpoint format (version 2..5).
/// Mirrors what those writers emitted: one continuous unframed stream, the
/// register prefix of the era, link-layer records only from v5, per-vault
/// RNG only from v4, and (for v2) no RAS or watchdog records.
void write_legacy_checkpoint(const Simulator& sim, u32 version,
                             std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  put_u32(os, version);
  put_u32(os, sim.num_devices());
  put_device_config(os, sim.config().device, version);

  const Topology& topo = sim.topology();
  put_u32(os, topo.num_devices());
  put_u32(os, topo.links_per_device());
  for (u32 d = 0; d < topo.num_devices(); ++d) {
    for (u32 l = 0; l < topo.links_per_device(); ++l) {
      const LinkEndpoint& e = topo.endpoint(CubeId{d}, LinkId{l});
      put_u8(os, static_cast<u8>(e.kind));
      put_u32(os, e.peer_dev);
      put_u32(os, e.peer_link);
    }
  }

  put_u64(os, sim.now());

  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const Device& dev = sim.device(d);
    put_stats(os, dev.stats, version);

    const RegisterFile::Snapshot regs = dev.regs.snapshot();
    const usize reg_count = version >= 5   ? regs.values.size()
                            : version >= 3 ? kV3RegCount
                                           : kV2RegCount;
    for (usize r = 0; r < reg_count; ++r) put_u64(os, regs.values[r]);
    for (usize r = 0; r < reg_count; ++r) {
      put_u8(os, regs.pending_self_clear[r] ? 1 : 0);
    }

    std::vector<u64> page_indices;
    page_indices.reserve(dev.store.resident_pages());
    dev.store.for_each_page([&](u64 index, std::span<const u8>) {
      page_indices.push_back(index);
    });
    std::sort(page_indices.begin(), page_indices.end());
    put_u64(os, page_indices.size());
    std::vector<u8> page_bytes(SparseStore::kPageBytes);
    for (const u64 index : page_indices) {
      put_u64(os, index);
      (void)dev.store.read(index * SparseStore::kPageBytes, page_bytes);
      os.write(reinterpret_cast<const char*>(page_bytes.data()),
               static_cast<std::streamsize>(page_bytes.size()));
    }

    for (const LinkState& link : dev.links) {
      put_request_queue(os, link.rqst);
      put_response_queue(os, link.rsp);
      put_u64(os, link.rqst_flits_forwarded);
      put_u64(os, link.rsp_flits_forwarded);
      put_u64(os, static_cast<u64>(link.rqst_budget));
      put_u64(os, static_cast<u64>(link.rsp_budget));
      if (version >= 5) put_link_proto(os, link.proto);
    }
    for (const VaultState& vault : dev.vaults) {
      put_request_queue(os, vault.rqst);
      put_response_queue(os, vault.rsp);
      for (const Cycle busy : vault.bank_busy_until) put_u64(os, busy);
      for (const u64 row : vault.open_row) put_u64(os, row);
      // No per-vault DRAM RNG before version 4.
      if (version >= 4) put_u64(os, vault.dram_rng.state());
    }
    put_response_queue(os, dev.mode_rsp);

    if (version >= 3) {
      put_u64(os, dev.fault_rng.state());
      put_u64(os, dev.store.fault_count());
      dev.store.for_each_fault([&](u64 word, u64 data_flips, u8 check_flips) {
        put_u64(os, word);
        put_u64(os, data_flips);
        put_u8(os, check_flips);
      });
      put_u64(os, dev.ras.failed_vaults);
      for (const u32 count : dev.ras.vault_uncorrectable) put_u32(os, count);
      put_u64(os, dev.ras.scrub_cursor);
      put_u64(os, dev.ras.scrub_passes);
      put_u64(os, dev.ras.last_error_addr);
      put_u8(os, dev.ras.last_error_stat);
    }
  }

  if (version >= 3) {
    put_u8(os, sim.watchdog_fired() ? 1 : 0);
    put_u32(os, 0);  // stall cycles: fixture sims never configure a watchdog
    put_u64(os, 0);  // frozen fingerprint likewise unused
  }
}

// ---- fixture workload ------------------------------------------------------

/// A v2-era fixture must not depend on RAS; v3+ fixtures turn the storm on;
/// the v5 fixture additionally runs the link retry/token protocol so the
/// per-link LinkProtoState records are exercised mid-recovery.
DeviceConfig fixture_device(u32 version) {
  DeviceConfig dc = test::small_device();
  if (version >= 3) {
    dc.dram_sbe_rate_ppm = 20000;
    dc.dram_dbe_rate_ppm = 4000;
    dc.scrub_interval_cycles = 128;
    dc.vault_fail_threshold = 4;
    dc.link_error_rate_ppm = 2000;
    dc.link_retry_limit = 3;
  }
  if (version >= 5) {
    dc.link_protocol = true;
    dc.link_retry_latency = 6;
    dc.link_error_burst_len = 2;
  }
  if (version >= 7) {
    // Mixed per-vault backends with a write gap so the v7 fixture's
    // backend-state frames hold live (nonzero) private state.
    dc.vault_backends = {{1, TimingBackend::PcmLike},
                         {2, TimingBackend::GenericDdr}};
    dc.pcm_write_gap_cycles = 12;
  }
  return dc;
}

/// Drive a seeded workload and stop mid-flight, leaving requests in
/// crossbar and vault queues so the fixture exercises every record type.
void build_fixture_state(u32 version, Simulator& sim) {
  ASSERT_EQ(sim.init_simple(fixture_device(version)), Status::Ok);
  if (version >= 8) {
    // Freeze mid-campaign: some events already applied (the storm is open
    // when the fixture snapshots), one far-future event still pending, so
    // the CHAO cursor sits strictly inside the plan.
    const char* kPlan =
        "at 10 link_error_ppm 3000\n"
        "at 30 dram_sbe_ppm 9000\n"
        "storm 40 50000\n"
        "  wedge 1\n"
        "  host_timeout 500\n"
        "end\n"
        "at 100000 link_burst 4\n";
    ChaosPlanParseResult parsed = parse_chaos_plan_string(kPlan);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::string diag;
    ASSERT_EQ(sim.set_chaos_plan(std::move(parsed.plan), &diag), Status::Ok)
        << diag;
  }
  GeneratorConfig gc;
  // Confine traffic to a 256 KiB window: the low-interleave map still
  // spreads it across every vault and bank, but the resident-page count is
  // bounded so the committed fixtures stay small.
  gc.capacity_bytes =
      std::min<u64>(sim.config().device.derived_capacity(), u64{1} << 18);
  gc.seed = 20240 + version;
  RandomAccessGenerator gen(gc);
  DriverConfig dcfg;
  dcfg.total_requests = 2000;
  dcfg.max_cycles = 100000;
  HostDriver driver(sim, gen, dcfg);
  DriverResult r;
  for (int steps = 0; steps < 120 && driver.step(r); ++steps) {
  }
  ASSERT_FALSE(sim.quiescent())
      << "fixture must snapshot a busy machine, not a drained one";
}

void regenerate_fixture(u32 version) {
  Simulator sim;
  build_fixture_state(version, sim);
  std::ofstream out(fixture_path(version), std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << fixture_path(version)
                   << " (does tests/golden/checkpoints/ exist?)";
  if (version >= 6) {
    ASSERT_EQ(sim.save_checkpoint(out), Status::Ok);
  } else {
    write_legacy_checkpoint(sim, version, out);
    ASSERT_TRUE(out);
  }
}

std::string read_fixture(u32 version) {
  std::ifstream in(fixture_path(version), std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << fixture_path(version)
                  << "; regenerate with HMCSIM_UPDATE_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Defined first in the suite so regeneration happens before the restore
// tests read the files back.
TEST(CheckpointCompat, RegenerateFixtures) {
  if (std::getenv("HMCSIM_UPDATE_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set HMCSIM_UPDATE_GOLDEN=1 to rewrite fixtures";
  }
  // v6 and v7 are deliberately absent: save_checkpoint now writes v8, so
  // the committed v6/v7 fixtures are frozen — regenerating them would
  // silently turn them into v8 streams and lose the coverage.
  for (const u32 version : {2u, 3u, 4u, 5u, 8u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    regenerate_fixture(version);
  }
}

struct ReplayOutcome {
  Cycle start{0};
  Cycle end{0};
  u64 retired_delta{0};
  std::string checkpoint;
};

ReplayOutcome restore_and_replay(const std::string& bytes, bool fast_forward) {
  ReplayOutcome out;
  Simulator sim;
  // Pre-init with the desired execution strategy: restore replaces the
  // simulated config from the stream but keeps fast_forward.
  DeviceConfig dc = test::small_device();
  dc.fast_forward = fast_forward;
  EXPECT_EQ(sim.init_simple(dc), Status::Ok);
  std::istringstream is(bytes);
  EXPECT_EQ(sim.restore_checkpoint(is), Status::Ok);
  if (sim.now() == 0) return out;  // restore failed; EXPECTs already flagged
  out.start = sim.now();
  const u64 retired_before = sim.total_stats().retired();
  for (int i = 0; i < 1000; ++i) sim.clock();
  out.end = sim.now();
  out.retired_delta = sim.total_stats().retired() - retired_before;
  std::ostringstream ckpt;
  EXPECT_EQ(sim.save_checkpoint(ckpt), Status::Ok);
  out.checkpoint = std::move(ckpt).str();
  return out;
}

class CheckpointCompatVersions : public ::testing::TestWithParam<u32> {};

TEST_P(CheckpointCompatVersions, RestoresAndReplays1kCycles) {
  const u32 version = GetParam();
  const std::string bytes = read_fixture(version);
  ASSERT_FALSE(bytes.empty());

  const ReplayOutcome ref = restore_and_replay(bytes, false);
  ASSERT_GT(ref.start, 0u) << "fixture restored to cycle 0 — empty state?";
  EXPECT_EQ(ref.end, ref.start + 1000);
  // The fixture froze a busy machine: replay must retire the in-flight
  // work, proving the restored queues/banks/registers are coherent.
  EXPECT_GT(ref.retired_delta, 0u);
  ASSERT_FALSE(ref.checkpoint.empty());

  // Old-version restores must land in a state the *current* engine treats
  // as canonical: replays agree bit-for-bit with fast-forward on.
  const ReplayOutcome got = restore_and_replay(bytes, true);
  EXPECT_EQ(got.end, ref.end);
  EXPECT_EQ(got.retired_delta, ref.retired_delta);
  EXPECT_EQ(got.checkpoint, ref.checkpoint);
}

TEST_P(CheckpointCompatVersions, ResaveUpgradesToCurrentVersion) {
  const u32 version = GetParam();
  const std::string bytes = read_fixture(version);
  ASSERT_FALSE(bytes.empty());

  Simulator sim;
  std::istringstream is(bytes);
  ASSERT_EQ(sim.restore_checkpoint(is), Status::Ok);
  std::ostringstream resaved;
  ASSERT_EQ(sim.save_checkpoint(resaved), Status::Ok);
  const std::string upgraded = std::move(resaved).str();

  // The re-save is a current-version stream that round-trips exactly.
  Simulator again;
  std::istringstream is2(upgraded);
  ASSERT_EQ(again.restore_checkpoint(is2), Status::Ok);
  std::ostringstream resaved2;
  ASSERT_EQ(again.save_checkpoint(resaved2), Status::Ok);
  EXPECT_EQ(std::move(resaved2).str(), upgraded);

  if (version == 8) {
    // Same-version fixtures must survive restore→save byte-identically.
    EXPECT_EQ(upgraded, bytes);
  } else {
    EXPECT_NE(upgraded, bytes) << "legacy stream cannot equal a v8 stream";
  }
}

TEST(CheckpointCompat, UnknownVersionsStillRejected) {
  // Truncate-proofing: versions below 2 and above the current one fail
  // cleanly rather than misparsing fields at shifted offsets.
  const std::string bytes = read_fixture(4);
  ASSERT_GT(bytes.size(), 16u);
  for (const u64 bad_version : {0ull, 1ull, 9ull, 255ull}) {
    std::string mutated = bytes;
    for (int i = 0; i < 8; ++i) {
      mutated[8 + i] = static_cast<char>(bad_version >> (8 * i));
    }
    Simulator sim;
    std::istringstream is(mutated);
    EXPECT_EQ(sim.restore_checkpoint(is), Status::MalformedPacket)
        << "version " << bad_version;
  }
}

TEST(CheckpointCompat, OutOfRangeEnumWordsAreRejected) {
  // v5 streams carry no section CRC, so a damaged config word reaches the
  // decoder.  Words: magic, version, num_devices, then the CFG fields, of
  // which map_mode is the 7th, vault_schedule the 14th and row_policy the
  // 20th.  An enum word past its last enumerator must be refused rather
  // than restored as a value the engine never compares against.
  const std::string bytes = read_fixture(5);
  const struct {
    usize field;
    char bad;
    char good;
  } cases[] = {{6, 3, 2}, {13, 2, 1}, {19, 2, 1}};
  for (const auto& c : cases) {
    const usize at = 8 * (3 + c.field);
    ASSERT_LT(at, bytes.size());
    ASSERT_EQ(bytes[at], 0) << "fixture uses the first enumerator";
    std::string mutated = bytes;

    // The last enumerator restores, so the offset really is that field.
    mutated[at] = c.good;
    Simulator good;
    std::istringstream good_in(mutated);
    EXPECT_EQ(good.restore_checkpoint(good_in), Status::Ok) << c.field;

    mutated[at] = c.bad;
    Simulator bad;
    CheckpointError err;
    std::istringstream bad_in(mutated);
    EXPECT_NE(bad.restore_checkpoint(bad_in, &err, nullptr), Status::Ok)
        << c.field;
    EXPECT_EQ(err.code, CheckpointErrorCode::BadFieldValue) << c.field;
  }
}

TEST(CheckpointCompat, QueueDepthsPastTheCapAreRejected) {
  // CFG words 3 and 4 are xbar_depth and vault_depth.  A legacy stream has
  // no CRC to catch a damaged depth, and restore sizes every queue from it,
  // so validation must refuse the depth before init allocates.
  const std::string bytes = read_fixture(5);
  const struct {
    usize field;
    u64 depth;
  } cases[] = {{3, ~u64{0}},
               {3, DeviceConfig::kMaxQueueDepth + 1},
               {4, u64{1} << 40},
               {4, DeviceConfig::kMaxQueueDepth + 1}};
  for (const auto& c : cases) {
    const usize at = 8 * (3 + c.field);
    ASSERT_LE(at + 8, bytes.size());
    std::string mutated = bytes;
    for (usize b = 0; b < 8; ++b) {
      mutated[at + b] = static_cast<char>(c.depth >> (8 * b));
    }
    Simulator sim;
    CheckpointError err;
    std::istringstream in(mutated);
    EXPECT_EQ(sim.restore_checkpoint(in, &err, nullptr),
              Status::InvalidConfig)
        << c.field << " " << c.depth;
    EXPECT_EQ(err.code, CheckpointErrorCode::BadFieldValue) << c.field;
    EXPECT_NE(err.detail.find("queue depths must be at most"),
              std::string::npos)
        << err.detail;
  }
}

// ---- error contract ---------------------------------------------------------

struct Frame {
  u32 type;
  usize at;  // offset of the type word
  usize len;
  usize payload() const { return at + 24; }
};

u64 get_word(const std::string& bytes, usize at) {
  u64 v = 0;
  for (usize b = 0; b < 8; ++b) {
    v |= static_cast<u64>(static_cast<u8>(bytes[at + b])) << (8 * b);
  }
  return v;
}

void put_word(std::string& bytes, usize at, u64 v) {
  for (usize b = 0; b < 8; ++b) bytes[at + b] = static_cast<char>(v >> (8 * b));
}

/// The section frames of a framed (v6+) stream, in order, and the offset
/// of its trailer.
std::vector<Frame> frames_of(const std::string& bytes, usize* trailer_at) {
  std::vector<Frame> frames;
  usize at = 16;
  while (at + 8 <= bytes.size() && get_word(bytes, at) <= 0xffffffffull) {
    frames.push_back({static_cast<u32>(get_word(bytes, at)), at,
                      static_cast<usize>(get_word(bytes, at + 8))});
    at = frames.back().payload() + frames.back().len;
  }
  *trailer_at = at;
  return frames;
}

/// `bytes` with frame `f`'s payload replaced and its length and CRC fixed,
/// so the damage reaches the section decoder.
std::string with_payload(const std::string& bytes, const Frame& f,
                         const std::string& payload) {
  std::string out = bytes.substr(0, f.payload()) + payload +
                    bytes.substr(f.payload() + f.len);
  put_word(out, f.at + 8, payload.size());
  put_word(out, f.at + 16,
           crc::crc32k(std::span<const u8>(
               reinterpret_cast<const u8*>(payload.data()), payload.size())));
  return out;
}

struct ErrorCase {
  std::string name;
  std::string bytes;
  Status status;
  CheckpointErrorCode code;
  u32 section;
  u64 offset;
};

void expect_error(const ErrorCase& c) {
  Simulator sim;
  CheckpointError err;
  std::istringstream is(c.bytes);
  EXPECT_EQ(sim.restore_checkpoint(is, &err, nullptr), c.status) << c.name;
  EXPECT_EQ(err.code, c.code) << c.name << ": " << err.message();
  EXPECT_EQ(err.section, c.section) << c.name << ": " << err.message();
  EXPECT_EQ(err.offset, c.offset) << c.name << ": " << err.message();
}

TEST(CheckpointCompat, ErrorContract) {
  using Code = CheckpointErrorCode;
  constexpr Status kMalformed = Status::MalformedPacket;
  constexpr Status kInvalid = Status::InvalidConfig;
  const std::string v8 = read_fixture(8);
  usize trailer = 0;
  const std::vector<Frame> frames = frames_of(v8, &trailer);
  ASSERT_EQ(trailer + 8, v8.size());
  const u32 kOrder[] = {ckpt::kSectionConfig, ckpt::kSectionTopology,
                        ckpt::kSectionClock,  ckpt::kSectionDevice,
                        ckpt::kSectionWatchdog, ckpt::kSectionChaos};
  ASSERT_EQ(frames.size(), std::size(kOrder)) << "one device, no HOST";
  for (usize i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].type, kOrder[i]) << i;
  }

  std::string version9 = v8;
  put_word(version9, 8, 9);
  std::vector<ErrorCase> cases = {
      {"empty stream", "", kMalformed, Code::ShortRead, 0, 0},
      {"cut in magic", v8.substr(0, 5), kMalformed, Code::ShortRead, 0, 0},
      {"bad magic", "HMCSIMXX" + v8.substr(8), kMalformed, Code::BadMagic, 0,
       0},
      {"cut in version", v8.substr(0, 12), kMalformed, Code::ShortRead, 0, 8},
      {"version 9", version9, kMalformed, Code::UnsupportedVersion, 0, 8},
  };
  for (usize i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    const std::string name = ckpt::section_name(f.type);
    // The CHAO type word is read where a trailer may stand instead, so its
    // header faults are reported outside any section.
    const bool chao = f.type == ckpt::kSectionChaos;
    cases.push_back({name + " cut in type", v8.substr(0, f.at + 3), kMalformed,
                     chao ? Code::TrailerMissing : Code::ShortRead,
                     chao ? 0 : f.type, f.at});
    cases.push_back({name + " cut in length", v8.substr(0, f.at + 11),
                     kMalformed, Code::ShortRead, f.type, f.at + 8});
    cases.push_back({name + " cut in crc", v8.substr(0, f.at + 19),
                     kMalformed, Code::ShortRead, f.type, f.at + 16});
    const usize mid = f.payload() + f.len / 2;
    cases.push_back({name + " cut in payload", v8.substr(0, mid), kMalformed,
                     Code::ShortRead, f.type, mid});

    std::string flipped = v8;
    flipped[mid] ^= 0x01;
    cases.push_back({name + " flipped payload byte", flipped, kMalformed,
                     Code::SectionCrcMismatch, f.type, f.payload()});

    std::string swapped = v8;
    put_word(swapped, f.at, frames[(i + 1) % frames.size()].type);
    cases.push_back({name + " swapped type", swapped, kMalformed,
                     Code::BadSectionType, chao ? 0 : f.type, f.at});

    std::string long_len = v8;
    put_word(long_len, f.at + 8, ckpt::kMaxSectionBytes + 1);
    cases.push_back({name + " length over cap", long_len, kMalformed,
                     Code::SectionTooLarge, f.type, f.at + 8});

    std::string wide_crc = v8;
    put_word(wide_crc, f.at + 16, u64{1} << 32);
    cases.push_back({name + " crc word above 2^32", wide_crc, kInvalid,
                     Code::BadFieldValue, f.type, f.at + 16});
  }

  const Frame& cfg = frames[0];
  const Frame& topo = frames[1];
  const Frame& clk = frames[2];
  const Frame& wdog = frames[4];
  const Frame& chao = frames[5];
  const std::string cfg_payload = v8.substr(cfg.payload(), cfg.len);
  const std::string topo_payload = v8.substr(topo.payload(), topo.len);
  const std::string clk_payload = v8.substr(clk.payload(), clk.len);
  const std::string wdog_payload = v8.substr(wdog.payload(), wdog.len);

  cases.push_back({"v8 without CHAO",
                   v8.substr(0, chao.at) + v8.substr(trailer), kMalformed,
                   Code::BadSectionType, 0, chao.at});
  cases.push_back({"cut at trailer", v8.substr(0, trailer), kMalformed,
                   Code::TrailerMissing, 0, trailer});
  cases.push_back({"cut in trailer", v8.substr(0, trailer + 4), kMalformed,
                   Code::TrailerMissing, 0, trailer});
  cases.push_back({"replaced trailer", v8.substr(0, trailer) + "HMCSIMXX",
                   kMalformed, Code::TrailerMissing, 0, trailer});

  // Damage under a valid CRC reaches the section decoders.  A word read in
  // full and then rejected is a bad field; a payload that runs dry is a
  // short read at its end.
  std::string zero_devices = cfg_payload;
  put_word(zero_devices, 0, 0);
  cases.push_back({"CFG fails validate", with_payload(v8, cfg, zero_devices),
                   kInvalid, Code::BadFieldValue, cfg.type, cfg.payload()});
  std::string bad_kind = topo_payload;
  put_word(bad_kind, 16, 7);
  cases.push_back({"TOPO unknown endpoint kind",
                   with_payload(v8, topo, bad_kind), kInvalid,
                   Code::BadFieldValue, topo.type, topo.payload()});
  cases.push_back(
      {"TOPO payload runs dry",
       with_payload(v8, topo, topo_payload.substr(0, topo_payload.size() - 8)),
       kMalformed, Code::ShortRead, topo.type,
       topo.payload() + topo_payload.size() - 8});
  cases.push_back({"CLK trailing bytes",
                   with_payload(v8, clk, clk_payload + std::string(8, '\0')),
                   kInvalid, Code::BadFieldValue, clk.type, clk.payload() + 8});
  std::string fired_wide = wdog_payload;
  put_word(fired_wide, 0, 0x100);
  cases.push_back({"WDOG fired word out of range",
                   with_payload(v8, wdog, fired_wide), kInvalid,
                   Code::BadFieldValue, wdog.type, wdog.payload() + 8});
  // The plan CRC is checked after the payload is drained: a consistency
  // rejection of the whole section, not a short read at its end.
  std::string chao_payload = v8.substr(chao.payload(), chao.len);
  put_word(chao_payload, 0, get_word(chao_payload, 0) ^ 1);
  cases.push_back({"CHAO plan fails its own crc",
                   with_payload(v8, chao, chao_payload), kInvalid,
                   Code::BadFieldValue, chao.type, chao.payload()});

  for (const ErrorCase& c : cases) expect_error(c);

  // Unframed streams have no frame to point at: every failure reports
  // section 0, offset 0, except inside the version word.  A cut never
  // leaves a whole word behind to reject, so it is always a short read.
  for (const u32 version : {2u, 3u, 4u, 5u}) {
    const std::string legacy = read_fixture(version);
    for (usize n = 0; n < legacy.size(); n += n < 512 ? 7 : 997) {
      expect_error({"v" + std::to_string(version) + " cut at " +
                        std::to_string(n),
                    legacy.substr(0, n), kMalformed, Code::ShortRead, 0,
                    n >= 8 && n < 16 ? 8u : 0u});
    }
  }
}

TEST(CheckpointCompat, LegacyRejectedWordsAreBadFieldValues) {
  // Unframed streams follow the framed rule: a word that was read in full
  // and then rejected is a bad field value, not a short read.  Word
  // offsets into checkpoint_v5.bin: magic, version, num_devices, the CFG
  // rows v5 carries, TOPO, clock, then the device block's 46 v5 counters,
  // register values and flags, and the page count.
  const std::string v5 = read_fixture(5);
  const auto word = [&](usize w) { return get_word(v5, 8 * w); };
  usize topo = 3;
  for (const ConfigKnob& k : config_knobs()) {
    if (k.since != 0 && k.since <= 5) ++topo;
  }
  ASSERT_EQ(word(topo), 1u) << "one device";
  ASSERT_EQ(word(topo + 1), 4u) << "four links";
  const usize pages = topo + 2 + 3 * 4 + 1 + 46 + 2 * kRegCount;
  ASSERT_GT(word(pages), 0u);
  ASSERT_LT(word(pages + 1), u64{1} << 20) << "first page index";
  const usize watchdog = v5.size() / 8 - 3;
  ASSERT_EQ(word(watchdog), 0u) << "watchdog fired flag";

  const struct {
    const char* name;
    usize word;
    u64 value;
  } cases[] = {
      {"topology link count above 2^32", topo + 1, u64{1} << 32},
      {"unknown endpoint kind", topo + 2, 7},
      {"endpoint peer above 2^32", topo + 3, u64{1} << 32},
      // The byte address of this index wraps 2^64 to zero.
      {"page index past capacity", pages + 1, u64{1} << 52},
      {"watchdog fired word above 0xff", watchdog, 0x100},
  };
  for (const auto& c : cases) {
    std::string mutated = v5;
    put_word(mutated, 8 * c.word, c.value);
    expect_error({c.name, mutated, Status::InvalidConfig,
                  CheckpointErrorCode::BadFieldValue, 0, 0});
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, CheckpointCompatVersions,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hmcsim
