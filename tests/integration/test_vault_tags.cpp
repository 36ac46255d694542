// The vault request queues' bank tags and pending-bank masks
// (core/device.hpp, BankTags) must always agree with the entries queued.
//
// Stages 3 and 4 decide from the tags alone and load an entry only when
// its bank can change, so a tag that drifts from its entry would silently
// change which packets retire.  Each test recomputes every vault's tags
// and mask from the queued entries, through each way a vault queue is
// filled or emptied: live traffic under every backend and schedule,
// Device::reset, checkpoint restore of the v2–v8 fixtures, the failed-vault
// drain, and entries an embedder pushes straight into a vault queue.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "tests/core/helpers.hpp"
#include "workload/driver.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim {
namespace {

/// Recompute one vault's tags from its entries: bank from the address,
/// kStamped iff the first_conflict stamp is written, and kReady only for
/// an entry whose ready_cycle has been reached (the bit is a cached fact,
/// set by whichever stage first sees it, so a clear bit proves nothing).
::testing::AssertionResult vault_consistent(const Device& dev, u32 v,
                                            Cycle now) {
  const VaultState& vault = dev.vaults[v];
  const BankTags& tags = vault.rqst.tags();
  if (tags.size() != vault.rqst.size()) {
    return ::testing::AssertionFailure()
           << "vault " << v << ": " << tags.size() << " tags for "
           << vault.rqst.size() << " entries";
  }
  constexpr u8 kKnown =
      BankTags::kBank | BankTags::kReady | BankTags::kStamped;
  u32 pending = 0;
  for (usize i = 0; i < vault.rqst.size(); ++i) {
    const RequestEntry& e = vault.rqst.at(i);
    const u32 bank = dev.address_map().bank_of(e.req.addr);
    const u8 tag = tags[i];
    pending |= 1u << bank;
    const bool stamped = (tag & BankTags::kStamped) != 0;
    if ((tag & BankTags::kBank) != bank || (tag & ~kKnown) != 0 ||
        stamped != (e.life.first_conflict != 0) ||
        ((tag & BankTags::kReady) != 0 && e.ready_cycle > now)) {
      return ::testing::AssertionFailure()
             << "vault " << v << " position " << i << ": tag 0x" << std::hex
             << u32{tag} << std::dec << " for bank " << bank
             << ", first_conflict " << e.life.first_conflict
             << ", ready_cycle " << e.ready_cycle << " at cycle " << now;
    }
  }
  if (pending != tags.pending()) {
    return ::testing::AssertionFailure()
           << "vault " << v << ": pending mask 0x" << std::hex
           << tags.pending() << ", entries give 0x" << pending;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult tags_consistent(const Simulator& sim) {
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    const Device& dev = sim.device(d);
    for (u32 v = 0; v < dev.vaults.size(); ++v) {
      auto r = vault_consistent(dev, v, sim.now());
      if (!r) return r << " (device " << d << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

usize queued_in_vaults(const Simulator& sim) {
  usize n = 0;
  for (u32 d = 0; d < sim.num_devices(); ++d) {
    for (const VaultState& vault : sim.device(d).vaults) n += vault.rqst.size();
  }
  return n;
}

DeviceConfig busy_device() {
  DeviceConfig dc = test::small_device();
  dc.vault_depth = 16;
  dc.bank_busy_cycles = 8;
  return dc;
}

struct Traffic {
  Simulator sim;
  std::unique_ptr<RandomAccessGenerator> gen;
  std::unique_ptr<HostDriver> driver;
  DriverResult result;

  explicit Traffic(const DeviceConfig& dc, u64 requests = 1500) {
    std::string diag;
    EXPECT_EQ(sim.init_simple(dc, &diag), Status::Ok) << diag;
    GeneratorConfig gc;
    gc.capacity_bytes = sim.config().device.derived_capacity();
    gc.seed = 99;
    gen = std::make_unique<RandomAccessGenerator>(gc);
    restart(requests);
  }
  /// A fresh host driver over the same simulator.
  void restart(u64 requests) {
    DriverConfig dcfg;
    dcfg.total_requests = requests;
    dcfg.max_cycles = 100000;
    driver = std::make_unique<HostDriver>(sim, *gen, dcfg);
    result = DriverResult{};
  }
  bool step() { return driver->step(result); }
};

TEST(VaultBankTags, TrackLiveTrafficEveryCycle) {
  for (const TimingBackend backend :
       {TimingBackend::HmcDram, TimingBackend::GenericDdr,
        TimingBackend::PcmLike}) {
    for (const VaultSchedule schedule :
         {VaultSchedule::BankReady, VaultSchedule::StrictFifo}) {
      SCOPED_TRACE(std::string(to_string(backend)) +
                   (schedule == VaultSchedule::StrictFifo ? " strict"
                                                          : " bank_ready"));
      DeviceConfig dc = busy_device();
      dc.timing_backend = backend;
      dc.vault_schedule = schedule;
      dc.pcm_write_gap_cycles = 6;
      dc.refresh_interval_cycles = 128;
      dc.refresh_busy_cycles = 4;
      Traffic t(dc);
      usize peak = 0;
      while (t.step()) {
        ASSERT_TRUE(tags_consistent(t.sim));
        peak = std::max(peak, queued_in_vaults(t.sim));
      }
      EXPECT_GT(peak, 64u) << "the vault queues never filled";
      EXPECT_GT(t.sim.stats(0).bank_conflicts, 0u);
    }
  }
}

TEST(VaultBankTags, DeviceResetClearsThem) {
  Traffic t(busy_device());
  while (t.step() && queued_in_vaults(t.sim) < 64) {}
  ASSERT_GE(queued_in_vaults(t.sim), 64u);
  t.sim.device(0).reset();
  for (const VaultState& vault : t.sim.device(0).vaults) {
    EXPECT_EQ(vault.rqst.tags().size(), 0u);
    EXPECT_EQ(vault.rqst.tags().pending(), 0u);
  }
  EXPECT_TRUE(tags_consistent(t.sim));
  // The reset queues fill again under the same tags.
  t.restart(600);
  while (t.step()) ASSERT_TRUE(tags_consistent(t.sim));
  EXPECT_EQ(t.result.completed, 600u);
}

TEST(VaultBankTags, CheckpointFixturesRestoreConsistent) {
  usize restored_entries = 0;
  for (u32 version = 2; version <= 8; ++version) {
    SCOPED_TRACE("checkpoint_v" + std::to_string(version));
    std::ifstream in(std::string(HMCSIM_GOLDEN_DIR) +
                         "/checkpoints/checkpoint_v" +
                         std::to_string(version) + ".bin",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream bytes;
    bytes << in.rdbuf();
    Simulator sim;
    ASSERT_EQ(sim.init_simple(test::small_device()), Status::Ok);
    ASSERT_EQ(sim.restore_checkpoint(bytes), Status::Ok);
    restored_entries += queued_in_vaults(sim);
    ASSERT_TRUE(tags_consistent(sim));
    for (int i = 0; i < 200; ++i) {
      sim.clock();
      ASSERT_TRUE(tags_consistent(sim));
    }
  }
  EXPECT_GT(restored_entries, 0u) << "no fixture had a queued vault entry";
}

TEST(VaultBankTags, FailedVaultDrainKeepsThem) {
  Traffic t(busy_device());
  while (t.step() && queued_in_vaults(t.sim) < 96) {}
  Device& dev = t.sim.device(0);
  u32 fullest = 0;
  for (u32 v = 1; v < dev.vaults.size(); ++v) {
    if (dev.vaults[v].rqst.size() > dev.vaults[fullest].rqst.size()) {
      fullest = v;
    }
  }
  ASSERT_GT(dev.vaults[fullest].rqst.size(), 1u);
  dev.ras.failed_vaults |= u64{1} << fullest;
  while (t.step()) ASSERT_TRUE(tags_consistent(t.sim));
  EXPECT_TRUE(dev.vaults[fullest].rqst.empty());
  EXPECT_GT(dev.stats.degraded_drops, 0u);
}

TEST(VaultBankTags, DirectPushesKeepThem) {
  // Entries pushed straight into a vault queue, out of ready order (later
  // entries ready sooner, as a restored checkpoint can leave them) and
  // some already stamped, must be tagged on the push and retire.
  Simulator sim = test::make_simple_sim(busy_device());
  Device& dev = sim.device(0);
  const u32 vault = 3;
  const u32 banks = dev.config().banks_per_vault;
  u32 pushed = 0;
  for (u32 k = 0; k < 12; ++k) {
    DecodedAddr at;
    at.vault = VaultId{vault};
    at.bank = BankId{(k * 5) % banks};
    at.row = k;
    PhysAddr addr = 0;
    ASSERT_EQ(dev.address_map().encode(at, addr), Status::Ok);
    RequestEntry entry;
    ASSERT_EQ(build_memrequest(0, addr, static_cast<Tag>(k), Command::Rd16,
                               0, {}, entry.pkt),
              Status::Ok);
    ASSERT_EQ(decode_request(entry.pkt, entry.req), Status::Ok);
    entry.ready_cycle = sim.now() + 12 - k;
    entry.life.inject = sim.now();
    if (k % 3 == 0) entry.life.first_conflict = 1;
    ASSERT_TRUE(dev.vaults[vault].rqst.push(entry));
    ++pushed;
  }
  ASSERT_TRUE(tags_consistent(sim));
  EXPECT_NE(dev.vaults[vault].rqst.tags().pending(), 0u);
  u32 answered = 0;
  for (int i = 0; i < 200 && answered < pushed; ++i) {
    PacketBuffer pkt;
    while (ok(sim.recv(0, 0, pkt))) ++answered;
    sim.clock();
    ASSERT_TRUE(tags_consistent(sim));
  }
  EXPECT_EQ(answered, pushed);
  EXPECT_EQ(dev.vaults[vault].rqst.tags().pending(), 0u);
}

}  // namespace
}  // namespace hmcsim
