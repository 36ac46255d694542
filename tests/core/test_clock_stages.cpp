// Tests pinning the six-stage sub-cycle clock model (paper §IV.C, Figure 3):
// packets advance at most one internal stage per clock, internal state only
// moves on clock(), and the clock value updates in stage 6.
#include <gtest/gtest.h>

#include "tests/core/helpers.hpp"

namespace hmcsim {
namespace {

using test::make_simple_sim;
using test::send_request;
using test::small_device;

TEST(ClockStages, ClockAdvancesByExactlyOne) {
  Simulator sim = make_simple_sim();
  for (Cycle c = 0; c < 10; ++c) {
    EXPECT_EQ(sim.now(), c);
    sim.clock();
  }
}

TEST(ClockStages, EntryPushedThroughDeviceStopsTheFastForward) {
  // The idle fast path re-proves emptiness on every clock, so an entry an
  // embedder pushes straight into a queue (no send(), so nothing disarms
  // the skip) must still run staged from the next clock on.
  Simulator sim = make_simple_sim();
  for (int i = 0; i < 8; ++i) sim.clock();
  ASSERT_GT(sim.cycles_skipped(), 0u);
  const u64 data[2] = {7, 8};
  RequestEntry entry;
  ASSERT_EQ(build_memrequest(0, 0x40, 5, Command::Wr16, 0, data, entry.pkt),
            Status::Ok);
  ASSERT_EQ(decode_request(entry.pkt, entry.req), Status::Ok);
  entry.ready_cycle = sim.now() + 1;
  ASSERT_TRUE(sim.device(0).links[0].rqst.push(entry));
  const u64 skipped = sim.cycles_skipped();
  sim.clock();
  EXPECT_EQ(sim.cycles_skipped(), skipped);
  const auto rsp = test::await_response(sim, 0, 0);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->tag, 5u);
  EXPECT_EQ(rsp->cmd, Command::WriteResponse);
}

TEST(ClockStages, NothingMovesWithoutClock) {
  // "Internal device operations will not progress until an appropriate call
  // to the clock function" (§IV.C).
  Simulator sim = make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, 1), Status::Ok);
  PacketBuffer pkt;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);
  }
  EXPECT_EQ(sim.stats(0).reads, 0u);
  EXPECT_FALSE(sim.quiescent());  // the request sits in the crossbar queue
}

TEST(ClockStages, PacketCannotReachBankInOneCycle) {
  // The request must traverse: crossbar queue -> vault queue -> bank, one
  // stage per clock minimum; the response path adds more.  A read response
  // therefore cannot appear before cycle 4.
  Simulator sim = make_simple_sim();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, 1), Status::Ok);

  sim.clock();  // cycle 0: request becomes visible to crossbar next cycle
  EXPECT_EQ(sim.stats(0).reads, 0u);
  PacketBuffer pkt;
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);

  sim.clock();  // cycle 1: crossbar forwards to the vault queue
  EXPECT_EQ(sim.stats(0).reads, 0u);
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);

  sim.clock();  // cycle 2: vault retires the read, response queued
  EXPECT_EQ(sim.stats(0).reads, 1u);
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::NoResponse);

  sim.clock();  // cycle 3: response registered with the crossbar; the
                // host sees it at the leading edge of cycle 4.
  EXPECT_EQ(sim.recv(0, 0, pkt), Status::Ok);
}

TEST(ClockStages, MinimumLatencyIsStable) {
  // The pipeline depth must not depend on *when* the request is injected.
  Simulator sim = make_simple_sim();
  for (int warmup = 0; warmup < 3; ++warmup) sim.clock();
  const Cycle start = sim.now();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0x40, 2), Status::Ok);
  auto rsp = test::await_response(sim, 0, 0);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(sim.now() - start, 4u);
}

TEST(ClockStages, NonLocalQuadRequestIsSlower) {
  // A request entering link 0 for a vault in quad 3 pays the routed-latency
  // penalty (paper: "higher latencies are detected due to the physical
  // locality of the queue versus the destination vault").
  DeviceConfig dc = test::small_device();
  dc.nonlocal_penalty_cycles = 3;
  Simulator sim = make_simple_sim(dc);
  const AddressMap& map = sim.device(0).address_map();

  // Find addresses local (vault 0, quad 0) and remote (vault 12, quad 3)
  // relative to link 0.
  PhysAddr local = 0, remote = 0;
  for (PhysAddr a = 0; a < (1 << 16); a += 16) {
    if (map.vault_of(a) == 0) local = a;
    if (map.vault_of(a) == 12) remote = a;
  }
  ASSERT_EQ(map.vault_of(local) / 4, 0u);
  ASSERT_EQ(map.vault_of(remote) / 4, 3u);

  Cycle t0 = sim.now();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, local, 1), Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
  const Cycle local_latency = sim.now() - t0;

  t0 = sim.now();
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, remote, 2), Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 0).has_value());
  const Cycle remote_latency = sim.now() - t0;

  EXPECT_GT(remote_latency, local_latency);
  EXPECT_EQ(sim.stats(0).latency_penalties, 1u);
}

TEST(ClockStages, LocalQuadPaysNoPenalty) {
  Simulator sim = make_simple_sim();
  const AddressMap& map = sim.device(0).address_map();
  // Address in vault 4 (quad 1) injected on link 1: co-located.
  PhysAddr addr = 0;
  for (PhysAddr a = 0; a < (1 << 16); a += 16) {
    if (map.vault_of(a) == 4) {
      addr = a;
      break;
    }
  }
  ASSERT_EQ(send_request(sim, 0, 1, Command::Rd16, addr, 1), Status::Ok);
  ASSERT_TRUE(test::await_response(sim, 0, 1).has_value());
  EXPECT_EQ(sim.stats(0).latency_penalties, 0u);
}

TEST(ClockStages, BankBusyDelaysBackToBackSameBank) {
  DeviceConfig dc = small_device();
  dc.bank_busy_cycles = 10;
  Simulator sim = make_simple_sim(dc);

  // Two reads to the same bank (same address): the second must wait out the
  // bank busy window.
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, 1), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, 0, 2), Status::Ok);

  const Cycle start = sim.now();
  auto first = test::await_response(sim, 0, 0);
  ASSERT_TRUE(first.has_value());
  const Cycle first_at = sim.now() - start;
  auto second = test::await_response(sim, 0, 0);
  ASSERT_TRUE(second.has_value());
  const Cycle second_at = sim.now() - start;
  EXPECT_GE(second_at - first_at, 9u);  // ~bank_busy_cycles apart
  EXPECT_GT(sim.stats(0).bank_conflicts, 0u);
}

TEST(ClockStages, DistinctBanksRetireSameCycle) {
  // Two reads to different banks of one vault retire in the same stage-4
  // pass ("processed in equivalent and constant time as long as their bank
  // addressing does not conflict").
  Simulator sim = make_simple_sim();
  const AddressMap& map = sim.device(0).address_map();
  // Same vault, banks 0 and 1.
  PhysAddr bank0 = kNoCoord, bank1 = kNoCoord;
  for (PhysAddr a = 0; a < (1 << 20); a += 16) {
    if (map.vault_of(a) != 0) continue;
    if (map.bank_of(a) == 0 && bank0 == kNoCoord) bank0 = a;
    if (map.bank_of(a) == 1 && bank1 == kNoCoord) bank1 = a;
  }
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, bank0, 1), Status::Ok);
  ASSERT_EQ(send_request(sim, 0, 0, Command::Rd16, bank1, 2), Status::Ok);
  for (int i = 0; i < 3; ++i) sim.clock();
  EXPECT_EQ(sim.stats(0).reads, 2u);  // both retired by cycle 2
  EXPECT_EQ(sim.stats(0).bank_conflicts, 0u);
}

TEST(ClockStages, RwsRegistersClearAtStageSix) {
  Simulator sim = make_simple_sim();
  // JTAG writes are out-of-band: the RWS value is visible until the next
  // clock edge, then self-clears.
  ASSERT_EQ(sim.jtag_reg_write(0, phys_from_reg(Reg::Edr0), 0x77),
            Status::Ok);
  u64 v = 0;
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Edr0), v), Status::Ok);
  EXPECT_EQ(v, 0x77u);
  sim.clock();
  ASSERT_EQ(sim.jtag_reg_read(0, phys_from_reg(Reg::Edr0), v), Status::Ok);
  EXPECT_EQ(v, 0u);
}

}  // namespace
}  // namespace hmcsim
