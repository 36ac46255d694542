// The internal software representation of one HMC device (paper §IV.A).
//
// The structure hierarchy deliberately mirrors the physical package:
//
//   Device
//     ├── links[]     (external SERDES links; each with crossbar queues)
//     ├── quads[]     (locality domains; quad i is closest to link i)
//     │     └── vaults[4]
//     │           ├── request / response queues (the vault controller)
//     │           └── banks[] -> DRAMs (bank state + backing storage)
//     ├── register file (RW / RO / RWS configuration & status registers)
//     └── sparse backing store for DRAM contents
//
// `Device` is a data holder owned and driven by `Simulator`; the sub-cycle
// stage logic lives there because stages 1, 2 and 5 move packets *between*
// devices.  Members are public by design — this is the C struct hierarchy
// of the original simulator, kept intact for traceability to the paper.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "backend/timing_backend.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "mem/address_map.hpp"
#include "mem/storage.hpp"
#include "packet/packet.hpp"
#include "queue/queue.hpp"
#include "reg/registers.hpp"
#include "trace/lifecycle.hpp"

namespace hmcsim {

struct CustomCommandDef;

/// A request packet in flight, decoded once at ingress.
struct RequestEntry {
  PacketBuffer pkt;
  RequestFields req;
  /// Non-null when req.cmd is a registered custom (CMC) command; points at
  /// the simulator's registration (resolved at ingress and after
  /// checkpoint restore).
  const CustomCommandDef* custom{nullptr};
  /// Earliest cycle any stage may act on this entry; every queue hop sets
  /// it to now+1 so a packet advances at most one stage per clock
  /// (paper §IV.C / Figure 3).
  Cycle ready_cycle{0};
  /// Host injection point, used to route the response back.
  u32 home_dev{0};
  u32 home_link{0};
  /// Link the packet entered the *current* device on.
  u32 ingress_link{0};
  /// The routed-latency penalty is paid (and traced) at most once.
  bool penalty_applied{false};
  /// Link-retry transmissions consumed by this packet (IRTRY protocol).
  u8 retries{0};
  /// Per-stage cycle stamps (lifecycle observability; see
  /// trace/lifecycle.hpp for the segment decomposition they feed).
  PacketLifecycle life{};
};

/// A response packet in flight.
struct ResponseEntry {
  PacketBuffer pkt;
  Cycle ready_cycle{0};
  u32 home_dev{0};
  u32 home_link{0};
  // Decoded essentials retained for tracing.
  Tag tag{0};
  Command cmd{Command::Null};
  /// Stamps inherited from the request at bank retire (life.retire != 0
  /// marks a response that actually traversed a vault; error and mode
  /// responses leave it zero and are excluded from lifecycle accounting).
  PacketLifecycle life{};
};

/// Link-layer reliability state for one link direction (HMC 1.0 retry /
/// token protocol; see core/link_layer.hpp).  Owned by the RECEIVING
/// device: the token pool models this device's input buffer, the tx_*
/// fields model the upstream transmitter's retry machinery.  Only used
/// when DeviceConfig::link_protocol is on; checkpoint v5 serializes it.
struct LinkProtoState {
  // Token flow control (FLIT credits of the input buffer).
  i64 tokens{0};           ///< credits the upstream transmitter holds
  u64 tokens_debited{0};   ///< lifetime FLITs debited on accept
  u64 tokens_returned{0};  ///< lifetime FLITs returned (TRET/piggyback)
  // Transmit retry buffer (upstream side), addressed by 8-bit FRP.
  u32 retry_buf_flits{0};  ///< FLITs awaiting RRP deallocation
  u8 tx_frp{0};            ///< next forward-retry-pointer slot
  u8 rx_rrp{0};            ///< last good FRP returned as RRP
  // 3-bit SEQ continuity.
  u8 tx_seq{0};            ///< next SEQ stamped on an accepted packet
  u8 rx_seq{0};            ///< next SEQ the receiver expects
  // Error-abort state machine.
  Cycle retrain_until{0};  ///< link blocked until this cycle (IRTRY exchange)
  bool replay_pending{false};  ///< a corrupted packet awaits replay
  RequestEntry replay;         ///< the transmitter's held copy
  u32 burst_remaining{0};  ///< forced failures left in the current burst
  u32 fail_count{0};       ///< retry exhaustions (toward link_fail_threshold)
  bool dead{false};        ///< escalated: all traffic answered LINK_FAILED
};

/// One external link and its crossbar arbitration queues.
struct LinkState {
  BoundedQueue<RequestEntry> rqst;  ///< host/peer -> vaults direction
  BoundedQueue<ResponseEntry> rsp;  ///< vaults -> host/peer direction
  /// Link-layer retry/token protocol state (quiescent unless
  /// DeviceConfig::link_protocol is on).
  LinkProtoState proto;
  /// FLITs the crossbar arbiter moved out of each queue (utilization
  /// accounting against the xbar_flits_per_cycle budget).
  u64 rqst_flits_forwarded{0};
  u64 rsp_flits_forwarded{0};
  /// Serialization budget accumulators: refilled by xbar_flits_per_cycle
  /// each clock (unused bandwidth does not bank beyond one cycle) and
  /// drawn down by forwarded packets.  A large packet may overdraw and
  /// then blocks the link until the debt is repaid — multi-cycle
  /// serialization of 2..9-FLIT packets.
  i64 rqst_budget{0};
  i64 rsp_budget{0};
};

/// Sentinel for "no row open" in VaultState::open_row.
inline constexpr u64 kNoOpenRow = ~u64{0};

/// The vault request queue's per-position side data (see queue/queue.hpp):
/// one tag byte per queued entry, in FIFO order, and the mask of banks
/// that have at least one entry queued.  Stages 3 and 4 decide from these
/// and load a 288-byte entry only when it can retire, be stamped or be
/// traced.  A tag holds the entry's bank and two facts about the entry
/// that only ever turn true while it is queued:
///   kReady    its ready_cycle has been seen at or below the clock (set
///             lazily by the stage that looked; the clock never runs back
///             while an entry is queued, and a restore rebuilds the queue);
///   kStamped  its life.first_conflict stamp is written (non-zero).
class BankTags {
 public:
  static constexpr u8 kBank = 0x1f;
  static constexpr u8 kReady = 0x40;
  static constexpr u8 kStamped = 0x80;

  BankTags() = default;
  BankTags(const AddressMap& map, usize depth) : map_(&map) {
    tags_.reserve(depth);
  }

  void push_back(const RequestEntry& e) {
    tags_.push_back(tag_of(e));
    count(tags_.back());
  }
  void push_front(const RequestEntry& e) {
    tags_.insert(tags_.begin(), tag_of(e));
    count(tags_.front());
  }
  void remove(usize i) {
    const u32 bank = tags_[i] & kBank;
    tags_.erase(tags_.begin() + static_cast<std::ptrdiff_t>(i));
    if (--queued_[bank] == 0) pending_ &= ~(1u << bank);
  }
  void clear() {
    tags_.clear();
    queued_.fill(0);
    pending_ = 0;
  }

  [[nodiscard]] usize size() const { return tags_.size(); }
  [[nodiscard]] u8 operator[](usize i) const { return tags_[i]; }
  /// Record kReady and/or kStamped for the entry at position `i`.
  void mark(usize i, u8 flags) { tags_[i] |= flags; }
  /// Banks with at least one queued entry.
  [[nodiscard]] u32 pending() const { return pending_; }

 private:
  [[nodiscard]] u8 tag_of(const RequestEntry& e) const {
    return static_cast<u8>(map_->bank_of(e.req.addr) |
                           (e.life.first_conflict != 0 ? kStamped : 0));
  }
  void count(u8 tag) {
    const u32 bank = tag & kBank;
    if (queued_[bank]++ == 0) pending_ |= 1u << bank;
  }

  const AddressMap* map_{nullptr};
  std::vector<u8> tags_;
  std::array<u16, kBank + 1> queued_{};  ///< entries queued per bank
  u32 pending_{0};
};

using VaultRequestQueue = BoundedQueue<RequestEntry, BankTags>;

/// One vault: controller queues plus per-bank timing state.
struct VaultState {
  VaultRequestQueue rqst;
  BoundedQueue<ResponseEntry> rsp;
  /// busy_until[bank] is the first cycle the bank is free again.
  std::vector<Cycle> bank_busy_until;
  /// Per-bank open row under RowPolicy::OpenPage (kNoOpenRow when closed).
  std::vector<u64> open_row;
  /// Deterministic DRAM fault-injection source for accesses retired by THIS
  /// vault (rather than the device-wide generator), so the fault pattern
  /// does not depend on the order vaults retire in.  Seeded from
  /// (fault_seed, device, vault); checkpointed.
  SplitMix64 dram_rng{0};
  /// Bank-timing backend (src/backend/): decides when banks accept
  /// commands and how long they stay busy.  Owns only backend-private
  /// state; the shared arrays above remain the source of truth for bank
  /// occupancy.
  std::unique_ptr<VaultTimingBackend> timing;

  /// Banks inside their busy window at `now`: exactly the banks gate()
  /// answers Busy for, under every backend.
  [[nodiscard]] u32 busy_banks(Cycle now) const {
    u32 busy = 0;
    for (usize b = 0; b < bank_busy_until.size(); ++b) {
      busy |= u32{bank_busy_until[b] > now} << b;
    }
    return busy;
  }
};

inline BankGate VaultTimingBackend::gate(const VaultState& vault, u32 bank,
                                         AccessClass access, Cycle now) const {
  if (vault.bank_busy_until[bank] > now) return BankGate::Busy;
  return class_gated_ ? class_gate(access, now) : BankGate::Ready;
}

/// Per-device RAS runtime state: the error log the 0x2E register block
/// exposes, vault degradation tracking, and the scrubber cursor.
struct RasState {
  /// Bit i set: vault i is failed (statically via failed_vault_mask or
  /// dynamically after vault_fail_threshold uncorrectable errors).
  u64 failed_vaults{0};
  /// Uncorrectable DRAM errors served by each vault (toward the threshold).
  std::vector<u32> vault_uncorrectable;
  /// Next byte address the background scrubber checks (wraps at capacity).
  u64 scrub_cursor{0};
  /// Completed full-capacity scrub sweeps.
  u64 scrub_passes{0};
  /// Most recent error-response cause (address + raw ErrStat), for the
  /// RAS_LAST_* registers.  Zero until the first error.
  u64 last_error_addr{0};
  u8 last_error_stat{0};
};

class Device {
 public:
  Device(u32 cube_id, const DeviceConfig& config);
  /// Immovable: the queues keep a pointer to queued_internal_.
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Reset queues, banks, registers and (optionally) memory contents to the
  /// power-on state.
  void reset(bool clear_memory = true);

  [[nodiscard]] u32 id() const { return id_; }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  /// Chaos campaigns retarget fault-rate knobs mid-run (chaos/engine.cpp);
  /// everyone else treats the configuration as immutable after construction.
  [[nodiscard]] DeviceConfig& mutable_config() { return config_; }
  [[nodiscard]] const AddressMap& address_map() const { return map_; }

  [[nodiscard]] u32 quad_of_vault(u32 vault) const {
    return vault / spec::kVaultsPerQuad;
  }
  /// Link i is physically closest to quad i (paper §III.A / §IV.A).
  [[nodiscard]] u32 quad_of_link(u32 link) const { return link; }

  // Structure hierarchy (public: see file comment).
  std::vector<LinkState> links;
  std::vector<VaultState> vaults;
  /// Staging queue for MODE_READ/MODE_WRITE responses generated at the
  /// crossbar (register accesses never traverse a vault).
  BoundedQueue<ResponseEntry> mode_rsp;
  RegisterFile regs;
  SparseStore store;
  DeviceStats stats;
  /// Deterministic fault-injection source (link error model).
  SplitMix64 fault_rng{0};
  RasState ras;

  /// True when vault `v` is serving traffic (not marked failed).
  [[nodiscard]] bool vault_alive(u32 v) const {
    return (ras.failed_vaults >> v & 1) == 0;
  }

  /// Entries in every link request queue, every vault queue and mode_rsp
  /// (the queues tally into it; see BoundedQueue::tally_into).  Zero means
  /// all of them are empty, which the fast-forward idle proof reads in
  /// place of a walk over every vault.
  [[nodiscard]] usize queued_internal() const { return queued_internal_; }

 private:
  usize queued_internal_{0};
  u32 id_;
  DeviceConfig config_;
  AddressMap map_;
};

}  // namespace hmcsim
