// Sparse backing store for simulated DRAM contents.
//
// An 8 GB device cannot be eagerly allocated on a development host, and the
// paper's random-access workloads touch only a fraction of the address
// space.  `SparseStore` allocates 4 KiB pages on first write; reads of
// never-written memory return zeros (matching a device reset state).
//
// The store is indexed by the device-local 34-bit physical address.  The
// vault pipeline performs all accesses in 16-byte blocks (the HMC vault
// controller's block granularity), but arbitrary byte spans are supported
// for host-side convenience and tests.
//
// The page table has two levels: a directory of leaves, each leaf holding
// kLeafPages page pointers (2 MiB of address space).  Leaves are allocated
// on first write, and the directory grows only to the highest leaf written,
// so setup and teardown cost nothing for untouched memory.  Iterating the
// directory in order visits pages in ascending index order, which
// checkpointing relies on.
//
// DRAM fault domain: faults are planted per 64-bit word as real bit flips in
// the stored data plus a sidecar record of the ground-truth flip masks.  The
// sidecar lets discovery (a demand read or the background scrubber) rebuild
// the word's SECDED check byte and run a genuine syndrome decode — a
// "corrected" SBE is an actual codec repair, an uncorrectable DBE an actual
// detection, not a counter bump.  Writes overwrite faults (fresh data means
// fresh check bits).  The hot-path "any faults at all?" gate is the size of
// the sidecar map — with no faults planted every fault hook is a single
// load, so the RAS-off cost stays ~0.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hmcsim {

class SparseStore {
 public:
  static constexpr usize kPageBytes = 4096;
  /// Pages per page-table leaf.
  static constexpr usize kLeafPages = 512;

  /// Result of running the SECDED codec over a span's fault records.
  struct FaultSummary {
    u32 corrected = 0;      ///< single-bit errors repaired in place
    u32 uncorrectable = 0;  ///< double-bit (or worse) errors detected
  };

  explicit SparseStore(u64 capacity_bytes) : capacity_(capacity_bytes) {}

  SparseStore(const SparseStore&) = delete;
  SparseStore& operator=(const SparseStore&) = delete;

  [[nodiscard]] u64 capacity() const { return capacity_; }

  /// Number of pages currently materialized (observability / tests).
  [[nodiscard]] usize resident_pages() const { return resident_; }

  /// Read `out.size()` bytes at `addr`.  Returns false when the range
  /// exceeds capacity.  Unwritten bytes read as zero.
  bool read(u64 addr, std::span<u8> out) const;

  /// Write `in.size()` bytes at `addr`.  Returns false when out of range.
  /// Any fault records overlapping the written words are cleared first
  /// (their planted flips are backed out, then the new data lands).
  bool write(u64 addr, std::span<const u8> in);

  /// 64-bit word helpers used by the vault pipeline (little-endian).
  bool read_words(u64 addr, std::span<u64> out) const;
  bool write_words(u64 addr, std::span<const u64> in);

  /// Reset to the zero-filled state, releasing all pages and faults.
  void clear() {
    leaves_.clear();
    resident_ = 0;
    faults_.clear();
  }

  // --- DRAM fault domain ----------------------------------------------

  /// Flip the given codeword bit positions of the 64-bit word containing
  /// `addr`.  Positions 0..63 flip stored data bits; 64..71 flip the word's
  /// (virtual) SECDED check bits.  Flipping the same position twice cancels.
  /// Returns false when `addr` is out of range.
  bool plant_fault(u64 addr, std::span<const u32> codeword_bits);

  /// Run the SECDED codec over every faulted word overlapping
  /// [addr, addr+bytes).  Corrected words are repaired in the store and
  /// their records erased; uncorrectable words stay poisoned so subsequent
  /// reads keep failing until overwritten.
  FaultSummary check_and_repair(u64 addr, usize bytes);

  /// Scrubber variant of check_and_repair: uncorrectable words are also
  /// rebuilt from the ground-truth masks and their records dropped,
  /// modeling page retirement + rebuild after the scrubber reports them.
  FaultSummary scrub_span(u64 addr, u64 bytes);

  /// Outstanding (undiscovered or poisoned) fault records.
  [[nodiscard]] usize fault_count() const { return faults_.size(); }

  /// True when any fault record overlaps [addr, addr+bytes).
  [[nodiscard]] bool has_fault(u64 addr, usize bytes) const;

  /// Visit every fault record in ascending word order (checkpointing).
  template <typename Fn>  // Fn(u64 word_index, u64 data_flips, u8 check_flips)
  void for_each_fault(Fn&& fn) const {
    for (const auto& [word, rec] : faults_) {
      fn(word, rec.data_flips, rec.check_flips);
    }
  }

  /// Re-create one fault record verbatim (checkpoint restore; the flipped
  /// data bits are already present in the restored pages).  Returns false
  /// when the word lies beyond capacity or both masks are zero.
  bool restore_fault(u64 word_index, u64 data_flips, u8 check_flips);

  /// Visit every materialized page in ascending index order (for
  /// checkpointing).  Pages are kPageBytes long.
  template <typename Fn>  // Fn(u64 page_index, std::span<const u8> bytes)
  void for_each_page(Fn&& fn) const {
    for (usize l = 0; l < leaves_.size(); ++l) {
      if (!leaves_[l]) continue;
      for (usize i = 0; i < kLeafPages; ++i) {
        if (const Page* page = (*leaves_[l])[i].get()) {
          fn(u64{l} * kLeafPages + i,
             std::span<const u8>(page->data(), kPageBytes));
        }
      }
    }
  }

  /// Materialize one page with exact contents (for checkpoint restore).
  /// Returns false when the page lies beyond capacity or the span is not
  /// kPageBytes long.
  bool restore_page(u64 page_index, std::span<const u8> bytes);

 private:
  using Page = std::array<u8, kPageBytes>;
  using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

  struct FaultRecord {
    u64 data_flips = 0;  ///< xor mask currently applied to the stored word
    u8 check_flips = 0;  ///< xor mask applied to the virtual check byte
  };
  // Ordered so scrub windows and checkpoints walk words deterministically.
  using FaultMap = std::map<u64, FaultRecord>;

  [[nodiscard]] const Page* find_page(u64 page_index) const;
  Page& materialize_page(u64 page_index);

  /// Raw aligned-word access that bypasses the fault hooks.
  [[nodiscard]] u64 load_word(u64 word_index) const;
  void store_word(u64 word_index, u64 value);

  /// Decode one record; repairs/erases per the rules above.  Returns the
  /// iterator past the (possibly erased) record.
  FaultMap::iterator decode_record(FaultMap::iterator it, FaultSummary& out,
                                   bool retire_uncorrectable);

  /// Back planted flips out of words overlapping [addr, addr+bytes) and
  /// drop their records (a write is about to supersede them).
  void clear_faults_in(u64 addr, usize bytes);

  u64 capacity_;
  /// Page directory: leaf l holds pages l*kLeafPages.., or is null when
  /// none of them was ever written.
  std::vector<std::unique_ptr<Leaf>> leaves_;
  usize resident_{0};
  FaultMap faults_;
};

}  // namespace hmcsim
