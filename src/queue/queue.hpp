// The uniform queue structure shared by every queuing point in the device
// hierarchy (paper §IV.A, "Queue Structure").
//
// A physical HMC implementation registers packets in queue slots, each with
// a valid designator and storage for the largest 9-FLIT packet.  The
// crossbar and vault queue depths are chosen by the user at initialization
// time (paper §IV requirement 3, "Flexible Queuing").
//
// `BoundedQueue<Entry>` models one such queue: a fixed-capacity FIFO whose
// entries can also be *removed from the middle*, because the HMC weak
// ordering model allows selected packets to pass others (packets destined
// for ancillary devices may pass those waiting for local vault access, and
// vaults may retire non-head packets whose banks are free — §III.C).
//
// Layout follows the paper's slot model: entries live in a slab of slots
// reserved once at the configured depth, and a separate array of 4-byte
// slot indices holds the FIFO order (a slot is valid exactly while its index
// is in that array).  A middle removal therefore shifts indices, not
// entries, which matters because the crossbar queues sit near full at
// depth 128 and a request entry is ~300 bytes.  A free slot is reused
// last-in first-out; which slot an entry occupies never affects the FIFO
// order, so it cannot affect simulation results.
//
// A queue may also keep compact side data per FIFO position (the `Tags`
// parameter), updated by the queue itself on every push and removal so no
// caller can forget it: the vault request queues keep each entry's bank
// there (core/device.hpp, BankTags), so the vault stages decide without
// loading entries.  The default, NoTags, keeps nothing and costs nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hmcsim {

/// Occupancy statistics every queue keeps; exposed through the trace layer.
struct QueueStats {
  u64 total_pushes{0};
  u64 total_pops{0};
  u64 rejected_full{0};  ///< push attempts refused because the queue was full
  usize high_water{0};   ///< maximum simultaneous occupancy observed
};

/// Per-position side data that keeps none (see the file comment).
struct NoTags {
  template <typename Entry>
  void push_back(const Entry& /*e*/) {}
  template <typename Entry>
  void push_front(const Entry& /*e*/) {}
  void remove(usize /*i*/) {}
  void clear() {}
};

template <typename Entry, typename Tags = NoTags>
class BoundedQueue {
  /// FIFO-order iterator over the valid slots (oldest first); enough for
  /// range-for.
  template <bool Const>
  class Iter {
    using Slab = std::conditional_t<Const, const std::vector<Entry>,
                                    std::vector<Entry>>;

   public:
    Iter(Slab* slots, const u32* pos) : slots_(slots), pos_(pos) {}

    auto& operator*() const { return (*slots_)[*pos_]; }
    Iter& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const Iter& o) const { return pos_ == o.pos_; }

   private:
    Slab* slots_;
    const u32* pos_;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  BoundedQueue() = default;
  explicit BoundedQueue(usize capacity, Tags tags = {})
      : capacity_(capacity), tags_(std::move(tags)) {
    slots_.reserve(capacity);
    free_.reserve(capacity);
    order_.reserve(capacity);
  }

  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }
  [[nodiscard]] bool full() const { return order_.size() >= capacity_; }
  [[nodiscard]] usize free_slots() const {
    // Saturating: push_front can transiently overfill (bounced forwards).
    return order_.size() >= capacity_ ? 0 : capacity_ - order_.size();
  }

  /// Append at the FIFO back.  Returns false (and counts a rejection) when
  /// every slot is valid — the caller turns this into a stall signal.  The
  /// entry is copied or moved only when it is taken, so a refused rvalue
  /// is left intact.
  bool push(const Entry& e) { return push_back_slot(e); }
  bool push(Entry&& e) { return push_back_slot(std::move(e)); }

  /// Reinstate an entry at the FIFO head, bypassing the capacity check.
  /// Used only to bounce an optimistically removed entry back (the
  /// crossbar's two-phase cross-device forward when the destination filled
  /// up in the meantime); the queue may transiently exceed its capacity
  /// until the entry moves on, during which free_slots() saturates at zero
  /// and the slab grows by a slot if none is free.
  void push_front(Entry e) {
    const u32 slot = take_slot(std::move(e));
    order_.insert(order_.begin(), slot);
    tags_.push_front(slots_[slot]);
    if (tally_ != nullptr) ++*tally_;
    stats_.high_water = std::max(stats_.high_water, order_.size());
  }

  /// FIFO-ordered access; index 0 is the oldest entry.
  [[nodiscard]] Entry& at(usize i) {
    assert(i < order_.size());
    return slots_[order_[i]];
  }
  [[nodiscard]] const Entry& at(usize i) const {
    assert(i < order_.size());
    return slots_[order_[i]];
  }

  [[nodiscard]] Entry& front() { return at(0); }
  [[nodiscard]] Entry& back() {
    assert(!order_.empty());
    return slots_[order_.back()];
  }

  /// Remove the entry at FIFO position `i` (0 == head).  Preserves the
  /// relative order of everything else, which is what keeps the
  /// link-to-bank stream ordering intact when non-head entries retire.
  /// The entry itself is not touched: its slot is simply freed.
  void remove(usize i) {
    assert(i < order_.size());
    free_.push_back(order_[i]);
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
    tags_.remove(i);
    if (tally_ != nullptr) --*tally_;
    ++stats_.total_pops;
  }

  void pop_front() { remove(0); }

  /// Remove the head and hand it to the caller.
  Entry take_front() {
    Entry e = std::move(front());
    pop_front();
    return e;
  }

  void clear() {
    // Valid slots become free; their (stale) contents are overwritten on
    // reuse.
    free_.insert(free_.end(), order_.begin(), order_.end());
    if (tally_ != nullptr) *tally_ -= order_.size();
    order_.clear();
    tags_.clear();
  }

  /// The per-position side data (see the file comment).
  [[nodiscard]] Tags& tags() { return tags_; }
  [[nodiscard]] const Tags& tags() const { return tags_; }

  /// Keep `*tally` up to date with this queue's occupancy from now on:
  /// every push adds one, every removal subtracts.  Several queues sharing
  /// one tally answer "are all of them empty?" with a single load.  Only
  /// the owner's queue may be tallied, and it must not be copied or
  /// reassigned afterwards (a copy would update the same tally).
  void tally_into(usize* tally) {
    tally_ = tally;
    *tally_ += order_.size();
  }

  [[nodiscard]] const QueueStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueueStats{}; }
  /// Checkpoint-restore path: reinstate previously captured statistics.
  void restore_stats(const QueueStats& s) { stats_ = s; }

  /// Iteration in FIFO order (oldest first).
  [[nodiscard]] iterator begin() { return {&slots_, order_.data()}; }
  [[nodiscard]] iterator end() {
    return {&slots_, order_.data() + order_.size()};
  }
  [[nodiscard]] const_iterator begin() const {
    return {&slots_, order_.data()};
  }
  [[nodiscard]] const_iterator end() const {
    return {&slots_, order_.data() + order_.size()};
  }

 private:
  template <typename E>
  bool push_back_slot(E&& e) {
    if (full()) {
      ++stats_.rejected_full;
      return false;
    }
    const u32 slot = take_slot(std::forward<E>(e));
    order_.push_back(slot);
    tags_.push_back(slots_[slot]);
    if (tally_ != nullptr) ++*tally_;
    ++stats_.total_pushes;
    stats_.high_water = std::max(stats_.high_water, order_.size());
    return true;
  }

  /// Store `e` in a free slot (growing the slab only past the reserved
  /// depth, i.e. on a push_front overfill) and return the slot's index.
  template <typename E>
  u32 take_slot(E&& e) {
    if (free_.empty()) {
      slots_.push_back(std::forward<E>(e));
      return static_cast<u32>(slots_.size() - 1);
    }
    const u32 slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::forward<E>(e);
    return slot;
  }

  usize capacity_{0};
  std::vector<Entry> slots_;  ///< the slab; grows to the peak occupancy
  std::vector<u32> free_;     ///< slots not holding a queued entry
  std::vector<u32> order_;    ///< FIFO order of the valid slots
  usize* tally_{nullptr};     ///< see tally_into()
  [[no_unique_address]] Tags tags_;
  QueueStats stats_;
};

}  // namespace hmcsim
