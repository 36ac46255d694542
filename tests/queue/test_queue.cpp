#include "queue/queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace hmcsim {
namespace {

TEST(BoundedQueue, StartsEmpty) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.free_slots(), 4u);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.take_front(), i);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.stats().rejected_full, 1u);
  // A rejected push must not disturb contents.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front(), 1);
}

TEST(BoundedQueue, MiddleRemovalPreservesRelativeOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.at(2), 2);
  q.remove(2);  // remove a middle entry
  EXPECT_EQ(q.at(3), 4);  // indices shifted after removal
  q.remove(3);
  EXPECT_EQ(q.take_front(), 0);
  EXPECT_EQ(q.take_front(), 1);
  EXPECT_EQ(q.take_front(), 3);
  EXPECT_EQ(q.take_front(), 5);
}

TEST(BoundedQueue, StatsTrackPushesPopsHighWater) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 3; ++i) (void)q.push(i);
  q.pop_front();
  (void)q.push(3);
  (void)q.push(4);
  const QueueStats& s = q.stats();
  EXPECT_EQ(s.total_pushes, 5u);
  EXPECT_EQ(s.total_pops, 1u);
  EXPECT_EQ(s.high_water, 4u);
}

TEST(BoundedQueue, ResetStatsKeepsContents) {
  BoundedQueue<int> q(4);
  (void)q.push(9);
  q.reset_stats();
  EXPECT_EQ(q.stats().total_pushes, 0u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), 9);
}

TEST(BoundedQueue, ClearEmptiesWithoutCountingPops) {
  BoundedQueue<int> q(4);
  (void)q.push(1);
  (void)q.push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().total_pops, 0u);
}

TEST(BoundedQueue, CapacityOneBehavesAsRegister) {
  // The paper requires at least one queue slot per logical queue, acting as
  // a registered input/output stage.
  BoundedQueue<std::string> q(1);
  EXPECT_TRUE(q.push("a"));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push("b"));
  EXPECT_EQ(q.take_front(), "a");
  EXPECT_TRUE(q.push("b"));
}

TEST(BoundedQueue, IterationIsOldestFirst) {
  BoundedQueue<int> q(8);
  for (int i = 10; i < 15; ++i) (void)q.push(i);
  int expected = 10;
  for (const int v : q) EXPECT_EQ(v, expected++);
}

TEST(BoundedQueue, MoveOnlyEntries) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.push(std::make_unique<int>(7)));
  auto p = q.take_front();
  EXPECT_EQ(*p, 7);
}

TEST(BoundedQueue, RefusedPushLeavesTheEntryIntact) {
  // An entry is moved only when the queue takes it, so a caller may offer
  // an entry it still owns and keep it on a refusal.
  BoundedQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.push(std::make_unique<int>(1)));
  auto offered = std::make_unique<int>(2);
  EXPECT_FALSE(q.push(std::move(offered)));
  ASSERT_NE(offered, nullptr);
  EXPECT_EQ(*offered, 2);
  q.pop_front();
  EXPECT_TRUE(q.push(std::move(offered)));
  EXPECT_EQ(offered, nullptr);
  EXPECT_EQ(*q.back(), 2);
}

/// Tags that mirror the FIFO order of the queued values, so the test can
/// check that the queue calls every hook at the right position.
struct MirrorTags {
  std::vector<int> order;
  void push_back(int v) { order.push_back(v); }
  void push_front(int v) { order.insert(order.begin(), v); }
  void remove(usize i) {
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
  }
  void clear() { order.clear(); }
};

TEST(BoundedQueue, TagsFollowTheFifoOrder) {
  BoundedQueue<int, MirrorTags> q(4);
  const auto same = [&] {
    std::vector<int> fifo;
    for (const int v : q) fifo.push_back(v);
    return fifo == q.tags().order;
  };
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_FALSE(q.push(9));  // refused: no tag either
  EXPECT_TRUE(same());
  q.remove(1);
  q.pop_front();
  EXPECT_TRUE(same());
  q.push_front(7);
  EXPECT_TRUE(q.push(8));
  q.push_front(6);  // overfill
  EXPECT_TRUE(same());
  q.clear();
  EXPECT_TRUE(q.tags().order.empty());
}

TEST(BoundedQueue, RandomizedAgainstReferenceModel) {
  // Move-only entries through every operation, including push_front
  // overfill past the capacity and clear(), so freed slots are reused many
  // times; after each step the whole FIFO (at(i) and iteration), the
  // capacity view, the stats and the occupancy tally must match a plain
  // vector model.
  constexpr usize kCap = 16;
  constexpr usize kOverfill = 5;
  BoundedQueue<std::unique_ptr<u64>> q(kCap);
  usize tally = 3;  // a shared tally counts on from where it stands
  q.tally_into(&tally);
  std::vector<u64> model;
  QueueStats stats;
  SplitMix64 rng(4);
  for (int step = 0; step < 20000; ++step) {
    const u64 op = rng.next_below(100);
    const u64 v = rng.next();
    if (op < 40) {
      const bool pushed = q.push(std::make_unique<u64>(v));
      ASSERT_EQ(pushed, model.size() < kCap);
      if (pushed) {
        model.push_back(v);
        ++stats.total_pushes;
      } else {
        ++stats.rejected_full;
      }
    } else if (op < 50) {
      if (model.size() < kCap + kOverfill) {
        q.push_front(std::make_unique<u64>(v));
        model.insert(model.begin(), v);
      }
    } else if (op < 70) {
      if (!model.empty()) {
        ASSERT_EQ(*q.take_front(), model.front());
        model.erase(model.begin());
        ++stats.total_pops;
      }
    } else if (op < 99) {
      if (!model.empty()) {
        const usize i = rng.next_below(model.size());
        ASSERT_EQ(*q.at(i), model[i]);
        q.remove(i);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
        ++stats.total_pops;
      }
    } else {
      q.clear();
      model.clear();
    }
    stats.high_water = std::max(stats.high_water, model.size());

    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(tally, 3 + model.size());
    ASSERT_EQ(q.empty(), model.empty());
    ASSERT_EQ(q.full(), model.size() >= kCap);
    ASSERT_EQ(q.free_slots(), model.size() >= kCap ? 0 : kCap - model.size());
    for (usize i = 0; i < model.size(); ++i) {
      ASSERT_EQ(*q.at(i), model[i]) << "step " << step << " index " << i;
    }
    usize n = 0;
    for (const auto& e : q) ASSERT_EQ(*e, model[n++]);
    ASSERT_EQ(n, model.size());
    ASSERT_EQ(q.stats().total_pushes, stats.total_pushes);
    ASSERT_EQ(q.stats().total_pops, stats.total_pops);
    ASSERT_EQ(q.stats().rejected_full, stats.rejected_full);
    ASSERT_EQ(q.stats().high_water, stats.high_water);
  }
}

}  // namespace
}  // namespace hmcsim
