#include "mem/storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/random.hpp"

namespace hmcsim {
namespace {

TEST(SparseStore, UnwrittenMemoryReadsZero) {
  SparseStore store(1 << 20);
  std::vector<u8> buf(64, 0xFF);
  ASSERT_TRUE(store.read(0x1234, buf));
  for (const u8 b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(store.resident_pages(), 0u);  // reads must not materialize pages
}

TEST(SparseStore, WriteReadRoundTrip) {
  SparseStore store(1 << 20);
  std::vector<u8> data(64);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 3);
  ASSERT_TRUE(store.write(0x400, data));
  std::vector<u8> back(64);
  ASSERT_TRUE(store.read(0x400, back));
  EXPECT_EQ(back, data);
}

TEST(SparseStore, PageStraddlingAccess) {
  SparseStore store(1 << 20);
  std::vector<u8> data(256);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  // Write across the 4 KiB page boundary.
  const u64 addr = SparseStore::kPageBytes - 100;
  ASSERT_TRUE(store.write(addr, data));
  EXPECT_EQ(store.resident_pages(), 2u);
  std::vector<u8> back(256);
  ASSERT_TRUE(store.read(addr, back));
  EXPECT_EQ(back, data);
}

TEST(SparseStore, OutOfRangeRejected) {
  SparseStore store(4096);
  std::vector<u8> buf(16);
  EXPECT_FALSE(store.read(4096, buf));
  EXPECT_FALSE(store.write(4090, buf));  // spills past the end
  EXPECT_TRUE(store.write(4080, buf));   // exactly reaches the end
}

TEST(SparseStore, OverflowingRangeRejected) {
  SparseStore store(~u64{0});
  std::vector<u8> buf(16);
  EXPECT_FALSE(store.read(~u64{0} - 4, buf));  // addr + size wraps
}

TEST(SparseStore, RestoreRejectsIndicesWhoseByteAddressWraps) {
  // Checkpoint restore hands these indices in from the stream.  An index
  // whose byte address wraps 2^64 must not pass as a low address.
  SparseStore store(u64{1} << 20);
  const std::vector<u8> page(SparseStore::kPageBytes, 0xAB);
  EXPECT_FALSE(store.restore_page(u64{1} << 52, page));
  EXPECT_FALSE(store.restore_page(store.capacity() / SparseStore::kPageBytes,
                                  page));
  EXPECT_TRUE(store.restore_page(
      store.capacity() / SparseStore::kPageBytes - 1, page));
  EXPECT_FALSE(store.restore_fault(u64{1} << 61, 1, 0));
  EXPECT_FALSE(store.restore_fault(store.capacity() / 8, 1, 0));
  EXPECT_TRUE(store.restore_fault(store.capacity() / 8 - 1, 1, 0));
  EXPECT_EQ(store.resident_pages(), 1u);
  EXPECT_EQ(store.fault_count(), 1u);
}

TEST(SparseStore, WordHelpersAreLittleEndian) {
  SparseStore store(1 << 16);
  const u64 word = 0x0123456789abcdefull;
  ASSERT_TRUE(store.write_words(0x100, {&word, 1}));
  std::vector<u8> bytes(8);
  ASSERT_TRUE(store.read(0x100, bytes));
  EXPECT_EQ(bytes[0], 0xef);
  EXPECT_EQ(bytes[7], 0x01);
  u64 back = 0;
  ASSERT_TRUE(store.read_words(0x100, {&back, 1}));
  EXPECT_EQ(back, word);
}

TEST(SparseStore, PartialOverwrite) {
  SparseStore store(1 << 16);
  std::vector<u8> a(32, 0xAA);
  ASSERT_TRUE(store.write(0, a));
  std::vector<u8> b(8, 0xBB);
  ASSERT_TRUE(store.write(8, b));
  std::vector<u8> back(32);
  ASSERT_TRUE(store.read(0, back));
  for (usize i = 0; i < 32; ++i) {
    EXPECT_EQ(back[i], (i >= 8 && i < 16) ? 0xBB : 0xAA) << i;
  }
}

TEST(SparseStore, ClearReleasesPagesAndZeroes) {
  SparseStore store(1 << 20);
  std::vector<u8> data(16, 0x5A);
  ASSERT_TRUE(store.write(0, data));
  EXPECT_GT(store.resident_pages(), 0u);
  store.clear();
  EXPECT_EQ(store.resident_pages(), 0u);
  std::vector<u8> back(16, 0xFF);
  ASSERT_TRUE(store.read(0, back));
  for (const u8 b : back) EXPECT_EQ(b, 0);
}

TEST(SparseStore, SparsityLargeCapacitySmallFootprint) {
  // An 8 GB device with a handful of touched blocks must stay tiny.
  SparseStore store(u64{8} << 30);
  SplitMix64 rng(1);
  for (int i = 0; i < 100; ++i) {
    const u64 addr = (rng.next_below(store.capacity() / 64)) * 64;
    const u64 word = rng.next();
    ASSERT_TRUE(store.write_words(addr, {&word, 1}));
  }
  EXPECT_LE(store.resident_pages(), 100u);
}

TEST(SparseStore, RandomizedReadYourWrites) {
  SparseStore store(1 << 22);
  SplitMix64 rng(99);
  // Model: shadow map of written 16-byte blocks.
  std::vector<std::pair<u64, std::array<u64, 2>>> shadow;
  for (int i = 0; i < 500; ++i) {
    const u64 addr = rng.next_below(store.capacity() / 16) * 16;
    const std::array<u64, 2> value = {rng.next(), rng.next()};
    ASSERT_TRUE(store.write_words(addr, value));
    shadow.emplace_back(addr, value);
  }
  // Later writes to the same block win; walk the shadow log backwards.
  for (auto it = shadow.rbegin(); it != shadow.rend(); ++it) {
    bool superseded = false;
    for (auto jt = shadow.rbegin(); jt != it; ++jt) {
      if (jt->first == it->first) {
        superseded = true;
        break;
      }
    }
    if (superseded) continue;
    std::array<u64, 2> back{};
    ASSERT_TRUE(store.read_words(it->first, back));
    EXPECT_EQ(back, it->second);
  }
}

TEST(SparseStore, RoundTripAtPageTableLeafBoundaries) {
  // Pages on both sides of every leaf boundary, the first and the last
  // page, and one write straddling a boundary.  A capacity that ends in a
  // partial page and a partial leaf keeps the last page off any boundary.
  constexpr u64 kPage = SparseStore::kPageBytes;
  constexpr u64 kLeaf = SparseStore::kLeafPages;
  const u64 capacity = (3 * kLeaf + 5) * kPage + 200;
  const u64 last_page = capacity / kPage;
  SparseStore store(capacity);

  std::vector<u64> pages = {0, kLeaf - 1, kLeaf, 2 * kLeaf - 1, 2 * kLeaf,
                            3 * kLeaf - 1, 3 * kLeaf, last_page};
  const auto pattern = [](u64 page, usize i) {
    return static_cast<u8>(page * 31 + i * 7 + 1);
  };
  for (const u64 page : pages) {
    // The last page is partial: write only up to the capacity.
    const usize len = static_cast<usize>(
        std::min<u64>(kPage, capacity - page * kPage));
    std::vector<u8> data(len);
    for (usize i = 0; i < len; ++i) data[i] = pattern(page, i);
    ASSERT_TRUE(store.write(page * kPage, data)) << page;
  }
  EXPECT_FALSE(store.write(capacity - 4, std::vector<u8>(8, 1)));
  // Straddle the first leaf boundary: 16 bytes either side, re-writing
  // the ends of pages kLeaf-1 and kLeaf.
  std::vector<u8> straddle(32, 0xC3);
  ASSERT_TRUE(store.write(kLeaf * kPage - 16, straddle));
  EXPECT_EQ(store.resident_pages(), pages.size());

  const auto expected = [&](u64 page, usize i) -> u8 {
    const u64 addr = page * kPage + i;
    if (addr >= kLeaf * kPage - 16 && addr < kLeaf * kPage + 16) return 0xC3;
    return pattern(page, i);
  };
  for (const u64 page : pages) {
    const usize len = static_cast<usize>(
        std::min<u64>(kPage, capacity - page * kPage));
    std::vector<u8> back(len);
    ASSERT_TRUE(store.read(page * kPage, back)) << page;
    for (usize i = 0; i < len; ++i) {
      ASSERT_EQ(back[i], expected(page, i)) << "page " << page << " @" << i;
    }
  }
  // An unwritten page between written leaves still reads zero.
  std::vector<u8> gap(kPage, 0xFF);
  ASSERT_TRUE(store.read((kLeaf + 1) * kPage, gap));
  for (const u8 b : gap) ASSERT_EQ(b, 0);

  // Checkpoint view: ascending page order, and a restore into a fresh
  // store reproduces every page byte for byte.
  std::vector<u64> visited;
  SparseStore copy(capacity);
  store.for_each_page([&](u64 index, std::span<const u8> bytes) {
    visited.push_back(index);
    EXPECT_TRUE(copy.restore_page(index, bytes)) << index;
  });
  EXPECT_EQ(visited, pages);
  std::vector<std::vector<u8>> a, b;
  store.for_each_page([&](u64, std::span<const u8> bytes) {
    a.emplace_back(bytes.begin(), bytes.end());
  });
  copy.for_each_page([&](u64, std::span<const u8> bytes) {
    b.emplace_back(bytes.begin(), bytes.end());
  });
  EXPECT_EQ(a, b);
  EXPECT_FALSE(copy.restore_page(last_page + 1, a.front()));
}

}  // namespace
}  // namespace hmcsim
