#include "packet/crc32.hpp"

#include <array>

namespace hmcsim::crc {
namespace {

using Table = std::array<u32, 256>;

/// Slicing-by-8 tables for the reflected Koopman polynomial, generated at
/// compile time.  kTables[0] is the classic byte table (the straightforward
/// bit loop); kTables[k][b] advances kTables[k-1][b] by one more zero byte,
/// so eight lookups fold a whole 64-bit word into the state at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ kPolyKoopmanReflected : (c >> 1);
    }
    t[0][i] = c;
  }
  for (usize k = 1; k < 8; ++k) {
    for (u32 i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = make_tables();
constexpr const Table& kTable = kTables[0];

}  // namespace

u32 init() { return 0xffffffffu; }

u32 update(u32 state, std::span<const u8> bytes) {
  for (const u8 b : bytes) {
    state = kTable[(state ^ b) & 0xffu] ^ (state >> 8);
  }
  return state;
}

u32 finish(u32 state) { return state ^ 0xffffffffu; }

u32 crc32k(std::span<const u8> bytes) {
  return finish(update(init(), bytes));
}

u32 crc32k_reference(std::span<const u8> bytes) {
  u32 state = 0xffffffffu;
  for (const u8 b : bytes) {
    state ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (state >> 1) ^ kPolyKoopmanReflected
                           : (state >> 1);
    }
  }
  return state ^ 0xffffffffu;
}

u32 update_words(u32 state, std::span<const u64> words) {
  // Word i is the little-endian byte string b0..b7: b0..b3 meet the state,
  // and each byte's table is chosen by how many bytes still follow it.
  for (const u64 w : words) {
    const u32 lo = state ^ static_cast<u32>(w);
    const u32 hi = static_cast<u32>(w >> 32);
    state = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
            kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
            kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  return state;
}

u32 crc32k_words(std::span<const u64> words) {
  return finish(update_words(init(), words));
}

}  // namespace hmcsim::crc
