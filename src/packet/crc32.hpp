// CRC-32K: the Koopman polynomial CRC the HMC specification prescribes for
// packet integrity (paper ref [29], Koopman & Chakravarty, DSN 2004).
//
// Polynomial 0x741B8CD7 (normal form), reflected implementation with
// init = 0xFFFFFFFF and final xor = 0xFFFFFFFF.  Two engines are provided:
// table-driven fast paths (byte-at-a-time, and slicing-by-8 over 64-bit
// words for the codec) and a bit-at-a-time reference used to cross-check the
// tables in the test suite.
#pragma once

#include <span>

#include "common/types.hpp"

namespace hmcsim::crc {

/// Koopman polynomial in normal (MSB-first) form.
inline constexpr u32 kPolyKoopman = 0x741b8cd7u;

/// Koopman polynomial in reflected (LSB-first) form.
inline constexpr u32 kPolyKoopmanReflected = 0xeb31d82eu;

/// Table-driven CRC-32K over a byte span.
[[nodiscard]] u32 crc32k(std::span<const u8> bytes);

/// Incremental interface: fold more bytes into a running CRC state.
/// `crc32k(x)` == `finish(update(init(), x))`.
[[nodiscard]] u32 init();
[[nodiscard]] u32 update(u32 state, std::span<const u8> bytes);
[[nodiscard]] u32 finish(u32 state);

/// Bit-at-a-time reference implementation (slow; for validation only).
[[nodiscard]] u32 crc32k_reference(std::span<const u8> bytes);

/// CRC over a span of 64-bit words interpreted little-endian, as packet
/// FLITs are.  Matches crc32k over the equivalent byte string; runs
/// slicing-by-8 over the words in place (one table step per word).
[[nodiscard]] u32 crc32k_words(std::span<const u64> words);

/// Incremental word form: `crc32k_words(x)` == `finish(update_words(init(),
/// x))`, and word and byte updates may be mixed on one running state.
[[nodiscard]] u32 update_words(u32 state, std::span<const u64> words);

}  // namespace hmcsim::crc
