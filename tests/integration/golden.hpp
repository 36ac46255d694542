// Shared text-golden helpers for the integration suites.
//
// A golden is a canonical text capture of one run, committed under
// tests/golden/.  Comparison reports the first differing line; setting
// HMCSIM_UPDATE_GOLDEN=1 rewrites the file instead.  Regenerate only for an
// intentional behaviour change, and review the diff like source.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/stats.hpp"

#ifndef HMCSIM_GOLDEN_DIR
#define HMCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace hmcsim::test {

inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
inline u64 fnv1a(std::string_view bytes, u64 h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One "stat <name> <value>" line per DeviceStats counter.
inline void append_stats(std::ostream& os, const DeviceStats& s) {
  for (const DeviceCounter& c : kDeviceCounters) {
    os << "stat " << c.name << ' ' << s.*c.field << '\n';
  }
}

/// Compare `got` against the golden at `HMCSIM_GOLDEN_DIR/<relpath>`, or
/// write it when HMCSIM_UPDATE_GOLDEN is set.  `ctest_filter` names the
/// ctest -R pattern that regenerates the file.
inline void expect_matches_golden(const std::string& relpath,
                                  const std::string& got,
                                  const char* ctest_filter) {
  const std::string path = std::string(HMCSIM_GOLDEN_DIR) + "/" + relpath;
  if (std::getenv("HMCSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path
                            << " (does its directory exist?)";
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with HMCSIM_UPDATE_GOLDEN=1 "
                            "ctest -R "
                         << ctest_filter;
  std::ostringstream want;
  want << in.rdbuf();
  const std::string expected = std::move(want).str();
  if (got == expected) return;
  // Point at the first differing line so the failure reads like a diff.
  std::istringstream ga(expected);
  std::istringstream gb(got);
  std::string la;
  std::string lb;
  usize line = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(ga, la));
    const bool hb = static_cast<bool>(std::getline(gb, lb));
    ++line;
    if (!ha && !hb) break;
    if (la != lb || ha != hb) {
      FAIL() << relpath << " diverges from the golden at line " << line
             << "\n  golden: " << (ha ? la : "<eof>")
             << "\n  got:    " << (hb ? lb : "<eof>")
             << "\nOnly regenerate for an intentional behaviour change.";
    }
  }
}

}  // namespace hmcsim::test
