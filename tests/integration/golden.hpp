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
  const struct {
    const char* name;
    u64 value;
  } fields[] = {
      {"reads", s.reads},
      {"writes", s.writes},
      {"atomics", s.atomics},
      {"mode_ops", s.mode_ops},
      {"custom_ops", s.custom_ops},
      {"bytes_read", s.bytes_read},
      {"bytes_written", s.bytes_written},
      {"responses", s.responses},
      {"error_responses", s.error_responses},
      {"bank_conflicts", s.bank_conflicts},
      {"xbar_rqst_stalls", s.xbar_rqst_stalls},
      {"xbar_rsp_stalls", s.xbar_rsp_stalls},
      {"vault_rsp_stalls", s.vault_rsp_stalls},
      {"latency_penalties", s.latency_penalties},
      {"route_hops", s.route_hops},
      {"misroutes", s.misroutes},
      {"link_errors", s.link_errors},
      {"link_retries", s.link_retries},
      {"refreshes", s.refreshes},
      {"row_hits", s.row_hits},
      {"row_misses", s.row_misses},
      {"sends", s.sends},
      {"send_stalls", s.send_stalls},
      {"recvs", s.recvs},
      {"flow_packets", s.flow_packets},
      {"dram_sbes", s.dram_sbes},
      {"dram_dbes", s.dram_dbes},
      {"scrub_steps", s.scrub_steps},
      {"scrub_corrections", s.scrub_corrections},
      {"scrub_uncorrectables", s.scrub_uncorrectables},
      {"vault_failures", s.vault_failures},
      {"vault_remaps", s.vault_remaps},
      {"degraded_drops", s.degraded_drops},
      {"link_crc_errors", s.link_crc_errors},
      {"link_seq_errors", s.link_seq_errors},
      {"link_abort_entries", s.link_abort_entries},
      {"link_irtry_tx", s.link_irtry_tx},
      {"link_irtry_rx", s.link_irtry_rx},
      {"link_pret_tx", s.link_pret_tx},
      {"link_tret_tx", s.link_tret_tx},
      {"link_replayed_flits", s.link_replayed_flits},
      {"link_token_stalls", s.link_token_stalls},
      {"link_retrain_cycles", s.link_retrain_cycles},
      {"link_failures", s.link_failures},
      {"link_tokens_debited", s.link_tokens_debited},
      {"link_tokens_returned", s.link_tokens_returned},
      {"pcm_write_throttle_stalls", s.pcm_write_throttle_stalls},
  };
  for (const auto& f : fields) {
    os << "stat " << f.name << ' ' << f.value << '\n';
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
