// Every arm of every overhead gate (bench/overhead_gate.hpp), run once at
// small scale.  Only the deterministic work checks are asserted: every
// request retired, each subsystem engaged where its arm arms it, and a
// saved checkpoint restores.  Nothing here reads a timing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/overhead_gate.hpp"

namespace hmcsim::bench {
namespace {

std::vector<std::string> gate_names() {
  std::vector<std::string> names;
  for (const Gate& g : overhead_gates()) names.emplace_back(g.name);
  return names;
}

class OverheadGate : public ::testing::TestWithParam<std::string> {};

TEST_P(OverheadGate, EveryArmDoesItsWork) {
  for (const Gate& g : overhead_gates()) {
    if (GetParam() != g.name) continue;
    // 8192 requests per burst cross the chaos checker's 1024-cycle cadence.
    const GateRun run = run_gate(g, 8192, 1);
    for (const std::string& f : run.failures) ADD_FAILURE() << f;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGates, OverheadGate,
                         ::testing::ValuesIn(gate_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace hmcsim::bench
