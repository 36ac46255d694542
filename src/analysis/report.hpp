// Trace post-processing: summaries and CSV emission for the paper's
// evaluation artifacts (Figure 5 series, Table I rows), plus a simple
// bandwidth model.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/simulator.hpp"
#include "core/stats.hpp"
#include "trace/lifecycle.hpp"
#include "trace/series.hpp"

namespace hmcsim {

/// Scalar summary of one Figure 5 run.
struct Fig5Summary {
  Cycle cycles{0};
  u64 total_conflicts{0};
  u64 total_reads{0};
  u64 total_writes{0};
  u64 total_xbar_stalls{0};
  u64 total_latency_penalties{0};
  double mean_conflicts_per_cycle{0.0};
  double mean_reads_per_cycle{0.0};
  double mean_writes_per_cycle{0.0};
  double peak_conflicts_per_cycle{0.0};  ///< per-bucket max, width-normalized
};

[[nodiscard]] Fig5Summary summarize_series(const VaultSeriesSink& series);

/// Emit the Figure 5 series as CSV: one row per bucket with device-wide
/// columns plus per-vault conflict/read/write columns.
void write_fig5_csv(std::ostream& os, const VaultSeriesSink& series);

/// One Table I row.
struct Table1Row {
  std::string label;        ///< e.g. "4-Link; 8-Bank; 2GB"
  Cycle cycles{0};          ///< simulated runtime in clock cycles
  u64 requests{0};
  DeviceStats stats{};
};

/// Render Table I (with speedup columns relative to the first row) as
/// fixed-width text, mirroring the paper's table plus the derived speedups
/// the text reports (banks: 8->16 at equal links; links: 4->8 at equal
/// banks).
[[nodiscard]] std::string format_table1(const std::vector<Table1Row>& rows);

/// Effective data bandwidth in GB/s for `bytes` moved over `cycles` device
/// clocks at `clock_ghz` (HMC vault-logic domain; 1.25 GHz by default).
[[nodiscard]] double effective_bandwidth_gbs(u64 bytes, Cycle cycles,
                                             double clock_ghz = 1.25);

/// Crossbar FLIT budget equivalent to a physical SERDES link: `lanes`
/// bidirectional lanes at `gbps` each, against the device clock.  A 16-lane
/// 10 Gbps link at 1.25 GHz moves exactly one 16-byte FLIT per clock per
/// direction (spec §III.A rates: 10 / 12.5 / 15 Gbps).
[[nodiscard]] double link_flits_per_cycle(u32 lanes, double gbps,
                                          double clock_ghz = 1.25);

/// Per-link crossbar utilization over a run.
struct LinkUtilization {
  u32 dev{0};
  u32 link{0};
  u64 rqst_flits{0};
  u64 rsp_flits{0};
  double rqst_util{0.0};  ///< fraction of the per-cycle request budget used
  double rsp_util{0.0};
};

/// Utilization of every link of every device at the simulator's current
/// clock, against its configured xbar_flits_per_cycle budget.
[[nodiscard]] std::vector<LinkUtilization> link_utilization(
    const Simulator& sim);

/// Render the per-segment latency breakdown as a fixed-width text table:
/// one row per lifecycle segment (all classes merged) with count, mean and
/// p50/p95/p99, followed by per-class Total rows.  Empty-string when the
/// sink observed no packets.
[[nodiscard]] std::string format_latency_breakdown(const LifecycleSink& sink);

/// Render the self-profiler as a fixed-width text table: one row per clock
/// stage with wall time, share of the total, and ns per executed cycle,
/// followed by a per-device breakdown (crossbar-stage time plus the summed
/// and hottest vault).  Empty string when profiling is off.
[[nodiscard]] std::string format_profile_table(const Simulator& sim);

/// Render occupancy telemetry as a fixed-width text table: high-water mark
/// and mean occupancy per track per device, plus the host tag table.  Empty
/// string when telemetry is off or never sampled.
[[nodiscard]] std::string format_telemetry_table(const Simulator& sim);

/// Jain's fairness index over per-vault retirement counts, in (0, 1]:
/// 1.0 means every vault served the same number of requests, 1/num_vaults
/// means one vault served everything.  The quantitative form of the
/// paper's "naively balance the traffic across all possible injection
/// points" goal.
[[nodiscard]] double vault_load_fairness(const Simulator& sim);

}  // namespace hmcsim
