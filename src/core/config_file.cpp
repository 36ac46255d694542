#include "core/config_file.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "io/bounded_line.hpp"

namespace hmcsim {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

bool parse_number(const std::string& text, u64& out) {
  const std::string t = trim(text);
  if (t.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(t.data(), t.data() + t.size(), out, 10);
  return ec == std::errc{} && ptr == t.data() + t.size();
}

ConfigParseResult fail(usize line, const std::string& message) {
  ConfigParseResult r;
  r.error = std::to_string(line) + ": " + message;
  return r;
}

}  // namespace

ConfigParseResult parse_config(std::istream& in) {
  SimConfig config;
  std::string raw;
  usize line_no = 0;

  for (;;) {
    const io::LineRead lr = io::getline_bounded(in, raw);
    if (lr == io::LineRead::Eof) break;
    ++line_no;
    if (lr == io::LineRead::TooLong) {
      return fail(line_no, "line exceeds " +
                               std::to_string(io::kMaxLineBytes) + " bytes");
    }
    // Strip comments and whitespace.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(line_no, "expected key = value");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return fail(line_no, "empty key or value");
    }

    DeviceConfig& dc = config.device;
    u64 number = 0;
    const bool is_number = parse_number(value, number);

    if (key == "num_devices") {
      if (!is_number) return fail(line_no, "num_devices needs a number");
      config.num_devices = static_cast<u32>(number);
    } else if (key == "num_links") {
      if (!is_number) return fail(line_no, "num_links needs a number");
      dc.num_links = static_cast<u32>(number);
    } else if (key == "banks_per_vault") {
      if (!is_number) return fail(line_no, "banks_per_vault needs a number");
      dc.banks_per_vault = static_cast<u32>(number);
    } else if (key == "drams_per_bank") {
      if (!is_number) return fail(line_no, "drams_per_bank needs a number");
      dc.drams_per_bank = static_cast<u32>(number);
    } else if (key == "xbar_depth") {
      if (!is_number) return fail(line_no, "xbar_depth needs a number");
      dc.xbar_depth = static_cast<usize>(number);
    } else if (key == "vault_depth") {
      if (!is_number) return fail(line_no, "vault_depth needs a number");
      dc.vault_depth = static_cast<usize>(number);
    } else if (key == "capacity_gb") {
      if (!is_number) return fail(line_no, "capacity_gb needs a number");
      dc.capacity_bytes = number << 30;
    } else if (key == "max_block_bytes") {
      if (!is_number) return fail(line_no, "max_block_bytes needs a number");
      dc.max_block_bytes = number;
    } else if (key == "bank_busy_cycles") {
      if (!is_number) return fail(line_no, "bank_busy_cycles needs a number");
      dc.bank_busy_cycles = static_cast<u32>(number);
    } else if (key == "xbar_flits_per_cycle") {
      if (!is_number) {
        return fail(line_no, "xbar_flits_per_cycle needs a number");
      }
      dc.xbar_flits_per_cycle = static_cast<u32>(number);
    } else if (key == "vault_drain_limit") {
      if (!is_number) return fail(line_no, "vault_drain_limit needs a number");
      dc.vault_drain_limit = static_cast<u32>(number);
    } else if (key == "nonlocal_penalty_cycles") {
      if (!is_number) {
        return fail(line_no, "nonlocal_penalty_cycles needs a number");
      }
      dc.nonlocal_penalty_cycles = static_cast<u32>(number);
    } else if (key == "conflict_window") {
      if (!is_number) return fail(line_no, "conflict_window needs a number");
      dc.conflict_window = static_cast<u32>(number);
    } else if (key == "link_error_rate_ppm") {
      if (!is_number) {
        return fail(line_no, "link_error_rate_ppm needs a number");
      }
      dc.link_error_rate_ppm = static_cast<u32>(number);
    } else if (key == "fault_seed") {
      if (!is_number) return fail(line_no, "fault_seed needs a number");
      dc.fault_seed = number;
    } else if (key == "link_retry_limit") {
      if (!is_number) return fail(line_no, "link_retry_limit needs a number");
      dc.link_retry_limit = static_cast<u32>(number);
    } else if (key == "link_protocol") {
      if (value == "true" || value == "1") {
        dc.link_protocol = true;
      } else if (value == "false" || value == "0") {
        dc.link_protocol = false;
      } else {
        return fail(line_no, "link_protocol must be true/false");
      }
    } else if (key == "link_tokens") {
      if (!is_number) return fail(line_no, "link_tokens needs a number");
      dc.link_tokens = static_cast<u32>(number);
    } else if (key == "link_retry_buffer_flits") {
      if (!is_number) {
        return fail(line_no, "link_retry_buffer_flits needs a number");
      }
      dc.link_retry_buffer_flits = static_cast<u32>(number);
    } else if (key == "link_retry_latency") {
      if (!is_number) {
        return fail(line_no, "link_retry_latency needs a number");
      }
      dc.link_retry_latency = static_cast<u32>(number);
    } else if (key == "link_error_burst_len") {
      if (!is_number) {
        return fail(line_no, "link_error_burst_len needs a number");
      }
      dc.link_error_burst_len = static_cast<u32>(number);
    } else if (key == "link_stuck_interval_cycles") {
      if (!is_number) {
        return fail(line_no, "link_stuck_interval_cycles needs a number");
      }
      dc.link_stuck_interval_cycles = static_cast<u32>(number);
    } else if (key == "link_stuck_window_cycles") {
      if (!is_number) {
        return fail(line_no, "link_stuck_window_cycles needs a number");
      }
      dc.link_stuck_window_cycles = static_cast<u32>(number);
    } else if (key == "link_fail_threshold") {
      if (!is_number) {
        return fail(line_no, "link_fail_threshold needs a number");
      }
      dc.link_fail_threshold = static_cast<u32>(number);
    } else if (key == "dram_sbe_rate_ppm") {
      if (!is_number) return fail(line_no, "dram_sbe_rate_ppm needs a number");
      dc.dram_sbe_rate_ppm = static_cast<u32>(number);
    } else if (key == "dram_dbe_rate_ppm") {
      if (!is_number) return fail(line_no, "dram_dbe_rate_ppm needs a number");
      dc.dram_dbe_rate_ppm = static_cast<u32>(number);
    } else if (key == "scrub_interval_cycles") {
      if (!is_number) {
        return fail(line_no, "scrub_interval_cycles needs a number");
      }
      dc.scrub_interval_cycles = static_cast<u32>(number);
    } else if (key == "scrub_window_bytes") {
      if (!is_number) return fail(line_no, "scrub_window_bytes needs a number");
      dc.scrub_window_bytes = number;
    } else if (key == "vault_fail_threshold") {
      if (!is_number) {
        return fail(line_no, "vault_fail_threshold needs a number");
      }
      dc.vault_fail_threshold = static_cast<u32>(number);
    } else if (key == "failed_vault_mask") {
      if (!is_number) return fail(line_no, "failed_vault_mask needs a number");
      dc.failed_vault_mask = number;
    } else if (key == "vault_remap") {
      if (value == "true" || value == "1") {
        dc.vault_remap = true;
      } else if (value == "false" || value == "0") {
        dc.vault_remap = false;
      } else {
        return fail(line_no, "vault_remap must be true/false");
      }
    } else if (key == "watchdog_cycles") {
      if (!is_number) return fail(line_no, "watchdog_cycles needs a number");
      dc.watchdog_cycles = static_cast<u32>(number);
    } else if (key == "checkpoint_interval_cycles") {
      if (!is_number) {
        return fail(line_no, "checkpoint_interval_cycles needs a number");
      }
      dc.checkpoint_interval_cycles = static_cast<u32>(number);
    } else if (key == "chaos_invariants") {
      if (!is_number) {
        return fail(line_no, "chaos_invariants needs a number");
      }
      dc.chaos_invariants = static_cast<u32>(number);
    } else if (key == "refresh_interval_cycles") {
      if (!is_number) {
        return fail(line_no, "refresh_interval_cycles needs a number");
      }
      dc.refresh_interval_cycles = static_cast<u32>(number);
    } else if (key == "refresh_busy_cycles") {
      if (!is_number) {
        return fail(line_no, "refresh_busy_cycles needs a number");
      }
      dc.refresh_busy_cycles = static_cast<u32>(number);
    } else if (key == "row_policy") {
      if (value == "closed_page") {
        dc.row_policy = RowPolicy::ClosedPage;
      } else if (value == "open_page") {
        dc.row_policy = RowPolicy::OpenPage;
      } else {
        return fail(line_no, "row_policy must be closed_page/open_page");
      }
    } else if (key == "row_hit_cycles") {
      if (!is_number) return fail(line_no, "row_hit_cycles needs a number");
      dc.row_hit_cycles = static_cast<u32>(number);
    } else if (key == "row_miss_cycles") {
      if (!is_number) return fail(line_no, "row_miss_cycles needs a number");
      dc.row_miss_cycles = static_cast<u32>(number);
    } else if (key == "fast_forward") {
      if (value == "true" || value == "1") {
        dc.fast_forward = true;
      } else if (value == "false" || value == "0") {
        dc.fast_forward = false;
      } else {
        return fail(line_no, "fast_forward must be true/false");
      }
    } else if (key == "model_data") {
      if (value == "true" || value == "1") {
        dc.model_data = true;
      } else if (value == "false" || value == "0") {
        dc.model_data = false;
      } else {
        return fail(line_no, "model_data must be true/false");
      }
    } else if (key == "map_mode") {
      if (value == "low_interleave") {
        dc.map_mode = AddrMapMode::LowInterleave;
      } else if (value == "bank_first") {
        dc.map_mode = AddrMapMode::BankFirst;
      } else if (value == "linear") {
        dc.map_mode = AddrMapMode::Linear;
      } else {
        return fail(line_no,
                    "map_mode must be low_interleave/bank_first/linear");
      }
    } else if (key == "timing_backend") {
      TimingBackend backend;
      if (!timing_backend_from_string(value, &backend)) {
        return fail(line_no, "unknown timing_backend '" + value +
                                 "' (hmc_dram/generic_ddr/pcm_like)");
      }
      dc.timing_backend = backend;
    } else if (key == "vault_backend") {
      // Repeatable per-vault override: "<index>:<name>" or
      // "<lo>-<hi>:<name>".
      const auto colon = value.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= value.size()) {
        return fail(line_no,
                    "vault_backend needs <vault|lo-hi>:<backend name>");
      }
      const std::string range = trim(value.substr(0, colon));
      const std::string name = trim(value.substr(colon + 1));
      TimingBackend backend;
      if (!timing_backend_from_string(name, &backend)) {
        return fail(line_no, "unknown vault_backend '" + name +
                                 "' (hmc_dram/generic_ddr/pcm_like)");
      }
      u64 lo = 0;
      u64 hi = 0;
      const auto dash = range.find('-');
      if (dash == std::string::npos) {
        if (!parse_number(range, lo)) {
          return fail(line_no, "vault_backend needs a vault index");
        }
        hi = lo;
      } else {
        if (!parse_number(range.substr(0, dash), lo) ||
            !parse_number(range.substr(dash + 1), hi) || hi < lo) {
          return fail(line_no, "vault_backend range must be <lo>-<hi>");
        }
      }
      if (hi >= 64) {
        return fail(line_no, "vault_backend index " + std::to_string(hi) +
                                 " is beyond any device geometry");
      }
      for (u64 v = lo; v <= hi; ++v) {
        for (const auto& existing : dc.vault_backends) {
          if (existing.first == v) {
            return fail(line_no, "vault_backend index " + std::to_string(v) +
                                     " is listed twice");
          }
        }
        dc.vault_backends.emplace_back(static_cast<u32>(v), backend);
      }
    } else if (key == "ddr_tcl") {
      if (!is_number) return fail(line_no, "ddr_tcl needs a number");
      dc.ddr_tcl = static_cast<u32>(number);
    } else if (key == "ddr_trcd") {
      if (!is_number) return fail(line_no, "ddr_trcd needs a number");
      dc.ddr_trcd = static_cast<u32>(number);
    } else if (key == "ddr_trp") {
      if (!is_number) return fail(line_no, "ddr_trp needs a number");
      dc.ddr_trp = static_cast<u32>(number);
    } else if (key == "ddr_tras") {
      if (!is_number) return fail(line_no, "ddr_tras needs a number");
      dc.ddr_tras = static_cast<u32>(number);
    } else if (key == "pcm_read_cycles") {
      if (!is_number) return fail(line_no, "pcm_read_cycles needs a number");
      dc.pcm_read_cycles = static_cast<u32>(number);
    } else if (key == "pcm_write_cycles") {
      if (!is_number) return fail(line_no, "pcm_write_cycles needs a number");
      dc.pcm_write_cycles = static_cast<u32>(number);
    } else if (key == "pcm_write_gap_cycles") {
      if (!is_number) {
        return fail(line_no, "pcm_write_gap_cycles needs a number");
      }
      dc.pcm_write_gap_cycles = static_cast<u32>(number);
    } else if (key == "vault_schedule") {
      if (value == "bank_ready") {
        dc.vault_schedule = VaultSchedule::BankReady;
      } else if (value == "strict_fifo") {
        dc.vault_schedule = VaultSchedule::StrictFifo;
      } else {
        return fail(line_no,
                    "vault_schedule must be bank_ready/strict_fifo");
      }
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }

  std::string diag;
  if (!ok(config.validate(&diag))) {
    return fail(line_no, "invalid configuration: " + diag);
  }
  ConfigParseResult r;
  r.ok = true;
  r.config = config;
  return r;
}

ConfigParseResult parse_config_string(const std::string& text) {
  std::istringstream in(text);
  return parse_config(in);
}

void write_config(std::ostream& os, const SimConfig& config) {
  const DeviceConfig& dc = config.device;
  os << "# hmcsim device configuration\n";
  os << "num_devices = " << config.num_devices << '\n';
  os << "num_links = " << dc.num_links << '\n';
  os << "banks_per_vault = " << dc.banks_per_vault << '\n';
  os << "drams_per_bank = " << dc.drams_per_bank << '\n';
  os << "xbar_depth = " << dc.xbar_depth << '\n';
  os << "vault_depth = " << dc.vault_depth << '\n';
  os << "capacity_gb = " << (dc.derived_capacity() >> 30) << '\n';
  os << "max_block_bytes = " << dc.max_block_bytes << '\n';
  os << "map_mode = "
     << (dc.map_mode == AddrMapMode::LowInterleave ? "low_interleave"
         : dc.map_mode == AddrMapMode::BankFirst   ? "bank_first"
                                                   : "linear")
     << '\n';
  os << "bank_busy_cycles = " << dc.bank_busy_cycles << '\n';
  os << "xbar_flits_per_cycle = " << dc.xbar_flits_per_cycle << '\n';
  os << "vault_drain_limit = " << dc.vault_drain_limit << '\n';
  os << "nonlocal_penalty_cycles = " << dc.nonlocal_penalty_cycles << '\n';
  os << "conflict_window = " << dc.conflict_window << '\n';
  os << "vault_schedule = "
     << (dc.vault_schedule == VaultSchedule::BankReady ? "bank_ready"
                                                       : "strict_fifo")
     << '\n';
  os << "link_error_rate_ppm = " << dc.link_error_rate_ppm << '\n';
  os << "fault_seed = " << dc.fault_seed << '\n';
  os << "link_retry_limit = " << dc.link_retry_limit << '\n';
  os << "link_protocol = " << (dc.link_protocol ? "true" : "false") << '\n';
  os << "link_tokens = " << dc.link_tokens << '\n';
  os << "link_retry_buffer_flits = " << dc.link_retry_buffer_flits << '\n';
  os << "link_retry_latency = " << dc.link_retry_latency << '\n';
  os << "link_error_burst_len = " << dc.link_error_burst_len << '\n';
  os << "link_stuck_interval_cycles = " << dc.link_stuck_interval_cycles
     << '\n';
  os << "link_stuck_window_cycles = " << dc.link_stuck_window_cycles << '\n';
  os << "link_fail_threshold = " << dc.link_fail_threshold << '\n';
  os << "dram_sbe_rate_ppm = " << dc.dram_sbe_rate_ppm << '\n';
  os << "dram_dbe_rate_ppm = " << dc.dram_dbe_rate_ppm << '\n';
  os << "scrub_interval_cycles = " << dc.scrub_interval_cycles << '\n';
  os << "scrub_window_bytes = " << dc.scrub_window_bytes << '\n';
  os << "vault_fail_threshold = " << dc.vault_fail_threshold << '\n';
  os << "failed_vault_mask = " << dc.failed_vault_mask << '\n';
  os << "vault_remap = " << (dc.vault_remap ? "true" : "false") << '\n';
  os << "watchdog_cycles = " << dc.watchdog_cycles << '\n';
  os << "checkpoint_interval_cycles = " << dc.checkpoint_interval_cycles
     << '\n';
  os << "chaos_invariants = " << dc.chaos_invariants << '\n';
  os << "refresh_interval_cycles = " << dc.refresh_interval_cycles << '\n';
  os << "refresh_busy_cycles = " << dc.refresh_busy_cycles << '\n';
  os << "row_policy = "
     << (dc.row_policy == RowPolicy::OpenPage ? "open_page" : "closed_page")
     << '\n';
  os << "row_hit_cycles = " << dc.row_hit_cycles << '\n';
  os << "row_miss_cycles = " << dc.row_miss_cycles << '\n';
  os << "timing_backend = " << to_string(dc.timing_backend) << '\n';
  for (const auto& [vault, backend] : dc.vault_backends) {
    os << "vault_backend = " << vault << ':' << to_string(backend) << '\n';
  }
  os << "ddr_tcl = " << dc.ddr_tcl << '\n';
  os << "ddr_trcd = " << dc.ddr_trcd << '\n';
  os << "ddr_trp = " << dc.ddr_trp << '\n';
  os << "ddr_tras = " << dc.ddr_tras << '\n';
  os << "pcm_read_cycles = " << dc.pcm_read_cycles << '\n';
  os << "pcm_write_cycles = " << dc.pcm_write_cycles << '\n';
  os << "pcm_write_gap_cycles = " << dc.pcm_write_gap_cycles << '\n';
  os << "fast_forward = " << (dc.fast_forward ? "true" : "false") << '\n';
  os << "model_data = " << (dc.model_data ? "true" : "false") << '\n';
}

}  // namespace hmcsim
