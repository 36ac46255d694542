#include "core/config_file.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "io/bounded_line.hpp"

namespace hmcsim {
namespace {

constexpr u64 kU32Max = std::numeric_limits<u32>::max();

constexpr std::string_view kMapModeNames[] = {"low_interleave", "bank_first",
                                              "linear"};
constexpr std::string_view kScheduleNames[] = {"bank_ready", "strict_fifo"};
constexpr std::string_view kRowPolicyNames[] = {"closed_page", "open_page"};

/// A table row for DeviceConfig member `Field`; the kind and width follow
/// from the member's type.
template <auto Field>
constexpr ConfigKnob knob(std::string_view key, u32 since,
                          std::span<const std::string_view> names = {},
                          u8 shift = 0) {
  using T = std::remove_cvref_t<decltype(std::declval<DeviceConfig&>().*Field)>;
  ConfigKnob k{key, ConfigKnob::Kind::Number, 0, since, names, shift,
               [](const DeviceConfig& dc) {
                 return static_cast<u64>(dc.*Field);
               },
               [](DeviceConfig& dc, u64 v) { dc.*Field = static_cast<T>(v); }};
  if constexpr (std::is_same_v<T, bool>) {
    k.kind = ConfigKnob::Kind::Bool;
    k.max = 1;
  } else if constexpr (std::is_enum_v<T>) {
    k.kind = ConfigKnob::Kind::Enum;
    k.max = names.size() - 1;
  } else {
    k.max = std::numeric_limits<T>::max();
  }
  return k;
}

using DC = DeviceConfig;

// Rows follow put_device_config order: the fields every readable
// checkpoint (v2 on) carries, then the v3 RAS knobs, the v5 link-protocol
// knobs and the v7 backend knobs (v7 writes the vault_backend list after
// the last row).  Execution knobs come last and are never serialized.
constexpr ConfigKnob kKnobs[] = {
    knob<&DC::num_links>("num_links", 2),
    knob<&DC::banks_per_vault>("banks_per_vault", 2),
    knob<&DC::drams_per_bank>("drams_per_bank", 2),
    knob<&DC::xbar_depth>("xbar_depth", 2),
    knob<&DC::vault_depth>("vault_depth", 2),
    knob<&DC::capacity_bytes>("capacity_gb", 2, {}, 30),
    knob<&DC::map_mode>("map_mode", 2, kMapModeNames),
    knob<&DC::max_block_bytes>("max_block_bytes", 2),
    knob<&DC::bank_busy_cycles>("bank_busy_cycles", 2),
    knob<&DC::xbar_flits_per_cycle>("xbar_flits_per_cycle", 2),
    knob<&DC::vault_drain_limit>("vault_drain_limit", 2),
    knob<&DC::nonlocal_penalty_cycles>("nonlocal_penalty_cycles", 2),
    knob<&DC::conflict_window>("conflict_window", 2),
    knob<&DC::vault_schedule>("vault_schedule", 2, kScheduleNames),
    knob<&DC::link_error_rate_ppm>("link_error_rate_ppm", 2),
    knob<&DC::fault_seed>("fault_seed", 2),
    knob<&DC::link_retry_limit>("link_retry_limit", 2),
    knob<&DC::refresh_interval_cycles>("refresh_interval_cycles", 2),
    knob<&DC::refresh_busy_cycles>("refresh_busy_cycles", 2),
    knob<&DC::row_policy>("row_policy", 2, kRowPolicyNames),
    knob<&DC::row_hit_cycles>("row_hit_cycles", 2),
    knob<&DC::row_miss_cycles>("row_miss_cycles", 2),
    knob<&DC::model_data>("model_data", 2),
    knob<&DC::dram_sbe_rate_ppm>("dram_sbe_rate_ppm", 3),
    knob<&DC::dram_dbe_rate_ppm>("dram_dbe_rate_ppm", 3),
    knob<&DC::scrub_interval_cycles>("scrub_interval_cycles", 3),
    knob<&DC::scrub_window_bytes>("scrub_window_bytes", 3),
    knob<&DC::vault_fail_threshold>("vault_fail_threshold", 3),
    knob<&DC::failed_vault_mask>("failed_vault_mask", 3),
    knob<&DC::vault_remap>("vault_remap", 3),
    knob<&DC::watchdog_cycles>("watchdog_cycles", 3),
    knob<&DC::link_protocol>("link_protocol", 5),
    knob<&DC::link_tokens>("link_tokens", 5),
    knob<&DC::link_retry_buffer_flits>("link_retry_buffer_flits", 5),
    knob<&DC::link_retry_latency>("link_retry_latency", 5),
    knob<&DC::link_error_burst_len>("link_error_burst_len", 5),
    knob<&DC::link_stuck_interval_cycles>("link_stuck_interval_cycles", 5),
    knob<&DC::link_stuck_window_cycles>("link_stuck_window_cycles", 5),
    knob<&DC::link_fail_threshold>("link_fail_threshold", 5),
    knob<&DC::timing_backend>("timing_backend", 7, kTimingBackendNames),
    knob<&DC::ddr_tcl>("ddr_tcl", 7),
    knob<&DC::ddr_trcd>("ddr_trcd", 7),
    knob<&DC::ddr_trp>("ddr_trp", 7),
    knob<&DC::ddr_tras>("ddr_tras", 7),
    knob<&DC::pcm_read_cycles>("pcm_read_cycles", 7),
    knob<&DC::pcm_write_cycles>("pcm_write_cycles", 7),
    knob<&DC::pcm_write_gap_cycles>("pcm_write_gap_cycles", 7),
    knob<&DC::fast_forward>("fast_forward", 0),
    knob<&DC::checkpoint_interval_cycles>("checkpoint_interval_cycles", 0),
    knob<&DC::chaos_invariants>("chaos_invariants", 0),
};

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

std::string too_large(std::string_view key, u64 max) {
  return std::string(key) + " must be at most " + std::to_string(max);
}

// Store one file value: base-10 numbers, true/false/1/0 booleans, enum
// names.  Returns the diagnostic, empty on success.
std::string parse_knob(DeviceConfig& dc, const ConfigKnob& knob,
                       const std::string& value) {
  const std::string key(knob.key);
  switch (knob.kind) {
    case ConfigKnob::Kind::Bool:
      if (value != "true" && value != "1" && value != "false" &&
          value != "0") {
        return key + " must be true/false";
      }
      knob.set(dc, value == "true" || value == "1");
      return {};
    case ConfigKnob::Kind::Enum: {
      std::string choices;
      for (usize i = 0; i < knob.names.size(); ++i) {
        if (value == knob.names[i]) {
          knob.set(dc, i);
          return {};
        }
        choices += (i == 0 ? "" : "/") + std::string(knob.names[i]);
      }
      return key + " must be " + choices + ", got '" + value + "'";
    }
    case ConfigKnob::Kind::Number:
      break;
  }
  u64 number = 0;
  if (!parse_number(value, number)) return key + " needs a number";
  if (!store_knob(dc, knob, number)) {
    return too_large(key, knob.max >> knob.shift);
  }
  return {};
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
    if (key == "num_devices") {
      u64 number = 0;
      if (!parse_number(value, number)) {
        return fail(line_no, "num_devices needs a number");
      }
      if (number > kU32Max) {
        return fail(line_no, too_large("num_devices", kU32Max));
      }
      config.num_devices = static_cast<u32>(number);
    } else if (const ConfigKnob* knob = find_knob(key)) {
      const std::string error = parse_knob(dc, *knob, value);
      if (!error.empty()) return fail(line_no, error);
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
  os << "# hmcsim device configuration\n";
  os << "num_devices = " << config.num_devices << '\n';
  for (const ConfigKnob& k : kKnobs) {
    const u64 v = k.get(config.device);
    os << k.key << " = ";
    switch (k.kind) {
      case ConfigKnob::Kind::Number: os << (v >> k.shift); break;
      case ConfigKnob::Kind::Bool: os << (v != 0 ? "true" : "false"); break;
      case ConfigKnob::Kind::Enum: os << k.names[v]; break;
    }
    os << '\n';
  }
  for (const auto& [vault, backend] : config.device.vault_backends) {
    os << "vault_backend = " << vault << ':' << to_string(backend) << '\n';
  }
}

std::span<const ConfigKnob> config_knobs() { return kKnobs; }

const ConfigKnob* find_knob(std::string_view key) {
  for (const ConfigKnob& k : kKnobs) {
    if (k.key == key) return &k;
  }
  return nullptr;
}

bool store_knob(DeviceConfig& dc, const ConfigKnob& knob, u64 value) {
  if (knob.kind == ConfigKnob::Kind::Bool) value = value != 0;
  if (value > knob.max >> knob.shift) return false;
  knob.set(dc, value << knob.shift);
  return true;
}

}  // namespace hmcsim
