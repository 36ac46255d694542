// Key/value configuration files.
//
// Experiment runners and downstream integrations want device
// configurations in files rather than code.  The format is minimal INI:
//
//   # Table I configuration C
//   num_devices   = 1
//   num_links     = 8
//   banks_per_vault = 8
//   xbar_depth    = 128
//   vault_depth   = 64
//   capacity_gb   = 4
//   map_mode      = low_interleave      # bank_first | linear
//   vault_schedule = bank_ready         # strict_fifo
//   link_error_rate_ppm = 0
//
// Unknown keys are errors (they are invariably typos); every key is
// optional and defaults to the in-code DeviceConfig defaults.  A number
// that does not fit its field is an error, never truncated.  The parser
// reports the first problem with its line number.
//
// Every DeviceConfig key is one row of the knob table (config_knobs()),
// which also drives write_config, the checkpoint CFG section and
// hmcsim_run's override flags.  Only num_devices (a SimConfig field) and
// the repeatable vault_backend list are hand-written.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "core/config.hpp"

namespace hmcsim {

struct ConfigParseResult {
  bool ok{false};
  SimConfig config{};
  /// Diagnostic for the first error: "<line>: <message>".
  std::string error{};
};

/// Parse a configuration stream.  On success the returned config has also
/// passed SimConfig::validate().
[[nodiscard]] ConfigParseResult parse_config(std::istream& in);

/// Parse from a string (convenience for tests and embedded configs).
[[nodiscard]] ConfigParseResult parse_config_string(const std::string& text);

/// Serialize a config in the same format (inverse of the parser).  Keys
/// come in knob-table order, which is the checkpoint CFG order.
void write_config(std::ostream& os, const SimConfig& config);

/// One config-file key bound to one DeviceConfig field.
struct ConfigKnob {
  enum class Kind : u8 { Number, Bool, Enum };
  std::string_view key;
  Kind kind;
  /// Largest field value: the field type's maximum for numbers, the last
  /// name's index for enums, 1 for booleans.
  u64 max;
  /// Oldest checkpoint version whose CFG section carries the field (2 for
  /// fields every readable version has); 0 for execution knobs, which are
  /// never serialized.
  u32 since;
  /// Enum spellings, indexed by enumerator value.
  std::span<const std::string_view> names;
  /// The file spells the field in units of 2^shift (capacity_gb: 30).
  u8 shift;
  u64 (*get)(const DeviceConfig&);
  void (*set)(DeviceConfig&, u64);
};

/// Every knob, in checkpoint CFG order (execution knobs last).
[[nodiscard]] std::span<const ConfigKnob> config_knobs();

/// The knob for `key`, or null when no row has that key.
[[nodiscard]] const ConfigKnob* find_knob(std::string_view key);

/// Store a numeric value in `knob`'s field, scaled by 2^shift: booleans
/// take nonzero as true, enums take the name index.  Returns false, and
/// leaves `dc` alone, when the value does not fit the field.
[[nodiscard]] bool store_knob(DeviceConfig& dc, const ConfigKnob& knob,
                              u64 value);

}  // namespace hmcsim
