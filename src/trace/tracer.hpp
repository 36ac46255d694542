// The tracer: verbosity filtering plus fan-out to registered sinks.
#pragma once

#include <memory>
#include <vector>

#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace hmcsim {

class Tracer {
 public:
  Tracer() = default;

  void set_level(TraceLevel level) { level_ = level; }
  [[nodiscard]] TraceLevel level() const { return level_; }

  /// Attach a sink; the tracer shares ownership so callers can keep a handle
  /// for post-run inspection.
  void add_sink(std::shared_ptr<TraceSink> sink) {
    sinks_.push_back(std::move(sink));
  }
  void clear_sinks() { sinks_.clear(); }

  /// Fast gate for hot paths: is an event of this class recorded at all?
  /// The inline sink test comes first so the untraced path never calls the
  /// out-of-line level_for.
  [[nodiscard]] bool enabled(TraceEvent e) const {
    return !sinks_.empty() && level_ >= level_for(e);
  }

  /// Record unconditionally (callers should gate on enabled()).
  void emit(const TraceRecord& rec) {
    for (const auto& sink : sinks_) sink->record(rec);
  }

  /// Gate + record in one call for cold paths.
  void emit_if_enabled(const TraceRecord& rec) {
    if (enabled(rec.event)) emit(rec);
  }

  void flush() {
    for (const auto& sink : sinks_) sink->flush();
  }

 private:
  TraceLevel level_{TraceLevel::Off};
  std::vector<std::shared_ptr<TraceSink>> sinks_;
};

}  // namespace hmcsim
