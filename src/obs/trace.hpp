// Structured JSONL trace sink.
//
// One line per simulation event, appended in event order:
//
//   {"type":"job_start","t":86423.5,"wall_us":1042,"job":17,"entry":311,...}
//
// Every event carries the event type, the simulation timestamp `t` (seconds,
// the clock driving the scheduler) and `wall_us` (microseconds of monotonic wall time
// since the sink was created) so a reader can separate simulated-time
// ordering from where the simulator itself spends real time. The full event
// schema — every type, field, and unit — is documented in
// docs/OBSERVABILITY.md; that document and this writer must stay in sync.
//
// The sink is append-only and buffered: an Event builder accumulates one
// line into a reusable buffer (no per-event heap allocation once the buffer
// has grown to the longest line) and flushes it to the stream when the
// builder is destroyed, i.e. at the end of the full expression
//
//   sink.event("job_kill", now).field("job", id).field("node", n);
//
// Field values are escaped per RFC 8259; doubles are printed with the
// shortest round-trip representation (std::to_chars), so every value a
// reader parses back is bit-identical to the one the simulator held — the
// earlier '%.10g' formatting lost low-order bits at large sim times, letting
// trace_audit's re-derived metrics drift from the in-memory values. The sink
// tracks the largest sim time seen (max_sim_time) so tests and callers can
// assert monotonicity cheaply.
#pragma once

#include <cstdint>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>

#include <iosfwd>

namespace bgl::obs {

class CounterRegistry;

/// Append the shortest decimal representation of `value` that parses back
/// to the same double (std::to_chars), JSON-compatible: infinities and NaN
/// (not representable in JSON) are written as "null". Shared by the trace
/// sink and the svc protocol writers so every emitted number round-trips.
void append_json_double(std::string& out, double value);

class TraceSink {
 public:
  /// Write to an externally owned stream (tests use std::ostringstream).
  explicit TraceSink(std::ostream& out);
  /// Open `path` for writing (truncates). Throws BglError on failure and
  /// owns the file stream for the sink's lifetime.
  static std::unique_ptr<TraceSink> open(const std::string& path);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// One JSONL line under construction. Writes on destruction.
  class Event {
   public:
    Event& field(std::string_view key, std::string_view value);
    Event& field(std::string_view key, const char* value) {
      return field(key, std::string_view(value));
    }
    Event& field(std::string_view key, double value);
    Event& field(std::string_view key, std::uint64_t value);
    Event& field(std::string_view key, std::int64_t value);
    Event& field(std::string_view key, int value) {
      return field(key, static_cast<std::int64_t>(value));
    }
    Event& field(std::string_view key, bool value);

    ~Event();
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

   private:
    friend class TraceSink;
    explicit Event(TraceSink* sink) : sink_(sink) {}
    TraceSink* sink_;
  };

  /// Start an event line with the mandatory "type", "t" and "wall_us"
  /// fields. The returned builder must be destroyed (end of the statement)
  /// before the next event() call.
  Event event(std::string_view type, double sim_time);

  /// Count trace.events into `counters` as lines are written (optional).
  void set_counters(CounterRegistry* counters) { counters_ = counters; }

  std::size_t events_written() const { return events_written_; }
  double max_sim_time() const { return max_sim_time_; }
  void flush();

 private:
  void append_key(std::string_view key);
  void append_escaped(std::string_view text);
  void append_double(double value);
  void finish_line();

  std::unique_ptr<std::ostream> owned_;  ///< Set by open(); null otherwise.
  std::ostream* out_;
  CounterRegistry* counters_ = nullptr;
  std::string line_;  ///< Reused across events.
  std::size_t events_written_ = 0;
  double max_sim_time_ = 0.0;
  bool any_event_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace bgl::obs
