// Generic dispatch loop over an EventQueue.
//
// The production simulator (run_simulation, src/svc/sim_adapter.cpp) runs
// its own tight loop; the Engine exists for examples, tests and user code that wants a callback-based
// interface without writing the loop by hand.
#pragma once

#include <array>
#include <functional>

#include "des/event_queue.hpp"

namespace bgl {

class Engine {
 public:
  using Handler = std::function<void(Engine&, const Event&)>;

  /// Register the handler for one event type (replaces any previous one).
  void on(EventType type, Handler handler);

  /// Schedule an event.
  void schedule(Event event) { queue_.push(event); }
  void schedule(SimTime time, EventType type, std::uint64_t id, std::uint64_t tag = 0);

  /// Run until the queue drains or `max_events` have been dispatched.
  /// Returns the number of events dispatched.
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));

  /// Stop after the current handler returns.
  void stop() { stopped_ = true; }

  SimTime now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }

 private:
  EventQueue queue_;
  std::array<Handler, 5> handlers_;
  bool stopped_ = false;
};

}  // namespace bgl
