// The discrete-event simulator: the clock that drives SchedulerService.
//
// run_simulation (declared in sim/driver.hpp) and run_experiment (declared
// in sim/experiment.hpp) are defined in sim_adapter.cpp. They own the
// clock: the pending-event set (arrivals, finishes, failures, down-time
// expiries), finish times from SchedulerService::remaining_work, stale-event
// filtering, the §6.1 capacity integral, SimResult assembly and the replay
// log. Every decision, the checkpoint model's work accounting, and every
// trace line come from the SchedulerService they drive, so the simulator
// and a live sched_server share one scheduling core.
//
// Each popped event is one `des.event` profiler span; the service's
// `svc.event` span (and the scheduler passes under it) nests inside, so
// des.event self time is the clock side and svc.event self time the
// decision side. The driver.* counters (events, failures, kills,
// checkpoints) are counted here.
#pragma once

#include "sim/driver.hpp"
#include "svc/service.hpp"

namespace bgl::svc {

/// The decision-side projection of a simulator configuration: everything
/// SchedulerService reads (scheduler, predictor, queue order, checkpoint
/// model, down-time semantics, observers, snapshot and metrics cadences).
ServiceConfig service_config_from(const SimConfig& config);

}  // namespace bgl::svc
