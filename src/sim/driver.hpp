// Event-driven simulation of job scheduling with faults (§6.1).
//
// run_simulation replays a workload and a failure trace through
// svc::SchedulerService, the same scheduling core a live sched_server runs.
// A discrete-event loop (svc/sim_adapter.cpp) owns the clock: pending
// arrivals, finishes, failures and down-time expiries. The service owns
// every decision, the state behind it (queue, each running job's
// partition, down overlay, predictor feed, checkpointed work) and every
// §6.1 aggregate of the SimResult. For a per-event record of a run, attach
// a trace sink (SimConfig::obs.trace, simulate_cli --trace-out): the JSONL
// trace logs every start, finish, kill, migration and failure, and
// obs::audit_trace (tools/trace_audit) checks it. Semantics fixed by the
// paper:
//
//   * jobs start the instant they are scheduled;
//   * failures are transient: a failing node kills any job running on it
//     (work since the last checkpoint — all work, in the baseline — is
//     lost; the job re-enters the queue with its original arrival priority)
//     and is immediately available again;
//   * the scheduler runs on every arrival and every termination, including
//     failure-induced kills.
//
// Extensions beyond the paper, all off by default: checkpointing
// (CheckpointConfig) and node down-time after a failure (kDownFor).
#pragma once

#include "failure/trace.hpp"
#include "sim/metrics.hpp"
#include "svc/config.hpp"
#include "torus/catalog.hpp"
#include "workload/job.hpp"

namespace bgl {

/// The service's configuration plus the two knobs only the clock reads.
struct SimConfig : svc::ServiceConfig {
  /// The paper's setup: balancing fed by the §4 simulated predictor. These
  /// are the only defaults that differ from ServiceConfig's, because an
  /// online deployment has no failure oracle while a simulation replays a
  /// failure trace the kPaper model consults.
  SimConfig() {
    scheduler = SchedulerKind::kBalancing;
    predictor_model = PredictorModel::kPaper;
  }

  double node_downtime = 0.0;  ///< Seconds a node stays down (kDownFor).
  bool collect_outcomes = false;  ///< Fill SimResult::outcomes.
};

/// Run one simulation. Job sizes must already fit config.dims (use
/// rescale_sizes()); the failure trace must target the same node count.
/// Pass a prebuilt catalog to amortise its construction across sweeps.
SimResult run_simulation(const Workload& workload, const FailureTrace& trace,
                         const SimConfig& config,
                         const PartitionCatalog* shared_catalog = nullptr);

}  // namespace bgl
