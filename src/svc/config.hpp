// ServiceConfig: the one configuration of the scheduling core, whichever
// clock drives it. The simulator's SimConfig (sim/driver.hpp) derives from
// it and adds only the clock-side knobs.
#pragma once

#include <cstdint>

#include "ckpt/checkpoint.hpp"
#include "obs/observer.hpp"
#include "predict/registry.hpp"
#include "sched/types.hpp"
#include "sim/metrics.hpp"
#include "torus/catalog.hpp"

namespace bgl {

enum class SchedulerKind { kKrevat, kBalancing, kTieBreak };

const char* to_string(SchedulerKind kind);

/// The PaperRole the kPaper model resolves to under a scheduler kind:
/// balancing -> BalancingPredictor, tie-break -> TieBreakPredictor,
/// krevat -> no predictor.
PaperRole paper_role_for(SchedulerKind kind);

/// Waiting-queue priority order. The paper is strictly FCFS; the others are
/// classic alternatives provided for scheduler studies (see
/// bench_ablation_queue_order).
enum class QueueOrder {
  kFcfs,              ///< (arrival, id) — the paper's discipline.
  kShortestJobFirst,  ///< (estimate, arrival, id).
  kSmallestJobFirst,  ///< (nodes requested, arrival, id).
};

const char* to_string(QueueOrder order);

/// What happens to a node after it fails.
enum class FailureSemantics {
  kTransient,  ///< Paper baseline: instantly healthy again.
  kDownFor,    ///< Extension: unschedulable until its repair event.
};

}  // namespace bgl

namespace bgl::svc {

struct ServiceConfig {
  Dims dims = Dims::bluegene_l();
  /// kTorus (the paper's model) or kMesh (no wrap-around; Krevat et al.
  /// studied both — see bench_ablation_topology).
  Topology topology = Topology::kTorus;
  /// kBoxes at paper scale, kBlocks for full-machine runs where box
  /// enumeration is infeasible. Ignored when a shared catalog is passed in.
  CatalogOptions catalog;
  SchedulerKind scheduler = SchedulerKind::kKrevat;
  /// Prediction quality knob: confidence a for the balancing scheduler,
  /// accuracy a for the tie-breaking scheduler. Ignored by Krevat.
  double alpha = 0.0;
  /// Optional false positives for the tie-breaking predictor (paper: 0).
  double tiebreak_false_positive_rate = 0.0;
  /// The oracle models need a failure trace; kAdaptive learns from the
  /// fail/repair events instead.
  PredictorModel predictor_model = PredictorModel::kNone;
  double history_lookback = 7.0 * 86400.0;  ///< kHistory window.
  AdaptiveConfig adaptive;                  ///< kAdaptive hazard knobs.
  SchedulerConfig sched;
  QueueOrder queue_order = QueueOrder::kFcfs;
  MetricsConfig metrics;
  /// Periodic-checkpoint model (ckpt/checkpoint.hpp). The service owns each
  /// job's remaining work: a kill keeps the progress at the last completed
  /// checkpoint and traces a `checkpoint` line before its job_kill. A submit
  /// without a runtime is refused while it is on.
  CheckpointConfig ckpt;
  /// kDownFor makes every fail event run a scheduler pass, even without
  /// victims. Event-level "down":true always applies the down overlay.
  FailureSemantics failure_semantics = FailureSemantics::kTransient;
  std::uint64_t seed = 1;  ///< Salts the tie-breaking predictor's coins.
  /// Trace sink, counters, histograms and profiler; all borrowed, nullable
  /// and free when detached (docs/OBSERVABILITY.md).
  obs::Observer obs;

  /// Emit machine_state / `metrics` trace events every this many stream
  /// seconds (anchored at the first event). Boundaries are drained at the
  /// head of each accepted event — after validation, before the event's own
  /// trace lines — so rejected events emit nothing and t stays
  /// non-decreasing. 0 (default) disables each.
  double snapshot_interval = 0.0;
  double metrics_interval = 0.0;
};

}  // namespace bgl::svc
