// The scheduling engine (§5).
//
// One engine hosts every scheduling discipline; three orthogonal policies
// plug into it (docs/SCHEDULERS.md):
//
//   algorithm   ISchedulingAlgorithm (algorithm.hpp): queue traversal and
//               reservation discipline — krevat (the paper's engine, the
//               default), easy, conservative, easy-holdback.
//   scoring     PlacementPolicy: Krevat baseline = MfpLossPolicy (predictor
//               ignored), Balancing = BalancingPolicy + Balancing-
//               Predictor(confidence a), Tie-breaking = TieBreakPolicy +
//               TieBreakPredictor(accuracy a).
//   prediction  FaultPredictor (predict/): which nodes get flagged.
//
// The engine keeps no state across passes: the decision schedule() returns
// is a function of (now, queue, running, occupancy). It prepares the pass
// scratch, hands a SchedulingPass to the configured algorithm, and accounts
// the pass-level timing. The caller (SchedulerService) owns all scheduling
// state and commits the returned decision. The occupancy the pass reads is
// the caller's free-partition index, the one piece of that state the pass
// writes: it advances the index in place to the post-decision occupancy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "predict/predictor.hpp"
#include "sched/policy.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"
#include "torus/index.hpp"

namespace bgl {

struct SchedulerPassScratch;
class ISchedulingAlgorithm;

class Scheduler {
 public:
  Scheduler(const PartitionCatalog& catalog, std::unique_ptr<PlacementPolicy> policy,
            const FaultPredictor& predictor, SchedulerConfig config = {});
  ~Scheduler();

  /// Decide which jobs to start (and which running jobs to migrate) at time
  /// `now`. `queue` must be in FCFS priority order; `running` carries the
  /// current partition and estimated finish of every executing job.
  ///
  /// `index` is the current occupancy: every running job's partition plus
  /// any node blocked for another reason (down). The pass answers candidate
  /// enumeration and every MFP query through it and advances it in place:
  /// each start occupies its partition and a migration re-pack resets it to
  /// the re-packed occupancy. On return it holds the post-decision
  /// occupancy, so the caller commits the decision to everything but the
  /// index.
  SchedulingDecision schedule(double now, const std::vector<WaitingJob>& queue,
                              const std::vector<RunningJob>& running,
                              FreePartitionIndex& index) const;

  const SchedulerConfig& config() const { return config_; }
  std::string name() const { return policy_->name(); }
  /// The discipline's registry name ("krevat", "easy", ...).
  std::string algorithm_name() const;

  /// Attach observability hooks (nullable; see src/obs/observer.hpp). With
  /// the default (disabled) observer, schedule() behaves and costs exactly
  /// as if this call never happened. The counters must outlive the engine.
  void set_observer(const obs::Observer& obs) { obs_ = obs; }
  const obs::Observer& observer() const { return obs_; }

 private:
  const PartitionCatalog* catalog_;
  std::unique_ptr<PlacementPolicy> policy_;
  const FaultPredictor* predictor_;
  SchedulerConfig config_;
  /// The configured discipline (config_.algorithm), stateless across passes.
  std::unique_ptr<ISchedulingAlgorithm> algorithm_;
  obs::Observer obs_{};
  /// Pooled per-pass scratch (arena + flag sets + live-job copy), reused
  /// across schedule() calls so the steady-state pass performs no heap
  /// allocation. Purely a cache: it is overwritten from the call's inputs
  /// before any read.
  const std::unique_ptr<SchedulerPassScratch> pass_scratch_;
};

/// Factory helpers for the three paper schedulers.
std::unique_ptr<Scheduler> make_krevat_scheduler(const PartitionCatalog& catalog,
                                                 const FaultPredictor& predictor,
                                                 SchedulerConfig config = {});
std::unique_ptr<Scheduler> make_balancing_scheduler(const PartitionCatalog& catalog,
                                                    const FaultPredictor& predictor,
                                                    SchedulerConfig config = {});
std::unique_ptr<Scheduler> make_tiebreak_scheduler(const PartitionCatalog& catalog,
                                                   const FaultPredictor& predictor,
                                                   SchedulerConfig config = {});

}  // namespace bgl
