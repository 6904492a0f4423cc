// The scheduling-algorithm seam (docs/SCHEDULERS.md).
//
// A pass of the engine has three orthogonal policy dimensions:
//
//   queue traversal + reservation discipline   ISchedulingAlgorithm (here)
//   placement scoring                          PlacementPolicy (policy.hpp)
//   fault prediction                           FaultPredictor (predict/)
//
// The Scheduler prepares one SchedulingPass — the caller's free-partition
// index (the pass's occupancy, advanced in place), the live-job view, the
// decision being built, counters/trace plumbing — and hands it to the
// configured algorithm, which owns only the *discipline*: which queued jobs
// to try, in what order, and under which reservation constraints. Every mutation goes through the pass
// (place / try_migration / reservation), so any algorithm composes with any
// scorer, any predictor, the migration machinery, and the incremental index
// without re-implementing the bookkeeping or the observability contract.
//
// Four disciplines ship (SchedAlgorithm in types.hpp), from two loops.
// Both start from the pass's FCFS prefix (SchedulingPass::fcfs_prefix):
//
//   krevat        algo_krevat.cpp — the paper's engine, frozen: decisions,
//                 counters and traces are byte-identical to the pre-seam
//                 scheduler (differential-tested and pinned by the golden
//                 figure-CSV hashes in bench/golden/).
//   easy          algo_krevat.cpp — the same loop under BackfillMode::kEasy;
//                 the blocked head's reservation is recorded in the
//                 decision trail and stamped on every backfill start.
//   easy-holdback algo_krevat.cpp — easy plus a free-node floor for fillers.
//   conservative  algo_conservative.cpp — a queue-order reservation profile;
//                 fillers may delay no reserved job.
//
// To add an algorithm: implement ISchedulingAlgorithm in a new
// algo_*.cpp (starting from pass.fcfs_prefix() if it is FCFS-first), extend
// SchedAlgorithm + to_string/parse_sched_algorithm (types.hpp /
// algorithm.cpp), register it in make_scheduling_algorithm(), and say in
// require_supported_backfill() which BackfillModes it runs.
// docs/SCHEDULERS.md walks through it.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "predict/predictor.hpp"
#include "sched/arena.hpp"
#include "sched/backfill.hpp"
#include "sched/policy.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"
#include "torus/index.hpp"

namespace bgl {

/// Everything one scheduling pass needs that would otherwise be allocated
/// fresh per decision: the bump arena feeding the int/job scratch arrays, the
/// two full-width node sets, and the containers whose elements own heap
/// memory (Reservation masks) and therefore stay std::vector. The engine
/// keeps one of these across passes, so the steady-state pass allocates
/// nothing.
struct SchedulerPassScratch {
  PlacementArena arena;
  NodeSet flagged;    ///< Predictor verdict for the job under consideration.
  NodeSet obstacles;  ///< Non-job occupancy seeded into migration re-packs.
  std::vector<RunningJob> live;
  std::vector<Reservation> reservations;
};

/// One scheduling pass: the engine-owned state an algorithm drives. All
/// mutation of the decision / index (the occupancy) happens through the
/// methods here, which also keep the observability contract (counters,
/// histograms, audit records) identical across algorithms.
class SchedulingPass {
 public:
  SchedulingPass(const PartitionCatalog& catalog, PlacementPolicy& policy,
                 const FaultPredictor& predictor, const SchedulerConfig& config,
                 const obs::Observer& obs, double now,
                 const std::vector<WaitingJob>& queue,
                 SchedulerPassScratch& scratch, FreePartitionIndex& index,
                 SchedulingDecision& decision);

  SchedulingPass(const SchedulingPass&) = delete;
  SchedulingPass& operator=(const SchedulingPass&) = delete;

  // --- read-only views ---
  double now() const { return now_; }
  const std::vector<WaitingJob>& queue() const { return *queue_; }
  const PartitionCatalog& catalog() const { return *catalog_; }
  const SchedulerConfig& config() const { return *config_; }
  /// Running jobs plus everything started earlier in this pass.
  const std::vector<RunningJob>& live() const;
  /// Current occupancy: the index's, which already holds this pass's
  /// starts and any re-pack.
  const NodeSet& occupied() const { return idx_->occupied(); }
  bool placed(std::size_t q) const { return placed_[q] != 0; }

  /// The per-decision bump arena backing short-lived scratch: the
  /// algorithms', compute_reservation's and try_repack's.
  PlacementArena& scratch_arena();
  /// Pooled reservation scratch (elements own heap masks, so it stays a
  /// std::vector reused across passes).
  std::vector<Reservation>& reservation_scratch();

  /// The pass's phase profiler (null when profiling is off). Algorithms use
  /// it to open the one span the engine cannot place for them — their own
  /// backfill section (obs::Phase::kBackfill) — so enumerate/place/
  /// reservation spans nest under it in the tree.
  obs::PhaseProfiler* profiler() const { return obs_->profiler; }

  // --- actions ---
  /// Enumerate the free partitions of `alloc_size` from the index into an
  /// internal scratch list and account the scan. The span is valid until
  /// the next call.
  std::span<const int> free_candidates(int alloc_size);

  /// Score `candidates` with the placement policy and commit the winner:
  /// index, live set, counters, histogram, audit record. Marks
  /// queue position `q` placed. `res`, when non-null, is the binding
  /// reservation the placement was admitted against (recorded on the
  /// PlacementRecord so the trace carries reservation provenance).
  void place(std::size_t q, std::span<const int> candidates, bool backfill,
             const Reservation* res = nullptr);

  /// One compaction attempt for a blocked job of `alloc_size` — at most one
  /// per pass, and only when config().migration is on and jobs are live.
  /// On success the index and live set are rewritten (and same-pass
  /// starts re-pointed); the caller should retry the blocked job.
  bool try_migration(int alloc_size);

  /// The FCFS prefix every discipline starts from: start queued jobs in
  /// order while each has a free candidate, giving the first that has none
  /// one compaction attempt (try_migration) and a retry. Returns the
  /// blocked head's queue position, or queue().size() when every job
  /// started.
  std::size_t fcfs_prefix();

  /// Earliest-start reservation for `alloc_size` against the live set.
  std::optional<Reservation> reservation(int alloc_size) const;

  /// Record a granted reservation in the decision audit trail (no-op unless
  /// tracing; krevat deliberately never calls this — see types.hpp).
  void note_reservation(std::uint64_t job_id, const Reservation& r);

 private:
  const NodeSet& query_predictor(const WaitingJob& job);

  const PartitionCatalog* catalog_;
  PlacementPolicy* policy_;
  const FaultPredictor* predictor_;
  const SchedulerConfig* config_;
  const obs::Observer* obs_;
  bool tracing_;
  double now_;
  const std::vector<WaitingJob>* queue_;
  SchedulerPassScratch* s_;
  FreePartitionIndex* idx_;
  SchedulingDecision* decision_;
  ArenaVector<char> placed_;
  ArenaVector<int> candidates_;
  bool migration_tried_ = false;
};

/// A scheduling discipline. Stateless across passes: run() must be a pure
/// function of the pass (the Scheduler reuses one instance for its
/// lifetime, and the decision must depend on schedule()'s inputs alone).
class ISchedulingAlgorithm {
 public:
  virtual ~ISchedulingAlgorithm() = default;
  virtual const char* name() const = 0;
  virtual void run(SchedulingPass& pass) const = 0;
};

/// Registry: the concrete algorithm for a SchedAlgorithm value.
std::unique_ptr<ISchedulingAlgorithm> make_scheduling_algorithm(
    SchedAlgorithm algorithm);

// Factories, one per algo_*.cpp. The FCFS-backfill loop serves krevat, easy
// and easy-holdback; make_scheduling_algorithm() fixes its two flags from
// the SchedAlgorithm value (neither is a user-settable option):
// `record_reservations` makes the pass note the head's reservation and
// stamp it on every filler (easy, easy-holdback), `holdback` applies the
// kHoldbackNodes floor (easy-holdback). `algorithm` names the instance.
std::unique_ptr<ISchedulingAlgorithm> make_fcfs_backfill_algorithm(
    SchedAlgorithm algorithm, bool record_reservations, bool holdback);
std::unique_ptr<ISchedulingAlgorithm> make_conservative_algorithm();

}  // namespace bgl
