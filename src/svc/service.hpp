// SchedulerService: the scheduler core split from the clock.
//
// The service owns everything a scheduling decision depends on — the
// Scheduler engine, the PartitionCatalog + FreePartitionIndex, the waiting
// queue, torus occupancy, the down-node overlay, the predictor feed, and
// each job's remaining work under the checkpoint model — but owns no clock
// and no pending-event set. Time only advances when an Event arrives; each
// event is validated, applied, and answered with zero or more Decisions
// (start/kill/migrate). That inversion lets one core be driven by every
// clock:
//
//   * the discrete-event simulator: run_simulation (sim/driver.hpp) is the
//     DES loop in svc/sim_adapter.cpp, which pops arrivals, finishes,
//     failures and repairs and hands each one to this service;
//   * a live JSONL stream over stdin or a Unix socket (svc/server.hpp,
//     tools/sched_server);
//   * tests and load generators (tools/loadgen).
//
// Events the service refuses (unknown job, duplicate id, time running
// backwards, ...) raise ProtocolError and leave the state untouched, so a
// remote client's bad line cannot kill the server.
//
// Tracing: with ServiceConfig::obs.trace attached the service emits the
// standard JSONL schema (sim_begin lazily at the first event, job_submit /
// sched_decision / job_start / migration / node_failure / node_repair /
// checkpoint / job_kill / job_finish, periodic machine_state / metrics, and
// sim_end from finish_stream()), auditable by tools/trace_audit --strict.
// Job ids are the ids the clock submitted (workload indices under the
// simulator); docs/OBSERVABILITY.md lists the schema.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "failure/trace.hpp"
#include "obs/observer.hpp"
#include "sched/types.hpp"
#include "sim/metrics.hpp"
#include "svc/config.hpp"
#include "svc/protocol.hpp"
#include "torus/catalog.hpp"
#include "torus/index.hpp"
#include "torus/occupancy.hpp"

namespace bgl {
class Scheduler;
class FaultPredictor;
}  // namespace bgl

namespace bgl::obs {
class LatencyRing;
}  // namespace bgl::obs

namespace bgl::svc {

/// What a clock knows about its stream before the first event, reported on
/// the sim_begin trace line. The simulator announces it; a live stream has
/// no census, and its sim_begin reports jobs=0 and failure_events=0
/// ("unknown").
struct StreamCensus {
  std::int64_t jobs = 0;
  std::int64_t failure_events = 0;
};

/// Counts the service accumulates across a session (for summary() and the
/// server's stats line).
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::size_t starts = 0;
  std::size_t kills = 0;
  std::size_t avoidable_kills = 0;
  std::size_t migrations = 0;
  std::size_t failures = 0;
  std::size_t failures_hitting_jobs = 0;
  std::size_t starts_on_flagged = 0;
  std::size_t flagged_with_alternative = 0;
  std::size_t checkpoints = 0;  ///< Checkpoints behind kills and finishes.
  double work_lost_node_seconds = 0.0;
};

class SchedulerService {
 public:
  /// `oracle` (nullable, borrowed) feeds the paper's simulated predictors;
  /// required iff the configured predictor model consults one (throws the
  /// typed OracleRequiredError — naming the model — otherwise; kAdaptive
  /// and kNone need no oracle). `shared_catalog` (nullable, borrowed) skips
  /// catalog construction, exactly like run_simulation's parameter.
  explicit SchedulerService(const ServiceConfig& config,
                            const FailureTrace* oracle = nullptr,
                            const PartitionCatalog* shared_catalog = nullptr);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Record the stream census for sim_begin. Call before the first event.
  void announce(const StreamCensus& census) { census_ = census; }

  /// Apply one event; decisions are appended to `out` in application order
  /// (kills of the fail event first, then migrations, then starts). Throws
  /// ProtocolError — with the service state unchanged — on an event it
  /// refuses. `line` tags the error with the input line for the session
  /// loop; pass 0 from library callers.
  void handle(const Event& event, std::vector<Decision>& out,
              std::size_t line = 0);

  /// End of stream: emit the sim_end trace event (from summary()) iff
  /// tracing is on, at least one job was submitted, and no job is still
  /// waiting or running. Returns true when sim_end was written (or already
  /// had been).
  bool finish_stream();

  /// The session's §6.1 aggregates: the counts, the span from the first
  /// submit to the last completion, the wait/response/slowdown stats of the
  /// completed jobs, and utilization/unused/lost from the capacity
  /// integral. run_simulation returns this plus its clock-side vectors.
  SimResult summary() const;

  // --- views (used by the sim adapter and the server's stats line) ---
  double now() const { return now_; }
  /// Work a submitted job still has to compute (its runtime less the
  /// progress saved by checkpoints, plus restart overheads; +inf when the
  /// runtime is unknown). The simulator turns it into a finish time.
  double remaining_work(std::uint64_t job) const;
  /// Outcome of the job completed by the most recent complete event.
  const JobOutcome& last_outcome() const { return last_outcome_; }
  /// Nodes neither occupied nor down (the capacity integrator's f(t)).
  int usable_free_nodes() const;
  /// Whether `node` is in the down overlay (failed with "down":true and not
  /// yet repaired).
  bool is_down(int node) const { return down_.test(node); }
  std::size_t waiting_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }
  const ServiceStats& stats() const { return stats_; }
  const PartitionCatalog& catalog() const { return *catalog_; }

 private:
  enum class Phase : std::uint8_t { kWaiting, kRunning, kDone };

  /// One record per job ever submitted (kept for duplicate-id detection),
  /// so it stays small: the allocation size is a catalog table lookup and
  /// is not stored.
  struct JobRec {
    std::uint64_t id = 0;
    double arrival = 0.0;
    double estimate = 0.0;
    double runtime = -1.0;  ///< As submitted; < 0 when unknown.
    double remaining_work = 0.0;
    double first_start = -1.0;
    double last_start = -1.0;
    int size = 1;
    int restarts = 0;
    int entry = -1;
    Phase phase = Phase::kWaiting;
  };

  void build_scheduler(const FailureTrace* oracle);
  void ensure_begin(double t);
  void advance_integrator(const Event& event);
  /// Record of a submitted job id, or null.
  JobRec* find(std::uint64_t id);
  void enqueue(JobRec& job);
  void run_pass(double now, std::vector<Decision>& out);
  void kill_job(JobRec& job, double now, int node, std::vector<Decision>& out);
  void release_allocation(JobRec& job);

  void on_submit(const Event& e, std::vector<Decision>& out, std::size_t line);
  void on_complete(const Event& e, std::vector<Decision>& out, std::size_t line);
  void on_fail(const Event& e, std::vector<Decision>& out);
  void on_repair(const Event& e, std::vector<Decision>& out, std::size_t line);

  /// Emit machine_state / metrics events for every cadence boundary ≤
  /// `horizon`, in time order (machine_state first on ties). Called by the
  /// accepted-event handlers before their own trace lines.
  void emit_snapshots_until(double horizon);
  void emit_machine_state(double t);
  void emit_metrics(double t);

  /// Down nodes stay blocked in the index when a victim's partition is
  /// released (a kill caused by a down failure frees the partition while
  /// the failed node stays in the overlay).
  void index_release(const NodeSet& mask) {
    if (down_count_ == 0) {
      index_.release(mask);
    } else {
      NodeSet m = mask;
      m.subtract(down_);
      index_.release(m);
    }
  }

  const ServiceConfig config_;
  std::unique_ptr<PartitionCatalog> owned_catalog_;
  const PartitionCatalog* catalog_;
  TorusOccupancy torus_;
  /// The scheduling occupancy: torus allocations plus down nodes. Every
  /// pass reads and advances it; run_pass checks it against both owners.
  FreePartitionIndex index_;
  std::unique_ptr<FaultPredictor> predictor_;
  std::unique_ptr<Scheduler> scheduler_;

  // The map is consulted once per event or decision; the queue comparator
  // and the per-pass views follow the pointers (element addresses in an
  // unordered_map survive rehashing).
  std::unordered_map<std::uint64_t, JobRec> jobs_;
  std::vector<JobRec*> queue_;    ///< Waiting jobs, priority order.
  std::vector<JobRec*> running_;  ///< Running jobs, unordered.

  NodeSet down_;
  int down_count_ = 0;  ///< |down_|, so the common no-down case is O(1).
  double now_ = 0.0;
  bool any_event_ = false;

  // Session aggregates for summary() (same recomputation rules trace_audit
  // applies: utilization from the runtimes traced in job_submit).
  CapacityIntegrator integrator_;  ///< Also holds q(t), the queued demand.
  double min_submit_ = 0.0;
  double max_finish_ = 0.0;
  double useful_work_ = 0.0;
  RunningStats wait_;
  RunningStats response_;
  RunningStats slowdown_;
  ServiceStats stats_;
  JobOutcome last_outcome_;
  StreamCensus census_;

  obs::TraceSink* tr_;
  obs::HistogramRegistry* hg_;
  obs::CounterRegistry* ct_;
  bool begin_emitted_ = false;
  bool end_emitted_ = false;
  bool cadences_anchored_ = false;

  // Periodic-emission state: cadence cursors anchored at the first event,
  // the metrics window's event counts — incremented exactly where the
  // matching trace lines are written — and the wall-clock latency ring over
  // the window's scheduler passes.
  double next_snapshot_ = 0.0;  ///< 0 = off / not yet anchored.
  double next_metrics_ = 0.0;
  double last_metrics_t_ = 0.0;
  std::int64_t m_submits_ = 0;
  std::int64_t m_starts_ = 0;
  std::int64_t m_finishes_ = 0;
  std::int64_t m_kills_ = 0;
  std::int64_t m_migrations_ = 0;
  std::int64_t m_decisions_ = 0;
  std::unique_ptr<obs::LatencyRing> decision_ring_;  ///< Null = metrics off.

  // Rolling forecast scorer: the flagged set captured at each metrics
  // boundary is scored against the nodes that failed inside the window
  // (pred_tp/pred_fp/pred_fn metrics fields + cumulative pred.* counters
  // for prometheus_render). Armed when metrics_interval > 0 and a
  // trace sink or counter registry is attached.
  bool pred_armed_ = false;
  NodeSet pred_flagged_;
  NodeSet pred_failed_;
};

}  // namespace bgl::svc
