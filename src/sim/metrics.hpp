// Scheduling metrics (§3.4 and §6.1 of the paper).
//
// Timing metrics per job j:
//   wait t_w = t_s - t_a         (last start minus arrival)
//   response t_r = t_f - t_a
//   bounded slowdown t_b = max(t_r, Γ) / max(t_d, Γ), Γ = 10 s,
//     where t_d defaults to the job's actual execution time (the standard
//     definition and what the paper's numbers require); the literal formula
//     in the paper prints min(·, Γ) in the denominator — an erratum we
//     expose behind use_paper_min_denominator for sensitivity checks, and
//     use_estimate_denominator switches t_d to the user estimate.
//
// Capacity metrics over the span T = max t_f - min t_a on N nodes:
//   ω_util   = Σ s_j * t_j / (T N)       (useful work, counted once)
//   ω_unused = ∫ max(0, f(t) - q(t)) dt / (T N)
//   ω_lost   = 1 - ω_util - ω_unused
// with f(t) free nodes and q(t) node demand of the waiting queue; the
// integral is exact because both are piecewise constant between events.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/stats.hpp"

namespace bgl {

struct MetricsConfig {
  double gamma = 10.0;
  bool use_paper_min_denominator = false;
  bool use_estimate_denominator = false;
};

/// Final per-job record.
struct JobOutcome {
  std::uint64_t id = 0;
  int size = 0;
  double arrival = 0.0;
  double first_start = 0.0;
  double last_start = 0.0;
  double finish = 0.0;
  double runtime = 0.0;   ///< Actual execution time of the successful run.
  double estimate = 0.0;
  int restarts = 0;       ///< Times the job was killed by a failure.

  double wait() const { return last_start - arrival; }
  double response() const { return finish - arrival; }
};

/// Bounded slowdown under the chosen convention.
double bounded_slowdown(const JobOutcome& job, const MetricsConfig& config);

/// Exact integrator of max(0, f(t) - q(t)) over the piecewise-constant
/// timeline. Call advance(t) *before* mutating f or q at time t.
class CapacityIntegrator {
 public:
  void start(double t0, int free_nodes, long long queued_demand);
  void advance(double t);
  void set_free(int free_nodes) { free_ = free_nodes; }
  void add_queued(long long delta) { queued_ += delta; }
  long long queued_demand() const { return queued_; }
  double unused_integral() const { return integral_; }

 private:
  bool started_ = false;
  double last_time_ = 0.0;
  int free_ = 0;
  long long queued_ = 0;
  double integral_ = 0.0;
};

/// Aggregate result of one simulation run.
struct SimResult {
  std::size_t jobs_completed = 0;
  std::size_t job_kills = 0;        ///< Job restarts caused by failures.
  /// Kills whose failure fell inside the job's placement-time prediction
  /// window (last start, last start + estimate]: a perfect predictor would
  /// have flagged the node when the scheduler placed the job.
  std::size_t avoidable_kills = 0;
  /// Placements whose partition contained a predictor-flagged node, and the
  /// subset that had a flag-free candidate available at decision time.
  std::size_t starts_on_flagged = 0;
  std::size_t flagged_with_alternative = 0;
  std::size_t failures_hitting_jobs = 0;
  std::size_t failures_total = 0;
  std::size_t migrations = 0;
  std::size_t checkpoints_taken = 0;

  double span = 0.0;                ///< T = max t_f - min t_a.
  double avg_wait = 0.0;
  double avg_response = 0.0;
  double avg_bounded_slowdown = 0.0;
  double utilization = 0.0;         ///< ω_util
  double unused = 0.0;              ///< ω_unused
  double lost = 0.0;                ///< ω_lost
  double work_lost_node_seconds = 0.0;  ///< Raw work destroyed by kills.
  /// Host wall-clock seconds spent inside run_simulation (perf reporting
  /// only; never part of the simulated metrics above).
  double wall_seconds = 0.0;

  RunningStats wait_stats;
  RunningStats response_stats;
  RunningStats slowdown_stats;

  std::vector<JobOutcome> outcomes;  ///< Filled when requested.
};

/// Order-sensitive digest of every scalar a scheduling decision can move
/// (counts plus the bit patterns of the aggregate doubles; wall_seconds and
/// the per-job vectors are excluded). Two runs that took literally identical
/// decisions — not merely statistically similar ones — produce equal digests,
/// which is what the engine-vs-service and reference-vs-optimized
/// differential tests compare.
std::uint64_t sim_result_checksum(const SimResult& result);

/// One JSON object with the scalar metrics of `result` plus spread
/// (stddev/min/max) for the per-job timing distributions. Composed with the
/// counter dump into the CLI's --stats-out file (docs/OBSERVABILITY.md).
void write_result_json(std::ostream& out, const SimResult& result);

}  // namespace bgl
