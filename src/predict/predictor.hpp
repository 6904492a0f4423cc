// Fault predictors (§4 of the paper).
//
// The paper deliberately does not run a real prediction algorithm; it
// *simulates* one against the ground-truth failure log with a single knob:
//
//   * BalancingPredictor (§4.1) — flags exactly the nodes that truly fail
//     inside the query window and assigns each the probability a
//     ("confidence"). The balancing scheduler converts the per-node
//     probabilities into a partition failure probability.
//   * TieBreakPredictor (§4.2) — boolean forecasts with false-negative
//     probability 1 - a ("accuracy") and, by default, zero false positives
//     (the paper argues measured p_f+ stays below half of p_f-; we expose
//     an optional false-positive rate for that ablation).
//
// Stochastic predictors must answer the *same* question identically when
// the scheduler re-asks it while comparing candidate partitions during one
// decision. We therefore derive each per-node coin from a hash of
// (predictor seed, node, query_key), where the scheduler passes the job id
// as query_key: deterministic per (job, node), independent across jobs.
//
// The interface returns the full flagged-node bitmask for a window; the
// placement policies intersect it with candidate partition masks, which
// keeps the per-candidate cost at two word-ops.
#pragma once

#include <cstdint>
#include <memory>

#include "failure/trace.hpp"
#include "torus/nodeset.hpp"

namespace bgl {

class FaultPredictor {
 public:
  virtual ~FaultPredictor() = default;

  // --- observation interface (event-fed lifecycle) -----------------------
  //
  // The clock owner feeds the predictor the failure stream as it unfolds;
  // in every frontend that is svc/SchedulerService, whether the event came
  // from the discrete-event simulator or a live stream: observe_failure()
  // at every node failure, observe_repair() when a down node returns, and
  // advance() at every accepted event so time-based state (flag expiry) can
  // retire. The paper's oracle predictors answer from the ground-truth
  // trace and ignore all three (the no-op defaults below keep every golden
  // CSV byte-identical); learned predictors (AdaptivePredictor) build their
  // entire state from these calls and never see the future.
  //
  // Contract for implementers: advance(t) must be monotone and idempotent —
  // advance(a); advance(b) with a <= b must leave the same state as
  // advance(b) alone — because callers advance at whatever event times they
  // happen to see (evaluate_predictor_online steps on a fixed grid, the
  // service on stream events). Queries must not mutate state: they are
  // re-asked within one scheduling pass.

  /// A node failed at time `t`. How long it stays down is not known up
  /// front: a down node's return arrives as observe_repair().
  virtual void observe_failure(int node, double t) { (void)node, (void)t; }

  /// A down node came back at time `t`.
  virtual void observe_repair(int node, double t) { (void)node, (void)t; }

  /// Simulation/stream time reached `t`; retire expired internal state.
  virtual void advance(double t) { (void)t; }

  /// Nodes flagged as "will fail" for the window (t0, t1]. `query_key`
  /// seeds any stochastic decisions (pass the job id).
  virtual NodeSet flagged_nodes(double t0, double t1,
                                std::uint64_t query_key) const = 0;

  /// Same verdict written into `out` (resized to the machine if needed).
  /// The scheduler issues one query per candidate-bearing job, so the
  /// by-value form would put one bitset allocation per placement on the hot
  /// path; subclasses override this to fill in place. The default delegates
  /// to flagged_nodes() so third-party predictors stay correct unchanged.
  virtual void flagged_nodes_into(NodeSet& out, double t0, double t1,
                                  std::uint64_t query_key) const {
    out = flagged_nodes(t0, t1, query_key);
  }

  /// Probability the predictor attaches to each flagged node (the paper's
  /// confidence a for the balancing predictor; 1.0 for boolean predictors).
  virtual double confidence() const = 0;
};

/// Never predicts anything (the fault-unaware baseline, a = 0).
class NullPredictor final : public FaultPredictor {
 public:
  explicit NullPredictor(int num_nodes) : num_nodes_(num_nodes) {}
  NodeSet flagged_nodes(double, double, std::uint64_t) const override {
    return NodeSet(num_nodes_);
  }
  void flagged_nodes_into(NodeSet& out, double, double, std::uint64_t) const override {
    if (out.bits() != num_nodes_) out = NodeSet(num_nodes_);
    out.clear();
  }
  double confidence() const override { return 0.0; }

 private:
  int num_nodes_;
};

/// §4.1: flags the true failing nodes, each with probability `confidence`.
class BalancingPredictor final : public FaultPredictor {
 public:
  BalancingPredictor(const FailureTrace& trace, double confidence);
  NodeSet flagged_nodes(double t0, double t1, std::uint64_t) const override;
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override;
  double confidence() const override { return confidence_; }

 private:
  const FailureTrace* trace_;
  double confidence_;
};

/// §4.2: boolean forecast; true failing nodes are reported with probability
/// `accuracy` (false-negative rate 1 - accuracy); healthy nodes are never
/// reported (the paper sets the false-positive rate to zero).
class TieBreakPredictor final : public FaultPredictor {
 public:
  TieBreakPredictor(const FailureTrace& trace, double accuracy,
                    std::uint64_t seed = 0x74696562726bULL);
  NodeSet flagged_nodes(double t0, double t1, std::uint64_t query_key) const override;
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t query_key) const override;
  double confidence() const override { return 1.0; }
  double accuracy() const { return accuracy_; }

 private:
  const FailureTrace* trace_;
  double accuracy_;
  std::uint64_t seed_;
  /// Ground-truth scratch for the in-place query path. Predictors are
  /// consulted from one scheduler pass at a time (each driver owns its
  /// predictor), so a single buffer suffices.
  mutable NodeSet truth_scratch_;
};

/// A *real* predictor (extension): flags node n for a future window iff n
/// failed within the preceding `lookback` seconds. Unlike the paper's
/// simulated predictors it never peeks at the future; its effectiveness
/// comes entirely from the empirical structure of failure logs — temporal
/// bursts and repeat-offender nodes (Sahoo et al., KDD'03). Its realised
/// precision/recall can be measured with evaluate_predictor() and compared
/// against the paper's parametric confidence knob.
class HistoryPredictor final : public FaultPredictor {
 public:
  HistoryPredictor(const FailureTrace& trace, double lookback_seconds,
                   double confidence = 0.5);
  NodeSet flagged_nodes(double t0, double t1, std::uint64_t) const override;
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override;
  double confidence() const override { return confidence_; }
  double lookback() const { return lookback_; }

 private:
  const FailureTrace* trace_;
  double lookback_;
  double confidence_;
};

/// Realised forecast quality of a predictor measured against ground truth:
/// sample windows of length `window` every `step` seconds across the trace
/// span and compare flagged vs actually-failing node sets.
struct PredictionQuality {
  double precision = 0.0;  ///< flagged ∩ failing / flagged
  double recall = 0.0;     ///< flagged ∩ failing / failing
  std::size_t windows = 0;
  std::size_t flagged = 0;
  std::size_t failing = 0;
};

PredictionQuality evaluate_predictor(const FaultPredictor& predictor,
                                     const FailureTrace& truth, double window,
                                     double step);

/// Online/rolling variant: before each sampled window starting at t, the
/// predictor is fed (observe_failure + advance) every truth event with time
/// <= t — exactly the information a live deployment would have — and only
/// then queried for (t, t + window]. For the oracle predictors (no-op
/// observers) this returns the same numbers as evaluate_predictor(); for
/// event-fed predictors it measures *realized* precision/recall with no
/// future leakage. Takes the predictor by non-const reference because
/// feeding observations mutates it; evaluate a fresh instance, not one
/// mid-simulation.
PredictionQuality evaluate_predictor_online(FaultPredictor& predictor,
                                            const FailureTrace& truth,
                                            double window, double step);

/// Oracle: flags exactly the failing nodes with probability 1 (upper bound).
class PerfectPredictor final : public FaultPredictor {
 public:
  explicit PerfectPredictor(const FailureTrace& trace) : trace_(&trace) {}
  NodeSet flagged_nodes(double t0, double t1, std::uint64_t) const override {
    return trace_->failing_nodes(t0, t1);
  }
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override {
    trace_->failing_nodes_into(out, t0, t1);
  }
  double confidence() const override { return 1.0; }

 private:
  const FailureTrace* trace_;
};

}  // namespace bgl
