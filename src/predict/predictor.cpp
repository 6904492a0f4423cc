#include "predict/predictor.hpp"

#include <bit>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bgl {

namespace {
/// Deterministic uniform in [0, 1) from a (seed, node, key) triple.
double coin(std::uint64_t seed, int node, std::uint64_t key) {
  const std::uint64_t h =
      hash_combine(hash_combine(seed, static_cast<std::uint64_t>(node)), key);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}
}  // namespace

BalancingPredictor::BalancingPredictor(const FailureTrace& trace, double confidence)
    : trace_(&trace), confidence_(confidence) {
  BGL_CHECK(confidence >= 0.0 && confidence <= 1.0,
            "prediction confidence must lie in [0, 1]");
}

NodeSet BalancingPredictor::flagged_nodes(double t0, double t1, std::uint64_t) const {
  if (confidence_ <= 0.0) return NodeSet(trace_->num_nodes());
  return trace_->failing_nodes(t0, t1);
}

void BalancingPredictor::flagged_nodes_into(NodeSet& out, double t0, double t1,
                                            std::uint64_t) const {
  if (confidence_ <= 0.0) {
    if (out.bits() != trace_->num_nodes()) out = NodeSet(trace_->num_nodes());
    out.clear();
    return;
  }
  trace_->failing_nodes_into(out, t0, t1);
}

TieBreakPredictor::TieBreakPredictor(const FailureTrace& trace, double accuracy,
                                     std::uint64_t seed)
    : trace_(&trace), accuracy_(accuracy), seed_(seed) {
  BGL_CHECK(accuracy >= 0.0 && accuracy <= 1.0, "accuracy must lie in [0, 1]");
}

NodeSet TieBreakPredictor::flagged_nodes(double t0, double t1,
                                         std::uint64_t query_key) const {
  NodeSet flagged(trace_->num_nodes());
  flagged_nodes_into(flagged, t0, t1, query_key);
  return flagged;
}

void TieBreakPredictor::flagged_nodes_into(NodeSet& out, double t0, double t1,
                                           std::uint64_t query_key) const {
  trace_->failing_nodes_into(truth_scratch_, t0, t1);
  if (out.bits() != trace_->num_nodes()) out = NodeSet(trace_->num_nodes());
  out.clear();
  if (accuracy_ <= 0.0) return;
  const NodeSet::WordSpan words = truth_scratch_.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w) {
      const int node = static_cast<int>(wi * 64) + std::countr_zero(w);
      w &= w - 1;
      if (coin(seed_, node, query_key) < accuracy_) out.set(node);
    }
  }
}

HistoryPredictor::HistoryPredictor(const FailureTrace& trace, double lookback_seconds,
                                   double confidence)
    : trace_(&trace), lookback_(lookback_seconds), confidence_(confidence) {
  BGL_CHECK(lookback_seconds > 0.0, "lookback must be positive");
  BGL_CHECK(confidence >= 0.0 && confidence <= 1.0, "confidence must lie in [0, 1]");
}

NodeSet HistoryPredictor::flagged_nodes(double t0, double t1, std::uint64_t) const {
  (void)t1;  // the forecast window length does not change what we know
  // Past information only: failures in (t0 - lookback, t0].
  return trace_->failing_nodes(t0 - lookback_, t0);
}

void HistoryPredictor::flagged_nodes_into(NodeSet& out, double t0, double t1,
                                          std::uint64_t) const {
  (void)t1;
  trace_->failing_nodes_into(out, t0 - lookback_, t0);
}

PredictionQuality evaluate_predictor(const FaultPredictor& predictor,
                                     const FailureTrace& truth, double window,
                                     double step) {
  BGL_CHECK(window > 0.0 && step > 0.0, "window and step must be positive");
  PredictionQuality quality;
  if (truth.empty()) return quality;
  const double t_begin = truth.events().front().time;
  const double t_end = truth.events().back().time;
  std::size_t true_positives = 0;
  std::uint64_t key = 0;
  for (double t = t_begin; t + window <= t_end; t += step, ++key) {
    const NodeSet flagged = predictor.flagged_nodes(t, t + window, key);
    const NodeSet failing = truth.failing_nodes(t, t + window);
    quality.flagged += static_cast<std::size_t>(flagged.count());
    quality.failing += static_cast<std::size_t>(failing.count());
    true_positives += static_cast<std::size_t>(flagged.intersect_count(failing));
    ++quality.windows;
  }
  if (quality.flagged > 0) {
    quality.precision = static_cast<double>(true_positives) /
                        static_cast<double>(quality.flagged);
  }
  if (quality.failing > 0) {
    quality.recall = static_cast<double>(true_positives) /
                     static_cast<double>(quality.failing);
  }
  return quality;
}

PredictionQuality evaluate_predictor_online(FaultPredictor& predictor,
                                            const FailureTrace& truth,
                                            double window, double step) {
  BGL_CHECK(window > 0.0 && step > 0.0, "window and step must be positive");
  PredictionQuality quality;
  if (truth.empty()) return quality;
  const std::vector<FailureEvent>& events = truth.events();
  const double t_begin = events.front().time;
  const double t_end = events.back().time;
  std::size_t true_positives = 0;
  std::size_t fed = 0;  ///< Truth events already shown to the predictor.
  std::uint64_t key = 0;
  for (double t = t_begin; t + window <= t_end; t += step, ++key) {
    while (fed < events.size() && events[fed].time <= t) {
      predictor.observe_failure(events[fed].node, events[fed].time);
      ++fed;
    }
    predictor.advance(t);
    const NodeSet flagged = predictor.flagged_nodes(t, t + window, key);
    const NodeSet failing = truth.failing_nodes(t, t + window);
    quality.flagged += static_cast<std::size_t>(flagged.count());
    quality.failing += static_cast<std::size_t>(failing.count());
    true_positives += static_cast<std::size_t>(flagged.intersect_count(failing));
    ++quality.windows;
  }
  if (quality.flagged > 0) {
    quality.precision = static_cast<double>(true_positives) /
                        static_cast<double>(quality.flagged);
  }
  if (quality.failing > 0) {
    quality.recall = static_cast<double>(true_positives) /
                     static_cast<double>(quality.failing);
  }
  return quality;
}

}  // namespace bgl
