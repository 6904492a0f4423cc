// AdaptivePredictor unit tests on synthetic failure streams: each learned
// hazard feature (base flag, repeat offender, burst, midplane correlation),
// the observation-lifecycle contract (advance monotone + idempotent, repairs
// keep flags, queries const and re-query deterministic), the registry's
// string table / oracle requirement, and the online evaluation harness.
#include "predict/adaptive.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "failure/generator.hpp"
#include "predict/registry.hpp"

namespace bgl {
namespace {

constexpr int kNodes = 128;
constexpr double kHour = 3600.0;

AdaptiveConfig quiet_config() {
  // Defaults, but with time-of-day learning disabled (needs 24 samples the
  // short streams below never reach anyway) so window arithmetic is exact.
  AdaptiveConfig cfg;
  cfg.tod_min_samples = 1'000'000;
  return cfg;
}

TEST(AdaptivePredictor, SingleFailureFlagsForBaseWindow) {
  const AdaptiveConfig cfg = quiet_config();
  AdaptivePredictor p(kNodes, cfg);
  EXPECT_EQ(p.flagged_count(), 0);

  p.observe_failure(5, 1000.0);
  EXPECT_TRUE(p.flagged_nodes(0, 0, 0).test(5));
  EXPECT_EQ(p.flagged_count(), 1);
  EXPECT_DOUBLE_EQ(p.flag_until(5), 1000.0 + cfg.node_flag_window);

  p.advance(1000.0 + cfg.node_flag_window - 1.0);
  EXPECT_TRUE(p.flagged_nodes(0, 0, 0).test(5));
  p.advance(1000.0 + cfg.node_flag_window);
  EXPECT_FALSE(p.flagged_nodes(0, 0, 0).test(5));
  EXPECT_EQ(p.flagged_count(), 0);
}

TEST(AdaptivePredictor, RepeatOffenderBoostsWindow) {
  const AdaptiveConfig cfg = quiet_config();
  AdaptivePredictor p(kNodes, cfg);
  // Two failures of the same node, well inside repeat_window but too far
  // apart for the burst detector (and on one node, so no midplane trigger
  // at threshold 3).
  p.observe_failure(7, 0.0);
  p.observe_failure(7, 48.0 * kHour);
  EXPECT_DOUBLE_EQ(p.flag_until(7),
                   48.0 * kHour + cfg.node_flag_window * cfg.repeat_boost);
}

TEST(AdaptivePredictor, MachineWideBurstStretchesNewFlags) {
  const AdaptiveConfig cfg = quiet_config();
  AdaptivePredictor p(kNodes, cfg);
  // burst_threshold (3) failures within burst_window, on nodes spread across
  // distinct midplanes so the spatial feature stays out of the picture.
  p.observe_failure(0, 0.0);
  p.observe_failure(40, 100.0);
  EXPECT_EQ(p.bursts_detected(), 0u);
  p.observe_failure(80, 200.0);
  EXPECT_EQ(p.bursts_detected(), 1u);
  // The third failure's flag is stretched by burst_boost (first failure of
  // node 80, so no repeat boost).
  EXPECT_DOUBLE_EQ(p.flag_until(80),
                   200.0 + cfg.node_flag_window * cfg.burst_boost);
  // A later lone failure outside the burst window gets the base flag.
  p.observe_failure(100, 200.0 + 2.0 * cfg.burst_window);
  EXPECT_DOUBLE_EQ(p.flag_until(100),
                   200.0 + 2.0 * cfg.burst_window + cfg.node_flag_window);
}

TEST(AdaptivePredictor, MidplaneCorrelationFlagsWholeGroup) {
  const AdaptiveConfig cfg = quiet_config();
  AdaptivePredictor p(kNodes, cfg);
  // Three failures inside midplane 0 (nodes 0..31) within a day — spaced
  // past burst_window so only the spatial feature fires.
  p.observe_failure(2, 0.0);
  p.observe_failure(11, 2.0 * kHour);
  EXPECT_EQ(p.midplane_flags(), 0u);
  p.observe_failure(29, 4.0 * kHour);
  EXPECT_EQ(p.midplane_flags(), 1u);

  const NodeSet flags = p.flagged_nodes(0, 0, 0);
  for (int n = 0; n < cfg.midplane_nodes; ++n) {
    EXPECT_TRUE(flags.test(n)) << "node " << n;
  }
  EXPECT_FALSE(flags.test(cfg.midplane_nodes));
  EXPECT_EQ(p.flagged_count(), cfg.midplane_nodes);
}

TEST(AdaptivePredictor, AdvanceIsMonotoneAndIdempotent) {
  const AdaptiveConfig cfg = quiet_config();
  AdaptivePredictor stepped(kNodes, cfg);
  AdaptivePredictor jumped(kNodes, cfg);
  const double times[] = {0.0, 10.0 * kHour, 20.0 * kHour, 30.0 * kHour};
  const int nodes[] = {3, 3, 70, 101};
  for (std::size_t i = 0; i < 4; ++i) {
    stepped.observe_failure(nodes[i], times[i]);
    jumped.observe_failure(nodes[i], times[i]);
  }
  const double goal = 33.0 * kHour;
  // One predictor sees every intermediate tick (the simulator's stale-event
  // advances), the other a single jump — the contract says the states agree.
  for (double t = 0.0; t <= goal; t += kHour) stepped.advance(t);
  stepped.advance(goal);  // idempotent re-advance at the same time
  jumped.advance(goal);
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_DOUBLE_EQ(stepped.flag_until(n), jumped.flag_until(n)) << n;
  }
  EXPECT_EQ(stepped.flagged_nodes(0, 0, 0), jumped.flagged_nodes(0, 0, 0));
  EXPECT_EQ(stepped.flagged_count(), jumped.flagged_count());
}

TEST(AdaptivePredictor, RepairKeepsHazardFlags) {
  AdaptivePredictor p(kNodes, quiet_config());
  p.observe_failure(9, 0.0);
  p.observe_repair(9, 4.0 * kHour);
  // Freshly repaired nodes are exactly the repeat offenders the flag is
  // watching; repair must not clear it.
  EXPECT_TRUE(p.flagged_nodes(0, 0, 0).test(9));
  EXPECT_EQ(p.repairs_seen(), 1u);
}

TEST(AdaptivePredictor, RequeriesWithinOnePassAreIdentical) {
  AdaptivePredictor p(kNodes, quiet_config());
  p.observe_failure(17, 0.0);
  p.observe_failure(64, 100.0);
  const NodeSet first = p.flagged_nodes(200.0, 6.0 * kHour, 1);
  // The scheduler re-asks with different query keys and windows while
  // comparing candidates within one pass; answers must not drift and the
  // query must not mutate state.
  for (std::uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(p.flagged_nodes(200.0, 12.0 * kHour, key), first);
    NodeSet in_place(kNodes);
    p.flagged_nodes_into(in_place, 200.0, 12.0 * kHour, key);
    EXPECT_EQ(in_place, first);
  }
}

TEST(AdaptivePredictor, ValidatesConfig) {
  EXPECT_THROW(AdaptivePredictor(0), ContractViolation);
  AdaptiveConfig bad;
  bad.confidence = 1.5;
  EXPECT_THROW(AdaptivePredictor(kNodes, bad), ContractViolation);
  bad = {};
  bad.node_flag_window = 0.0;
  EXPECT_THROW(AdaptivePredictor(kNodes, bad), ContractViolation);
  bad = {};
  bad.repeat_boost = 0.5;
  EXPECT_THROW(AdaptivePredictor(kNodes, bad), ContractViolation);
}

// --- registry ---------------------------------------------------------------

TEST(PredictorRegistry, StringTableRoundTrips) {
  const PredictorModel models[] = {PredictorModel::kPaper,
                                   PredictorModel::kHistory,
                                   PredictorModel::kPerfect,
                                   PredictorModel::kNone,
                                   PredictorModel::kAdaptive};
  for (const PredictorModel m : models) {
    const auto parsed = parse_predictor_model(to_string(m));
    ASSERT_TRUE(parsed.has_value()) << to_string(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_predictor_model("oracle").has_value());
  EXPECT_FALSE(parse_predictor_model("").has_value());
  EXPECT_FALSE(parse_predictor_model("Paper").has_value());
}

TEST(PredictorRegistry, OracleModelsRequireATrace) {
  PredictorSpec spec;
  spec.model = PredictorModel::kPerfect;
  try {
    make_predictor(spec, kNodes, nullptr);
    FAIL() << "perfect predictor built without an oracle";
  } catch (const OracleRequiredError& e) {
    EXPECT_EQ(e.model(), PredictorModel::kPerfect);
  }

  spec.model = PredictorModel::kPaper;
  spec.paper_role = PaperRole::kBalancing;
  spec.alpha = 0.5;
  EXPECT_THROW(make_predictor(spec, kNodes, nullptr), OracleRequiredError);
  // kPaper under a fault-unaware scheduler degenerates to the null
  // predictor, which needs no trace.
  spec.paper_role = PaperRole::kNull;
  EXPECT_NE(make_predictor(spec, kNodes, nullptr), nullptr);
}

TEST(PredictorRegistry, AdaptiveNeedsNoOracleAndAlphaSetsConfidence) {
  PredictorSpec spec;
  spec.model = PredictorModel::kAdaptive;
  EXPECT_FALSE(predictor_needs_oracle(spec.model, PaperRole::kNull));
  const auto at_default = make_predictor(spec, kNodes, nullptr);
  ASSERT_NE(at_default, nullptr);
  EXPECT_DOUBLE_EQ(at_default->confidence(), AdaptiveConfig{}.confidence);

  spec.alpha = 0.8;
  const auto at_alpha = make_predictor(spec, kNodes, nullptr);
  EXPECT_DOUBLE_EQ(at_alpha->confidence(), 0.8);
}

// --- online evaluation ------------------------------------------------------

TEST(EvaluatePredictorOnline, MatchesOfflineForOracles) {
  const FailureTrace trace =
      generate_failures(FailureModel::bluegene_l(400, 60.0 * 86400.0), 11);
  PerfectPredictor perfect(trace);
  const PredictionQuality off =
      evaluate_predictor(perfect, trace, 6.0 * kHour, 12.0 * kHour);
  const PredictionQuality on =
      evaluate_predictor_online(perfect, trace, 6.0 * kHour, 12.0 * kHour);
  EXPECT_EQ(off.windows, on.windows);
  EXPECT_EQ(off.flagged, on.flagged);
  EXPECT_EQ(off.failing, on.failing);
  EXPECT_DOUBLE_EQ(off.precision, on.precision);
  EXPECT_DOUBLE_EQ(off.recall, on.recall);
  EXPECT_DOUBLE_EQ(on.precision, 1.0);
  EXPECT_DOUBLE_EQ(on.recall, 1.0);
}

TEST(EvaluatePredictorOnline, AdaptiveLearnsRepeatOffendersWithoutPeeking) {
  // A strongly repeat-offending stream: node 42 fails every 8 hours. After
  // the first observation the adaptive predictor should flag it for most
  // subsequent windows — recall well above zero — from past events only.
  std::vector<FailureEvent> events;
  for (int i = 0; i < 60; ++i) {
    events.push_back({8.0 * kHour * (i + 1), 42});
  }
  const FailureTrace trace(std::move(events), kNodes);
  // Disable the spatial feature (a node failing thrice in a day flags its
  // whole midplane, diluting precision) to isolate the per-node path.
  AdaptiveConfig cfg = quiet_config();
  cfg.midplane_threshold = 1'000'000;
  AdaptivePredictor adaptive(kNodes, cfg);
  const PredictionQuality q =
      evaluate_predictor_online(adaptive, trace, 6.0 * kHour, 12.0 * kHour);
  EXPECT_GT(q.windows, 0u);
  EXPECT_GT(q.recall, 0.25);
  EXPECT_GT(q.precision, 0.25);
  EXPECT_LE(q.precision, 1.0);
  EXPECT_LE(q.recall, 1.0);
}

}  // namespace
}  // namespace bgl
