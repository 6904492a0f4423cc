#include "predict/predictor.hpp"

#include <gtest/gtest.h>

#include "failure/generator.hpp"
#include "util/error.hpp"

namespace bgl {
namespace {

FailureTrace simple_trace() {
  return FailureTrace({{100.0, 3}, {200.0, 5}, {250.0, 5}, {300.0, 7}}, 16);
}

TEST(NullPredictor, NeverFlags) {
  NullPredictor p(16);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1e9, 1).empty());
  EXPECT_DOUBLE_EQ(p.confidence(), 0.0);
}

TEST(BalancingPredictor, FlagsExactlyTrueFailures) {
  const FailureTrace trace = simple_trace();
  BalancingPredictor p(trace, 0.4);
  const NodeSet flagged = p.flagged_nodes(50.0, 250.0, 1);
  EXPECT_TRUE(flagged.test(3));
  EXPECT_TRUE(flagged.test(5));
  EXPECT_FALSE(flagged.test(7));
  EXPECT_DOUBLE_EQ(p.confidence(), 0.4);
}

TEST(BalancingPredictor, ZeroConfidenceFlagsNothing) {
  const FailureTrace trace = simple_trace();
  BalancingPredictor p(trace, 0.0);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1000.0, 1).empty());
}

TEST(BalancingPredictor, ConfidenceValidated) {
  const FailureTrace trace = simple_trace();
  EXPECT_THROW(BalancingPredictor(trace, -0.1), ContractViolation);
  EXPECT_THROW(BalancingPredictor(trace, 1.1), ContractViolation);
}

TEST(TieBreakPredictor, PerfectAccuracyFlagsAllTrueFailures) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 1.0);
  const NodeSet flagged = p.flagged_nodes(0.0, 1000.0, 42);
  EXPECT_TRUE(flagged.test(3));
  EXPECT_TRUE(flagged.test(5));
  EXPECT_TRUE(flagged.test(7));
}

TEST(TieBreakPredictor, ZeroAccuracyFlagsNothing) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.0);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1000.0, 42).empty());
}

TEST(TieBreakPredictor, NoFalsePositivesByDefault) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.5);
  for (std::uint64_t key = 0; key < 200; ++key) {
    const NodeSet flagged = p.flagged_nodes(0.0, 1000.0, key);
    const NodeSet truth = trace.failing_nodes(0.0, 1000.0);
    EXPECT_TRUE(flagged.is_subset_of(truth));
  }
}

TEST(TieBreakPredictor, RepeatedQueriesAreConsistent) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.5);
  const NodeSet a = p.flagged_nodes(0.0, 1000.0, 7);
  const NodeSet b = p.flagged_nodes(0.0, 1000.0, 7);
  EXPECT_EQ(a, b);
}

TEST(TieBreakPredictor, FalseNegativeRateMatchesAccuracy) {
  // A big trace, accuracy 0.7: ~30 % of (key, failing-node) queries should
  // miss.
  FailureModel model = FailureModel::bluegene_l(2000, 100.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 5);
  TieBreakPredictor p(trace, 0.7);
  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::uint64_t key = 0; key < 400; ++key) {
    const double t0 = static_cast<double>(key) * 20000.0;
    const NodeSet truth = trace.failing_nodes(t0, t0 + 86400.0);
    const NodeSet flagged = p.flagged_nodes(t0, t0 + 86400.0, key);
    total += static_cast<std::size_t>(truth.count());
    hits += static_cast<std::size_t>(flagged.count());
  }
  ASSERT_GT(total, 200u);
  const double rate = static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_NEAR(rate, 0.7, 0.06);
}

TEST(TieBreakPredictor, ParametersValidated) {
  const FailureTrace trace = simple_trace();
  EXPECT_THROW(TieBreakPredictor(trace, 1.5), ContractViolation);
}

TEST(PerfectPredictor, MatchesGroundTruth) {
  const FailureTrace trace = simple_trace();
  PerfectPredictor p(trace);
  EXPECT_EQ(p.flagged_nodes(50.0, 350.0, 0), trace.failing_nodes(50.0, 350.0));
  EXPECT_DOUBLE_EQ(p.confidence(), 1.0);
}

TEST(Predictors, DifferentJobsGetIndependentCoins) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.5);
  int differing = 0;
  NodeSet prev = p.flagged_nodes(0.0, 1000.0, 0);
  for (std::uint64_t key = 1; key < 64; ++key) {
    const NodeSet cur = p.flagged_nodes(0.0, 1000.0, key);
    if (!(cur == prev)) ++differing;
    prev = cur;
  }
  EXPECT_GT(differing, 10);
}

}  // namespace
}  // namespace bgl
