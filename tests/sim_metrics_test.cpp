#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bgl {
namespace {

JobOutcome make_outcome(double arrival, double start, double finish, double runtime,
                        double estimate = 0.0) {
  JobOutcome j;
  j.arrival = arrival;
  j.first_start = start;
  j.last_start = start;
  j.finish = finish;
  j.runtime = runtime;
  j.estimate = estimate > 0.0 ? estimate : runtime;
  return j;
}

TEST(BoundedSlowdown, StandardDefinition) {
  MetricsConfig config;
  // Response 200, runtime 100 -> slowdown 2.
  EXPECT_DOUBLE_EQ(bounded_slowdown(make_outcome(0, 100, 200, 100), config), 2.0);
  // Tiny job: response 5, runtime 1 -> max(5,10)/max(1,10) = 1.
  EXPECT_DOUBLE_EQ(bounded_slowdown(make_outcome(0, 4, 5, 1), config), 1.0);
  // Short job with long wait: response 1000, runtime 2 -> 1000/10 = 100.
  EXPECT_DOUBLE_EQ(bounded_slowdown(make_outcome(0, 998, 1000, 2), config), 100.0);
}

TEST(BoundedSlowdown, NoWaitJobHasUnitSlowdown) {
  MetricsConfig config;
  EXPECT_DOUBLE_EQ(bounded_slowdown(make_outcome(0, 0, 500, 500), config), 1.0);
}

TEST(BoundedSlowdown, PaperMinDenominatorVariant) {
  MetricsConfig config;
  config.use_paper_min_denominator = true;
  // Denominator min(runtime, 10) = 10 for runtime 100 -> 200/10 = 20.
  EXPECT_DOUBLE_EQ(bounded_slowdown(make_outcome(0, 100, 200, 100), config), 20.0);
}

TEST(BoundedSlowdown, EstimateDenominatorVariant) {
  MetricsConfig config;
  config.use_estimate_denominator = true;
  EXPECT_DOUBLE_EQ(bounded_slowdown(make_outcome(0, 100, 200, 100, 200), config),
                   1.0);
}

TEST(BoundedSlowdown, GammaValidated) {
  MetricsConfig config;
  config.gamma = 0.0;
  EXPECT_THROW(bounded_slowdown(make_outcome(0, 0, 1, 1), config), ContractViolation);
}

TEST(JobOutcome, WaitAndResponse) {
  JobOutcome j = make_outcome(100, 150, 400, 250);
  EXPECT_DOUBLE_EQ(j.wait(), 50.0);
  EXPECT_DOUBLE_EQ(j.response(), 300.0);
}

TEST(CapacityIntegrator, ConstantSurplus) {
  CapacityIntegrator integ;
  integ.start(0.0, 100, 20);
  integ.advance(10.0);
  EXPECT_DOUBLE_EQ(integ.unused_integral(), 800.0);  // (100-20)*10
}

TEST(CapacityIntegrator, QueueDemandExceedsFree) {
  CapacityIntegrator integ;
  integ.start(0.0, 10, 50);
  integ.advance(5.0);
  EXPECT_DOUBLE_EQ(integ.unused_integral(), 0.0);  // max(0, 10-50) = 0
}

TEST(CapacityIntegrator, PiecewiseChanges) {
  CapacityIntegrator integ;
  integ.start(0.0, 128, 0);
  integ.advance(10.0);              // 128 * 10
  integ.set_free(64);
  integ.add_queued(32);
  integ.advance(20.0);              // (64-32) * 10
  integ.set_free(0);
  integ.add_queued(-32);            // queue drained
  integ.advance(30.0);              // 0 * 10
  EXPECT_DOUBLE_EQ(integ.unused_integral(), 1280.0 + 320.0);
}

TEST(CapacityIntegrator, AdvanceBeforeStartIsIgnored) {
  CapacityIntegrator integ;
  integ.advance(100.0);
  EXPECT_DOUBLE_EQ(integ.unused_integral(), 0.0);
  integ.start(100.0, 10, 0);
  integ.advance(101.0);
  EXPECT_DOUBLE_EQ(integ.unused_integral(), 10.0);
}

TEST(CapacityIntegrator, TimeMustNotGoBackwards) {
  CapacityIntegrator integ;
  integ.start(0.0, 10, 0);
  integ.advance(5.0);
  EXPECT_THROW(integ.advance(4.0), ContractViolation);
}

TEST(CapacityIntegrator, DoubleStartThrows) {
  CapacityIntegrator integ;
  integ.start(0.0, 10, 0);
  EXPECT_THROW(integ.start(1.0, 10, 0), ContractViolation);
}

}  // namespace
}  // namespace bgl
