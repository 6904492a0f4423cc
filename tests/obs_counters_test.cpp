// Unit tests of the counter/timer registry (src/obs/counters.hpp).
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>

namespace bgl::obs {
namespace {

// The hot-path contract: a registry owns no heap memory (fixed array) and
// can live on the stack of a bench loop without allocation.
static_assert(std::is_trivially_destructible_v<CounterRegistry>);
static_assert(std::is_trivially_copyable_v<CounterRegistry>);

TEST(Counters, StartAtZeroAndAccumulate) {
  CounterRegistry r;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(r.value(static_cast<Counter>(i)), 0u);
  }
  r.add(Counter::kSchedStarts);
  r.add(Counter::kSchedStarts, 4);
  EXPECT_EQ(r.value(Counter::kSchedStarts), 5u);
  EXPECT_EQ(r.value(Counter::kSchedInvocations), 0u);
}

TEST(Counters, ResetClearsEverything) {
  CounterRegistry r;
  r.add(Counter::kDriverEvents, 100);
  r.add(Counter::kMfpEvaluations, 7);
  r.reset();
  EXPECT_EQ(r.value(Counter::kDriverEvents), 0u);
  EXPECT_EQ(r.value(Counter::kMfpEvaluations), 0u);
}

TEST(Counters, MergeAddsSlotwise) {
  CounterRegistry a, b;
  a.add(Counter::kSchedStarts, 3);
  a.add(Counter::kDriverKills, 1);
  b.add(Counter::kSchedStarts, 2);
  b.add(Counter::kPredictorQueries, 9);
  a.merge(b);
  EXPECT_EQ(a.value(Counter::kSchedStarts), 5u);
  EXPECT_EQ(a.value(Counter::kDriverKills), 1u);
  EXPECT_EQ(a.value(Counter::kPredictorQueries), 9u);
  EXPECT_EQ(b.value(Counter::kSchedStarts), 2u);  // merge source untouched
}

TEST(Counters, NamesAreUniqueAndStable) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto name = counter_name(static_cast<Counter>(i));
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
  // Spot-check the names docs and dashboards key on.
  EXPECT_EQ(counter_name(Counter::kSchedDecisionNanos), "sched.decision_ns");
  EXPECT_EQ(counter_name(Counter::kPartitionsScanned), "sched.partitions_scanned");
  EXPECT_EQ(counter_name(Counter::kSchedRepacks), "sched.repacks");
}

TEST(Counters, JsonDumpContainsAllCountersAndDerived) {
  CounterRegistry r;
  r.add(Counter::kSchedInvocations, 2);
  r.add(Counter::kSchedDecisionNanos, 10000);  // 5 us average
  r.add(Counter::kCandidatesConsidered, 6);
  r.add(Counter::kSchedRepacks, 4);
  std::ostringstream out;
  r.write_json(out);
  const std::string json = out.str();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_NE(json.find(std::string(counter_name(static_cast<Counter>(i)))),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"sched.invocations\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sched.repacks\":4"), std::string::npos);
  EXPECT_NE(json.find("\"avg_decision_us\":5"), std::string::npos);
  EXPECT_NE(json.find("\"avg_candidates_per_decision\":3"), std::string::npos);
}

TEST(Counters, DerivedRatiosOmittedWhenDenominatorZero) {
  CounterRegistry r;  // everything zero
  std::ostringstream out;
  r.write_json(out);
  EXPECT_EQ(out.str().find("avg_decision_us"), std::string::npos);
  EXPECT_NE(out.str().find("\"derived\":{}"), std::string::npos);
}

TEST(Counters, ScopedTimerAccumulatesElapsedTime) {
  CounterRegistry r;
  {
    ScopedTimer timer(&r, Counter::kSchedDecisionNanos);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(r.value(Counter::kSchedDecisionNanos), 1'000'000u);  // >= 1 ms
  const auto first = r.value(Counter::kSchedDecisionNanos);
  { ScopedTimer timer(&r, Counter::kSchedDecisionNanos); }
  EXPECT_GE(r.value(Counter::kSchedDecisionNanos), first);  // accumulates
}

TEST(Counters, ScopedTimerOnNullRegistryIsANoop) {
  ScopedTimer timer(nullptr, Counter::kSchedDecisionNanos);
  // Destructor must not crash; nothing to observe.
}

TEST(Counters, JsonDumpIsASingleBalancedLine) {
  CounterRegistry r;
  r.add(Counter::kSchedInvocations, 3);
  std::ostringstream out;
  r.write_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.find(",}"), std::string::npos);  // no trailing commas
  EXPECT_EQ(json.find(",,"), std::string::npos);
}

TEST(Counters, MergeWithSelfDoublesEverySlot) {
  CounterRegistry r;
  r.add(Counter::kSchedStarts, 3);
  r.add(Counter::kDriverEvents, 11);
  r.merge(r);
  EXPECT_EQ(r.value(Counter::kSchedStarts), 6u);
  EXPECT_EQ(r.value(Counter::kDriverEvents), 22u);
}

TEST(Counters, LargeValuesSurviveTheDump) {
  CounterRegistry r;
  const std::uint64_t big = 18446744073709551615ull;  // uint64 max
  r.add(Counter::kPartitionsScanned, big);
  std::ostringstream out;
  r.write_json(out);
  EXPECT_NE(out.str().find("18446744073709551615"), std::string::npos);
}

}  // namespace
}  // namespace bgl::obs
