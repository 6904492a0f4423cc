// Tests of the JSONL trace sink (src/obs/trace.hpp) and its wiring through
// the scheduler and the simulation driver.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "sched/scheduler.hpp"
#include "sim/driver.hpp"

namespace bgl {
namespace {

using obs::CounterRegistry;
using obs::TraceSink;

// --- tiny JSONL probes (the schema is flat, one object per line) ---

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Raw text of `"key":<value>` in a one-line JSON object, or nullopt.
std::optional<std::string> raw_field(const std::string& line,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  if (line[begin] == '"') {  // string value: scan to the unescaped close quote
    ++end;
    while (end < line.size() && (line[end] != '"' || line[end - 1] == '\\')) ++end;
    ++end;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

std::optional<double> number_field(const std::string& line, const std::string& key) {
  const auto raw = raw_field(line, key);
  if (!raw) return std::nullopt;
  return std::stod(*raw);
}

/// String field with the surrounding quotes stripped (escapes left as-is).
std::optional<std::string> string_field(const std::string& line,
                                        const std::string& key) {
  const auto raw = raw_field(line, key);
  if (!raw || raw->size() < 2 || raw->front() != '"') return std::nullopt;
  return raw->substr(1, raw->size() - 2);
}

Workload make_workload(std::vector<Job> jobs) {
  Workload w;
  w.name = "scripted";
  w.machine_nodes = 128;
  w.jobs = std::move(jobs);
  normalize(w);
  return w;
}

/// A run with enough structure to exercise every core event type: queued
/// jobs, a failure that kills a running job, and a restart.
SimResult traced_run(std::ostream* trace_stream, CounterRegistry* counters) {
  Workload w = make_workload({
      Job{1, 0.0, 100.0, 100.0, 128},   // fills the machine
      Job{2, 10.0, 50.0, 60.0, 64},     // queues behind it
      Job{3, 20.0, 50.0, 60.0, 64},     // queues, starts in parallel with 2
  });
  // Node 0 fails at t = 40 while job 1 holds the whole machine.
  const FailureTrace trace({FailureEvent{40.0, 0}}, 128);
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  std::unique_ptr<TraceSink> sink;
  if (trace_stream != nullptr) {
    sink = std::make_unique<TraceSink>(*trace_stream);
    config.obs.trace = sink.get();
  }
  config.obs.counters = counters;
  return run_simulation(w, trace, config);
}

// --- serialization ---

TEST(TraceSink, EscapesStringsPerJson) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.event("note", 1.0)
      .field("text", "say \"hi\"\\\n\tdone")
      .field("ctrl", std::string(1, '\x01'));
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(*raw_field(lines[0], "text"), "\"say \\\"hi\\\"\\\\\\n\\tdone\"");
  EXPECT_EQ(*raw_field(lines[0], "ctrl"), "\"\\u0001\"");
}

TEST(TraceSink, NumbersRoundTrip) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.event("n", 86423.5)
      .field("i", std::int64_t{-7})
      .field("u", std::uint64_t{18446744073709551615ull})
      .field("d", 0.001953125)  // exact binary fraction
      .field("b", true);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_DOUBLE_EQ(*number_field(lines[0], "t"), 86423.5);
  EXPECT_EQ(*raw_field(lines[0], "i"), "-7");
  EXPECT_EQ(*raw_field(lines[0], "u"), "18446744073709551615");
  EXPECT_DOUBLE_EQ(*number_field(lines[0], "d"), 0.001953125);
  EXPECT_EQ(*raw_field(lines[0], "b"), "true");
}

TEST(TraceSink, EveryLineCarriesTypeSimTimeAndWallTime) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.event("a", 1.5);
  sink.event("b", 2.5).field("x", 1);
  for (const auto& line : lines_of(out.str())) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(raw_field(line, "type").has_value());
    EXPECT_TRUE(number_field(line, "t").has_value());
    EXPECT_GE(*number_field(line, "wall_us"), 0.0);
  }
  EXPECT_EQ(sink.events_written(), 2u);
  EXPECT_DOUBLE_EQ(sink.max_sim_time(), 2.5);
}

// --- driver integration ---

TEST(TraceObs, SimulationEmitsTheDocumentedEventTypes) {
  std::ostringstream out;
  const SimResult r = traced_run(&out, nullptr);
  EXPECT_EQ(r.jobs_completed, 3u);
  EXPECT_EQ(r.job_kills, 1u);

  std::set<std::string> types;
  for (const auto& line : lines_of(out.str())) {
    types.insert(*string_field(line, "type"));
  }
  const std::set<std::string> expected = {
      "sim_begin", "job_submit", "predictor_query", "sched_decision",
      "job_start", "node_failure", "job_kill", "job_finish", "sim_end"};
  for (const auto& t : expected) {
    EXPECT_TRUE(types.count(t)) << "missing event type: " << t;
  }
  EXPECT_GE(types.size(), 6u);
}

TEST(TraceObs, SimTimeIsMonotonicAcrossTheTrace) {
  std::ostringstream out;
  traced_run(&out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_GT(lines.size(), 10u);
  double last = -1e300;
  for (const auto& line : lines) {
    const double t = *number_field(line, "t");
    EXPECT_GE(t, last) << "sim time went backwards at: " << line;
    last = t;
  }
}

TEST(TraceObs, SchedDecisionCarriesTheLossDecomposition) {
  std::ostringstream out;
  traced_run(&out, nullptr);
  std::size_t decisions = 0;
  for (const auto& line : lines_of(out.str())) {
    if (*string_field(line, "type") != "sched_decision") continue;
    ++decisions;
    ASSERT_TRUE(number_field(line, "l_mfp").has_value()) << line;
    ASSERT_TRUE(number_field(line, "l_pf").has_value()) << line;
    ASSERT_TRUE(number_field(line, "e_loss").has_value()) << line;
    ASSERT_TRUE(number_field(line, "candidates").has_value()) << line;
    EXPECT_GE(*number_field(line, "candidates"), 1.0);
    EXPECT_NEAR(*number_field(line, "e_loss"),
                *number_field(line, "l_mfp") + *number_field(line, "l_pf"),
                1e-6);
  }
  // Every start is audited: 3 jobs, one killed and restarted once.
  EXPECT_EQ(decisions, 4u);
}

TEST(TraceObs, TracingDoesNotPerturbTheSimulation) {
  std::ostringstream out;
  const SimResult traced = traced_run(&out, nullptr);
  const SimResult plain = traced_run(nullptr, nullptr);
  EXPECT_EQ(traced.jobs_completed, plain.jobs_completed);
  EXPECT_EQ(traced.job_kills, plain.job_kills);
  EXPECT_DOUBLE_EQ(traced.span, plain.span);
  EXPECT_DOUBLE_EQ(traced.avg_wait, plain.avg_wait);
  EXPECT_DOUBLE_EQ(traced.utilization, plain.utilization);
}

TEST(TraceObs, TraceIsDeterministicModuloWallTime) {
  std::ostringstream a, b;
  traced_run(&a, nullptr);
  traced_run(&b, nullptr);
  auto strip_wall = [](const std::string& text) {
    std::string out;
    for (const auto& line : lines_of(text)) {
      const auto pos = line.find(",\"wall_us\":");
      const auto end = line.find_first_of(",}", pos + 1);
      out += line.substr(0, pos) + line.substr(end) + '\n';
    }
    return out;
  };
  EXPECT_EQ(strip_wall(a.str()), strip_wall(b.str()));
}

TEST(TraceObs, CountersMatchTraceAndResult) {
  std::ostringstream out;
  CounterRegistry counters;
  const SimResult r = traced_run(&out, &counters);
  EXPECT_EQ(counters.value(obs::Counter::kDriverKills), r.job_kills);
  EXPECT_EQ(counters.value(obs::Counter::kDriverFailures), r.failures_total);
  EXPECT_EQ(counters.value(obs::Counter::kSchedStarts), 4u);  // 3 jobs + 1 restart
  EXPECT_EQ(counters.value(obs::Counter::kPredictorQueries), 4u);
  EXPECT_GT(counters.value(obs::Counter::kSchedInvocations), 0u);
  EXPECT_GT(counters.value(obs::Counter::kMfpEvaluations), 0u);
  EXPECT_GT(counters.value(obs::Counter::kPartitionsScanned), 0u);
}

// --- disabled-observer contract ---

TEST(TraceObs, DisabledObserverProducesNoAuditRecords) {
  // The engine must not allocate decision-audit vectors when no trace sink
  // is attached (the zero-cost-when-disabled contract).
  const PartitionCatalog catalog(Dims::bluegene_l());
  const NullPredictor predictor(catalog.num_nodes());
  const auto scheduler = make_krevat_scheduler(catalog, predictor);

  const std::vector<WaitingJob> queue = {WaitingJob{0, 64, 64, 100.0}};
  FreePartitionIndex index(catalog);  // empty machine
  const SchedulingDecision decision =
      scheduler->schedule(0.0, queue, {}, index);
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_TRUE(decision.placements.empty());
  EXPECT_TRUE(decision.predictor_queries.empty());
  EXPECT_EQ(decision.placements.capacity(), 0u);  // never even reserved
  EXPECT_EQ(decision.predictor_queries.capacity(), 0u);
}

TEST(TraceObs, TracingObserverAuditsEveryStart) {
  std::ostringstream out;
  TraceSink sink(out);
  const PartitionCatalog catalog(Dims::bluegene_l());
  const NullPredictor predictor(catalog.num_nodes());
  const auto scheduler = make_krevat_scheduler(catalog, predictor);
  obs::Observer observer;
  observer.trace = &sink;
  scheduler->set_observer(observer);

  const std::vector<WaitingJob> queue = {WaitingJob{0, 64, 64, 100.0},
                                         WaitingJob{1, 64, 64, 100.0}};
  FreePartitionIndex index(catalog);  // empty machine
  const SchedulingDecision decision =
      scheduler->schedule(0.0, queue, {}, index);
  ASSERT_EQ(decision.starts.size(), 2u);
  ASSERT_EQ(decision.placements.size(), 2u);
  EXPECT_EQ(decision.predictor_queries.size(), 2u);
  for (std::size_t i = 0; i < decision.starts.size(); ++i) {
    EXPECT_EQ(decision.placements[i].id, decision.starts[i].id);
    EXPECT_GE(decision.placements[i].candidates, 1);
  }
}

TEST(TraceObs, DisabledTraceWritesNothing) {
  // A run with a default (empty) Observer must leave an attached-but-unused
  // stream untouched; this is trivially true because no sink exists, so the
  // meaningful assertion is that the default config's observer is disabled.
  SimConfig config;
  EXPECT_FALSE(config.obs.enabled());
  std::ostringstream out;
  {
    TraceSink sink(out);  // constructed but never handed to a simulation
    EXPECT_EQ(sink.events_written(), 0u);
  }
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace bgl
