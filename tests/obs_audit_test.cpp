// Tests of the trace auditor (src/obs/audit.hpp): clean traces from a real
// simulation and from the live service must pass, seeded corruptions must
// be caught with the right violation code, and machine_state snapshots must
// be emitted without perturbing the simulation.
#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "torus/catalog.hpp"

namespace bgl {
namespace {

using obs::AuditOptions;
using obs::AuditReport;
using obs::TraceSink;
using obs::ViolationCode;

bool has_code(const AuditReport& report, ViolationCode code) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [code](const obs::Violation& v) { return v.code == code; });
}

std::string codes_of(const AuditReport& report) {
  std::string out;
  for (const obs::Violation& v : report.violations) {
    out += std::string(obs::to_string(v.code)) + "(" + v.message + ") ";
  }
  return out;
}

AuditReport audit_string(const std::string& trace, AuditOptions opts = {}) {
  std::istringstream in(trace);
  return obs::audit_trace(in, opts);
}

Workload make_workload(std::vector<Job> jobs) {
  Workload w;
  w.name = "scripted";
  w.machine_nodes = 128;
  w.jobs = std::move(jobs);
  normalize(w);
  return w;
}

/// A run that exercises every event type: queueing, backfill, a failure
/// with downtime that kills a checkpointed job, a repair, periodic
/// snapshots, and — when `metrics_interval` > 0 — metrics windows (off by
/// default: their decision-latency fields are wall-clock readings).
std::string traced_run(double snapshot_interval, SimResult* result = nullptr,
                       SchedulerKind scheduler = SchedulerKind::kBalancing,
                       SchedAlgorithm algorithm = SchedAlgorithm::kKrevat,
                       double metrics_interval = 0.0) {
  Workload w = make_workload({
      Job{1, 0.0, 100.0, 100.0, 128},  // fills the machine
      Job{2, 10.0, 50.0, 60.0, 64},    // queues behind it
      Job{3, 20.0, 50.0, 60.0, 64},    // queues, runs in parallel with 2
      Job{4, 30.0, 40.0, 45.0, 32},    // backfill fodder
  });
  const FailureTrace trace({FailureEvent{40.0, 0}}, 128);
  SimConfig config;
  config.scheduler = scheduler;
  config.sched.algorithm = algorithm;
  config.alpha = 0.5;
  config.ckpt.enabled = true;
  config.ckpt.interval = 30.0;
  config.failure_semantics = FailureSemantics::kDownFor;
  config.node_downtime = 25.0;
  config.snapshot_interval = snapshot_interval;
  config.metrics_interval = metrics_interval;
  std::ostringstream out;
  TraceSink sink(out);
  config.obs.trace = &sink;
  const SimResult r = run_simulation(w, trace, config);
  if (result != nullptr) *result = r;
  return out.str();
}

// --- clean traces must pass ---

TEST(TraceAudit, CleanTracePassesStrict) {
  for (const SchedulerKind s : {SchedulerKind::kKrevat, SchedulerKind::kBalancing,
                                SchedulerKind::kTieBreak}) {
    for (const SchedAlgorithm a :
         {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
          SchedAlgorithm::kConservative, SchedAlgorithm::kEasyHoldback}) {
      const std::string label = std::string(to_string(s)) + "/" + to_string(a);
      const std::string trace = traced_run(25.0, nullptr, s, a, 20.0);
      const AuditReport report =
          audit_string(trace, AuditOptions{.strict = true});
      EXPECT_TRUE(report.ok()) << label << ": " << codes_of(report);
      EXPECT_EQ(report.jobs, 4u) << label;
      EXPECT_GT(report.events, 10u) << label;
      EXPECT_EQ(report.unknown_events, 0u) << label;
      // Every feature the fixture turns on reaches the trace.
      for (const char* type : {"\"checkpoint\"", "\"job_kill\"",
                               "\"node_repair\"", "\"machine_state\"",
                               "\"metrics\""}) {
        EXPECT_NE(trace.find(std::string("\"type\":") + type),
                  std::string::npos)
            << label << " lacks " << type;
      }
    }
  }
}

TEST(TraceAudit, CleanTracePassesForEveryScheduler) {
  for (const SchedulerKind kind : {SchedulerKind::kKrevat,
                                   SchedulerKind::kBalancing,
                                   SchedulerKind::kTieBreak}) {
    Workload w = make_workload({
        Job{1, 0.0, 80.0, 90.0, 64},
        Job{2, 5.0, 60.0, 70.0, 64},
        Job{3, 15.0, 60.0, 70.0, 32},
    });
    const FailureTrace trace({FailureEvent{30.0, 5}}, 128);
    SimConfig config;
    config.scheduler = kind;
    config.alpha = 0.3;
    std::ostringstream out;
    TraceSink sink(out);
    config.obs.trace = &sink;
    run_simulation(w, trace, config);
    const AuditReport report =
        audit_string(out.str(), AuditOptions{.strict = true});
    EXPECT_TRUE(report.ok())
        << to_string(kind) << ": " << codes_of(report);
  }
}

TEST(TraceAudit, EmptyTraceIsTruncated) {
  const AuditReport report = audit_string("");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kTruncated));
}

TEST(TraceAudit, TraceWithoutSimEndIsTruncated) {
  std::string trace = traced_run(0.0);
  const auto pos = trace.find("\"type\":\"sim_end\"");
  ASSERT_NE(pos, std::string::npos);
  const auto line_start = trace.rfind('\n', pos) + 1;
  trace.erase(line_start);  // drop the final line
  const AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kTruncated)) << codes_of(report);
}

// --- seeded corruptions (the acceptance checklist) ---

/// Replace the raw value of `"key":<value>` in the first line of `trace`
/// (at or after `from`) that contains `marker`. Returns false if not found.
bool corrupt_field(std::string& trace, const std::string& marker,
                   const std::string& key, const std::string& new_raw,
                   std::size_t from = 0) {
  const auto line_pos = trace.find(marker, from);
  if (line_pos == std::string::npos) return false;
  const auto line_end = trace.find('\n', line_pos);
  auto value_pos = trace.find("\"" + key + "\":", line_pos);
  if (value_pos == std::string::npos || value_pos > line_end) return false;
  value_pos += key.size() + 3;
  auto value_end = value_pos;
  while (value_end < trace.size() && trace[value_end] != ',' &&
         trace[value_end] != '}') {
    ++value_end;
  }
  trace.replace(value_pos, value_end - value_pos, new_raw);
  return true;
}

TEST(TraceAudit, DetectsDroppedJobStart) {
  std::string trace = traced_run(25.0);
  const auto pos = trace.find("\"type\":\"job_start\"");
  ASSERT_NE(pos, std::string::npos);
  const auto line_start = trace.rfind('\n', pos) + 1;
  const auto line_end = trace.find('\n', pos);
  trace.erase(line_start, line_end - line_start + 1);

  const AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  // The orphaned sched_decision loses its pair, and the job later finishes
  // (or is killed / migrated) without ever having started.
  EXPECT_TRUE(has_code(report, ViolationCode::kDecisionPairing))
      << codes_of(report);
  EXPECT_TRUE(has_code(report, ViolationCode::kLifecycle)) << codes_of(report);
}

TEST(TraceAudit, DetectsWrongWait) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"job_finish\"", "wait", "86400"));
  const AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kWaitMismatch)) << codes_of(report);
  // The traced per-job value no longer averages to the sim_end aggregate.
  EXPECT_TRUE(has_code(report, ViolationCode::kAggregateMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsWrongResponseAndSlowdown) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"job_finish\"", "response", "1"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kResponseMismatch))
      << codes_of(report);
  EXPECT_TRUE(has_code(report, ViolationCode::kSlowdownMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsOverlappingPartitions) {
  // Hand-crafted: two jobs started on intersecting catalog entries. Entry
  // indices come from the same catalog the auditor rebuilds from sim_begin.
  const PartitionCatalog cat(Dims::bluegene_l());
  int full = -1;
  for (int i = 0; i < cat.num_entries(); ++i) {
    if (cat.entry(i).size == cat.num_nodes()) { full = i; break; }
  }
  ASSERT_GE(full, 0);
  const int other = full == 0 ? 1 : 0;  // everything intersects the full machine
  const int other_size = cat.entry(other).size;

  std::ostringstream t;
  t << "{\"type\":\"sim_begin\",\"t\":0,\"machine\":\"4x4x8\",\"nodes\":128,"
       "\"topology\":\"torus\",\"scheduler\":\"balancing\",\"policy\":\"bal\","
       "\"predictor\":\"paper\",\"alpha\":0.1,\"backfill\":\"easy\","
       "\"migration\":false,\"jobs\":2,\"failure_events\":0}\n";
  t << "{\"type\":\"job_submit\",\"t\":0,\"job\":1,\"size\":128,"
       "\"alloc_size\":128,\"estimate\":100,\"runtime\":100}\n";
  t << "{\"type\":\"job_submit\",\"t\":0,\"job\":2,\"size\":" << other_size
    << ",\"alloc_size\":" << other_size
    << ",\"estimate\":100,\"runtime\":100}\n";
  for (const auto& [job, entry, size] :
       {std::tuple{1, full, 128}, std::tuple{2, other, other_size}}) {
    t << "{\"type\":\"sched_decision\",\"t\":0,\"job\":" << job
      << ",\"policy\":\"bal\",\"entry\":" << entry
      << ",\"candidates\":1,\"l_mfp\":0,\"l_pf\":0,\"e_loss\":0,"
         "\"mfp_after\":0,\"flags_in_chosen\":0,\"backfill\":false}\n";
    t << "{\"type\":\"job_start\",\"t\":0,\"job\":" << job << ",\"entry\":"
      << entry << ",\"alloc_size\":" << size
      << ",\"wait_so_far\":0,\"restarts\":0}\n";
  }
  const AuditReport report = audit_string(t.str());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kOverlap)) << codes_of(report);
}

/// Two disjoint 64-node entries of the 4x4x8 catalog.
std::pair<int, int> disjoint_halves(const PartitionCatalog& cat) {
  const auto [first, last] = cat.size_range(64);
  for (int b = first + 1; b < last; ++b) {
    if (!cat.entry(b).mask.intersects(cat.entry(first).mask)) return {first, b};
  }
  return {-1, -1};
}

/// A hand-written, otherwise clean trace: jobs 1 and 2 (64 nodes, runtime
/// 100) start at t=0 on entries `a` and `b`, the (job, from, to) moves run
/// at t=50 as one migration batch, and jobs 1 and 2 finish at t=100 on
/// entries `final1` and `final2`.
std::string migration_trace(int a, int b,
                            const std::vector<std::tuple<int, int, int>>& moves,
                            int final1, int final2) {
  std::ostringstream t;
  t << "{\"type\":\"sim_begin\",\"t\":0,\"machine\":\"4x4x8\",\"nodes\":128,"
       "\"topology\":\"torus\",\"scheduler\":\"balancing\",\"policy\":\"bal\","
       "\"predictor\":\"paper\",\"alpha\":0.1,\"backfill\":\"easy\","
       "\"migration\":true,\"jobs\":2,\"failure_events\":0}\n";
  for (const int job : {1, 2}) {
    t << "{\"type\":\"job_submit\",\"t\":0,\"job\":" << job
      << ",\"size\":64,\"alloc_size\":64,\"estimate\":100,\"runtime\":100}\n";
  }
  for (const auto& [job, entry] : {std::pair{1, a}, std::pair{2, b}}) {
    t << "{\"type\":\"sched_decision\",\"t\":0,\"job\":" << job
      << ",\"policy\":\"bal\",\"entry\":" << entry
      << ",\"candidates\":1,\"l_mfp\":0,\"l_pf\":0,\"e_loss\":0,"
         "\"mfp_after\":0,\"flags_in_chosen\":0,\"backfill\":false}\n";
    t << "{\"type\":\"job_start\",\"t\":0,\"job\":" << job << ",\"entry\":"
      << entry << ",\"alloc_size\":64,\"wait_so_far\":0,\"restarts\":0}\n";
  }
  for (const auto& [job, from, to] : moves) {
    t << "{\"type\":\"migration\",\"t\":50,\"job\":" << job
      << ",\"from_entry\":" << from << ",\"to_entry\":" << to << "}\n";
  }
  for (const auto& [job, entry] : {std::pair{1, final1}, std::pair{2, final2}}) {
    t << "{\"type\":\"job_finish\",\"t\":100,\"job\":" << job
      << ",\"entry\":" << entry
      << ",\"wait\":0,\"response\":100,\"bounded_slowdown\":1,\"restarts\":0}\n";
  }
  t << "{\"type\":\"sim_end\",\"t\":100,\"jobs_completed\":2,\"span\":100,"
       "\"avg_wait\":0,\"avg_response\":100,\"avg_bounded_slowdown\":1,"
       "\"utilization\":1,\"unused\":0,\"lost\":0,\"job_kills\":0,"
       "\"migrations\":"
    << moves.size()
    << ",\"checkpoints\":0,\"work_lost_node_seconds\":0}\n";
  return t.str();
}

TEST(TraceAudit, MigrationRotationPassesStrict) {
  // Two jobs swap partitions at one timestamp: legal, because the service
  // releases every mover before any re-allocates.
  const auto [a, b] = disjoint_halves(PartitionCatalog(Dims::bluegene_l()));
  ASSERT_GE(a, 0);
  const AuditReport report =
      audit_string(migration_trace(a, b, {{1, a, b}, {2, b, a}}, b, a),
                   AuditOptions{.strict = true});
  EXPECT_TRUE(report.ok()) << codes_of(report);
}

TEST(TraceAudit, DetectsMigrationOntoHeldPartition) {
  // Job 1 moves onto job 2's partition while job 2 stays put.
  const auto [a, b] = disjoint_halves(PartitionCatalog(Dims::bluegene_l()));
  ASSERT_GE(a, 0);
  const AuditReport report =
      audit_string(migration_trace(a, b, {{1, a, b}}, b, b));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kOverlap)) << codes_of(report);
}

TEST(TraceAudit, DetectsFinishOfUnsubmittedJob) {
  const auto [a, b] = disjoint_halves(PartitionCatalog(Dims::bluegene_l()));
  ASSERT_GE(a, 0);
  std::string trace = migration_trace(a, b, {}, a, b);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"job_finish\"", "job", "9"));
  const AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kLifecycle)) << codes_of(report);
}

TEST(TraceAudit, DetectsRewrittenEntryAsOverlapOnRealTrace) {
  // Two equal jobs arriving together start concurrently on disjoint
  // entries; re-pointing the second pair at the first pair's entry breaks
  // disjointness.
  Workload w = make_workload({
      Job{1, 0.0, 100.0, 100.0, 64},
      Job{2, 0.0, 100.0, 100.0, 64},
  });
  SimConfig config;
  std::ostringstream out;
  TraceSink sink(out);
  config.obs.trace = &sink;
  run_simulation(w, FailureTrace({}, 128), config);
  std::string trace = out.str();

  const auto start1 = trace.find("\"type\":\"job_start\"");
  ASSERT_NE(start1, std::string::npos);
  const auto entry_pos = trace.find("\"entry\":", start1) + 8;
  const auto entry_end = trace.find(',', entry_pos);
  const std::string entry1 = trace.substr(entry_pos, entry_end - entry_pos);
  const auto after_first = trace.find('\n', start1);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"sched_decision\"", "entry",
                            entry1, after_first));
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"job_start\"", "entry", entry1,
                            after_first));
  const AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kOverlap)) << codes_of(report);
}

TEST(TraceAudit, DetectsTimeGoingBackwards) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"sim_end\"", "t", "1"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kTimeOrder)) << codes_of(report);
}

TEST(TraceAudit, DetectsWrongRestartCount) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"job_kill\"", "restarts", "9"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kRestartMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsInflatedWorkLost) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"job_kill\"", "work_lost", "1e12"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kWorkAccounting))
      << codes_of(report);
}

TEST(TraceAudit, DetectsWrongVictimCount) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"node_failure\"", "victims", "3"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kVictimsMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsCorruptedSnapshot) {
  std::string trace = traced_run(25.0);
  ASSERT_TRUE(
      corrupt_field(trace, "\"type\":\"machine_state\"", "queue_depth", "77"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kSnapshotMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsCorruptedSimEndAggregate) {
  std::string trace = traced_run(0.0);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"sim_end\"", "avg_response", "1"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kAggregateMismatch))
      << codes_of(report);
}

/// A short adaptive-predictor run with metrics snapshots: exercises the
/// predictor provenance fields (sim_begin flag_window/burst_window) and the
/// pred_* forecast scores the predictor-seam corruption tests key on.
std::string adaptive_run(PredictorModel model = PredictorModel::kAdaptive,
                         SchedulerKind kind = SchedulerKind::kBalancing) {
  Workload w = make_workload({
      Job{1, 0.0, 80.0, 90.0, 64},
      Job{2, 5.0, 60.0, 70.0, 64},
      Job{3, 15.0, 60.0, 70.0, 32},
  });
  const FailureTrace trace({FailureEvent{30.0, 5}, FailureEvent{35.0, 5}}, 128);
  SimConfig config;
  config.scheduler = kind;
  config.predictor_model = model;
  config.alpha = 0.3;
  config.metrics_interval = 50.0;
  std::ostringstream out;
  TraceSink sink(out);
  config.obs.trace = &sink;
  run_simulation(w, trace, config);
  return out.str();
}

TEST(TraceAudit, CleanAdaptiveTracePassesStrict) {
  const AuditReport report =
      audit_string(adaptive_run(), AuditOptions{.strict = true});
  EXPECT_TRUE(report.ok()) << codes_of(report);
}

TEST(TraceAudit, DetectsMissingAdaptiveProvenance) {
  std::string trace = adaptive_run();
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"sim_begin\"", "flag_window", "0"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kPredictorMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsProvenanceFromNonAdaptivePredictor) {
  // Rewriting the declared predictor to an inert one leaves the adaptive
  // provenance fields (and any flags downstream) contradicting it.
  std::string trace = adaptive_run();
  ASSERT_TRUE(
      corrupt_field(trace, "\"type\":\"sim_begin\"", "predictor", "\"none\""));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kPredictorMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsFlagsFromInertPredictorPairing) {
  // krevat + paper is the inert pairing: its decisions must never report
  // flags in the chosen partition.
  std::string trace =
      adaptive_run(PredictorModel::kPaper, SchedulerKind::kKrevat);
  ASSERT_TRUE(
      corrupt_field(trace, "\"type\":\"sched_decision\"", "flags_in_chosen", "2"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kPredictorMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsForecastScoresFromInertPredictor) {
  std::string trace =
      adaptive_run(PredictorModel::kPaper, SchedulerKind::kKrevat);
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"metrics\"", "pred_tp", "1"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kPredictorMismatch))
      << codes_of(report);
}

TEST(TraceAudit, DetectsOutOfRangeForecastScores) {
  // pred_tp + pred_fp can never exceed the machine's node count, and the
  // counts are non-negative; both breaches are metrics-level corruption.
  std::string trace = adaptive_run();
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"metrics\"", "pred_fp", "999"));
  EXPECT_TRUE(has_code(audit_string(trace), ViolationCode::kMetricsMismatch))
      << codes_of(audit_string(trace));

  std::string trace2 = adaptive_run();
  ASSERT_TRUE(corrupt_field(trace2, "\"type\":\"metrics\"", "pred_fn", "-3"));
  EXPECT_TRUE(has_code(audit_string(trace2), ViolationCode::kMetricsMismatch))
      << codes_of(audit_string(trace2));
}

/// A live-service trace with an open-ended down-time: "down":true failure
/// of node 100 at t=10, its repair at t=50, and metrics every 20 s.
std::string service_down_repair_trace() {
  std::ostringstream out;
  TraceSink sink(out);
  svc::ServiceConfig config;
  config.obs.trace = &sink;
  config.metrics_interval = 20.0;
  svc::SchedulerService service(config);
  std::istringstream in(
      "{\"type\":\"submit\",\"t\":0,\"job\":1,\"size\":4,"
      "\"estimate\":100,\"runtime\":100}\n"
      "{\"type\":\"fail\",\"t\":10,\"node\":100,\"down\":true}\n"
      "{\"type\":\"repair\",\"t\":50,\"node\":100}\n"
      "{\"type\":\"complete\",\"t\":100,\"job\":1}\n");
  std::ostringstream replies;
  svc::SessionOptions options;
  options.flush_each = false;
  svc::run_session(in, replies, service, options);
  sink.flush();
  return out.str();
}

TEST(TraceAudit, DownFailureHeldUntilRepairPassesStrict) {
  AuditOptions opts;
  opts.strict = true;
  const AuditReport report = audit_string(service_down_repair_trace(), opts);
  EXPECT_TRUE(report.ok()) << codes_of(report);
}

TEST(TraceAudit, DetectsDroppedNodeRepair) {
  std::string trace = service_down_repair_trace();
  const auto pos = trace.find("\"type\":\"node_repair\"");
  ASSERT_NE(pos, std::string::npos);
  const auto line_start = trace.rfind('\n', pos) + 1;
  trace.erase(line_start, trace.find('\n', pos) - line_start + 1);
  // Without the repair the node stays down through the later metrics.
  EXPECT_TRUE(has_code(audit_string(trace), ViolationCode::kMetricsMismatch))
      << codes_of(audit_string(trace));
}

TEST(TraceAudit, DetectsRepairOfANodeNotHeldDown) {
  std::string trace = service_down_repair_trace();
  ASSERT_TRUE(corrupt_field(trace, "\"type\":\"node_failure\"", "down", "false"));
  const AuditReport report = audit_string(trace);
  EXPECT_TRUE(has_code(report, ViolationCode::kFieldMismatch)) << codes_of(report);
}

TEST(TraceAudit, UnknownEventsTolerantByDefaultStrictOptIn) {
  // Insert an unrecognised event just before sim_end, borrowing sim_end's
  // own t so the time-order invariant stays intact.
  std::string trace = traced_run(0.0);
  const auto pos = trace.find("{\"type\":\"sim_end\"");
  ASSERT_NE(pos, std::string::npos);
  const auto t_pos = trace.find("\"t\":", pos) + 4;
  auto t_end = t_pos;
  while (trace[t_end] != ',' && trace[t_end] != '}') ++t_end;
  const std::string t_raw = trace.substr(t_pos, t_end - t_pos);
  trace.insert(pos, "{\"type\":\"vendor_extension\",\"t\":" + t_raw + "}\n");

  AuditReport report = audit_string(trace);
  EXPECT_TRUE(report.ok()) << codes_of(report);
  EXPECT_EQ(report.unknown_events, 1u);

  report = audit_string(trace, AuditOptions{.strict = true});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kUnknownEvent));
}

TEST(TraceAudit, MalformedLineIsAFormatViolation) {
  std::string trace = traced_run(0.0);
  trace += "this is not json\n";
  const AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kFormat)) << codes_of(report);
}

TEST(TraceAudit, MaxViolationsCapsTheReport) {
  std::string trace = traced_run(25.0);
  const auto pos = trace.find("\"type\":\"job_start\"");
  const auto line_start = trace.rfind('\n', pos) + 1;
  const auto line_end = trace.find('\n', pos);
  trace.erase(line_start, line_end - line_start + 1);
  const AuditReport report =
      audit_string(trace, AuditOptions{.max_violations = 1});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 1u);
  EXPECT_GT(report.dropped_violations, 0u);
}

TEST(TraceAudit, ReportJsonIsWellFormedEnoughToGrep) {
  const AuditReport report = audit_string("");
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"truncated\""), std::string::npos);
}

TEST(TraceAudit, ViolationCodeStringsAreStable) {
  // The CLI report and CI greps key on these exact strings.
  EXPECT_STREQ(obs::to_string(ViolationCode::kOverlap), "overlap");
  EXPECT_STREQ(obs::to_string(ViolationCode::kWaitMismatch), "wait_mismatch");
  EXPECT_STREQ(obs::to_string(ViolationCode::kDecisionPairing),
               "decision_pairing");
  EXPECT_STREQ(obs::to_string(ViolationCode::kAggregateMismatch),
               "aggregate_mismatch");
  EXPECT_STREQ(obs::to_string(ViolationCode::kTruncated), "truncated");
  EXPECT_STREQ(obs::to_string(ViolationCode::kPredictorMismatch),
               "predictor_mismatch");
}

// --- machine_state snapshots ---

TEST(Snapshots, EmittedAtTheConfiguredCadenceAndAuditClean) {
  const std::string trace = traced_run(20.0);
  std::size_t snapshots = 0;
  for (std::size_t pos = trace.find("\"type\":\"machine_state\"");
       pos != std::string::npos;
       pos = trace.find("\"type\":\"machine_state\"", pos + 1)) {
    ++snapshots;
  }
  // The run spans >= 150 simulated seconds; at one snapshot per 20 s there
  // must be a healthy number of them.
  EXPECT_GE(snapshots, 5u);
  const AuditReport report = audit_string(trace, AuditOptions{.strict = true});
  EXPECT_TRUE(report.ok()) << codes_of(report);
}

TEST(Snapshots, OffByDefaultAndNeverPerturbTheSimulation) {
  SimResult without;
  const std::string base = traced_run(0.0, &without);
  EXPECT_EQ(base.find("\"type\":\"machine_state\""), std::string::npos);

  SimResult with;
  traced_run(7.0, &with);
  // Snapshots are pure observation: every result metric is bit-identical.
  EXPECT_EQ(with.jobs_completed, without.jobs_completed);
  EXPECT_EQ(with.job_kills, without.job_kills);
  EXPECT_EQ(with.migrations, without.migrations);
  EXPECT_EQ(with.checkpoints_taken, without.checkpoints_taken);
  EXPECT_EQ(with.avg_wait, without.avg_wait);
  EXPECT_EQ(with.avg_response, without.avg_response);
  EXPECT_EQ(with.avg_bounded_slowdown, without.avg_bounded_slowdown);
  EXPECT_EQ(with.utilization, without.utilization);
  EXPECT_EQ(with.work_lost_node_seconds, without.work_lost_node_seconds);
}

TEST(Snapshots, DeterministicAcrossIdenticalRuns) {
  // Strip the wall_us field (real wall-clock time) before comparing; all
  // simulation content must be byte-identical across identical runs.
  const auto strip_wall = [](std::string trace) {
    for (auto pos = trace.find(",\"wall_us\":"); pos != std::string::npos;
         pos = trace.find(",\"wall_us\":", pos)) {
      auto end = pos + 11;
      while (end < trace.size() && trace[end] != ',' && trace[end] != '}') ++end;
      trace.erase(pos, end - pos);
    }
    return trace;
  };
  EXPECT_EQ(strip_wall(traced_run(15.0)), strip_wall(traced_run(15.0)));
}

}  // namespace
}  // namespace bgl
