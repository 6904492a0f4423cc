// Tests of the online SchedulerService (src/svc/service.hpp) and the
// session loop (src/svc/server.hpp): typed rejections that leave the state
// untouched, recovery from malformed protocol lines, fuzzed corrupted
// streams, a strict trace_audit pass over a service-emitted trace, and the
// allocation book (each running job's partition, and failure victims read
// from it) across starts, releases, kills and migrations.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace bgl::svc {
namespace {

Event submit(double t, std::uint64_t job, int size, double estimate,
             double runtime = -1.0) {
  Event e;
  e.kind = EventKind::kSubmit;
  e.time = t;
  e.job = job;
  e.size = size;
  e.estimate = estimate;
  e.runtime = runtime;
  return e;
}

Event complete(double t, std::uint64_t job) {
  Event e;
  e.kind = EventKind::kComplete;
  e.time = t;
  e.job = job;
  return e;
}

Event fail(double t, int node, bool down = false) {
  Event e;
  e.kind = EventKind::kFail;
  e.time = t;
  e.node = node;
  e.down = down;
  return e;
}

Event repair(double t, int node) {
  Event e;
  e.kind = EventKind::kRepair;
  e.time = t;
  e.node = node;
  return e;
}

RejectCode refusal(SchedulerService& service, const Event& e) {
  std::vector<Decision> out;
  try {
    service.handle(e, out);
  } catch (const ProtocolError& err) {
    EXPECT_TRUE(out.empty());
    return err.code();
  }
  ADD_FAILURE() << "event was accepted";
  return RejectCode::kParse;
}

TEST(SvcService, SubmitStartsAndCompleteFrees) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 7, 32, 1000.0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, DecisionKind::kStart);
  EXPECT_EQ(out[0].job, 7u);
  EXPECT_GE(out[0].entry, 0);
  EXPECT_EQ(service.running_jobs(), 1u);

  out.clear();
  service.handle(complete(500.0, 7), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.running_jobs(), 0u);
  EXPECT_EQ(service.stats().finished, 1u);
  EXPECT_DOUBLE_EQ(service.now(), 500.0);
}

TEST(SvcService, TypedRejectionsLeaveStateUntouched) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(10.0, 1, 16, 100.0), out);
  const std::size_t running = service.running_jobs();

  // Duplicate id, bad sizes, bad estimate.
  EXPECT_EQ(refusal(service, submit(11.0, 1, 8, 50.0)),
            RejectCode::kDuplicateJob);
  EXPECT_EQ(refusal(service, submit(11.0, 2, 0, 50.0)), RejectCode::kBadValue);
  EXPECT_EQ(refusal(service, submit(11.0, 2, 129, 50.0)),
            RejectCode::kBadValue);
  EXPECT_EQ(refusal(service, submit(11.0, 2, 16, -1.0)), RejectCode::kBadValue);

  // Unknown / not-running completes.
  EXPECT_EQ(refusal(service, complete(12.0, 99)), RejectCode::kUnknownJob);

  // Nodes outside the 4x4x8 machine; repair of a healthy node.
  EXPECT_EQ(refusal(service, fail(12.0, -1)), RejectCode::kBadNode);
  EXPECT_EQ(refusal(service, fail(12.0, 128)), RejectCode::kBadNode);
  EXPECT_EQ(refusal(service, repair(12.0, 5)), RejectCode::kNodeState);

  // Time running backwards (now_ ratcheted to 12.0 by the rejected events?
  // No: rejections leave now_ at the last accepted event's time).
  EXPECT_EQ(refusal(service, submit(9.0, 3, 16, 100.0)),
            RejectCode::kTimeOrder);

  // The machine state survived every refusal: the job is still running and
  // a valid event still works.
  EXPECT_EQ(service.running_jobs(), running);
  out.clear();
  service.handle(complete(20.0, 1), out);
  EXPECT_EQ(service.stats().finished, 1u);
}

TEST(SvcService, EqualTimestampsAreAccepted) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(5.0, 1, 8, 100.0), out);
  service.handle(submit(5.0, 2, 8, 100.0), out);  // same t: fine
  EXPECT_EQ(service.stats().submitted, 2u);
}

TEST(SvcService, DownFailureKillsVictimAndRepairRestores) {
  ServiceConfig config;
  SchedulerService service(config);
  std::vector<Decision> out;
  // One job spanning the whole machine: any failed node is a victim.
  service.handle(submit(0.0, 1, 128, 10000.0), out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].kind, DecisionKind::kStart);

  out.clear();
  service.handle(fail(100.0, 17, /*down=*/true), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].kind, DecisionKind::kKill);
  EXPECT_EQ(out[0].job, 1u);
  EXPECT_EQ(out[0].node, 17);
  // Node 17 is down, so the 128-node job cannot restart yet.
  const bool restarted =
      std::any_of(out.begin(), out.end(), [](const Decision& d) {
        return d.kind == DecisionKind::kStart;
      });
  EXPECT_FALSE(restarted);
  EXPECT_EQ(service.waiting_jobs(), 1u);
  EXPECT_EQ(service.usable_free_nodes(), 127);

  out.clear();
  service.handle(repair(200.0, 17), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, DecisionKind::kStart);
  EXPECT_EQ(out[0].job, 1u);
  EXPECT_EQ(service.usable_free_nodes(), 0);
  EXPECT_EQ(service.stats().kills, 1u);
}

TEST(SvcService, SessionRecoversFromMalformedLines) {
  SchedulerService service((ServiceConfig()));
  std::istringstream in(
      "{\"type\":\"submit\",\"t\":0,\"job\":1,\"size\":8,\"estimate\":100}\n"
      "this is not json\n"
      "{\"type\":\"submit\",\"t\":1,\"job\":1,\"size\":8,\"estimate\":100}\n"
      "{\"nope\":1}\n"
      "{\"type\":\"warp\",\"t\":2}\n"
      "\n"
      "{\"type\":\"complete\",\"t\":50,\"job\":1}\n");
  std::ostringstream out;
  SessionOptions options;
  options.flush_each = false;
  const SessionStats stats = run_session(in, out, service, options);

  EXPECT_EQ(stats.lines, 6u);  // blank line skipped
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(service.stats().finished, 1u);

  // Reply stream: every line answered, errors carry line numbers + codes.
  const std::string text = out.str();
  EXPECT_NE(text.find("\"code\":\"parse\""), std::string::npos);
  EXPECT_NE(text.find("\"code\":\"duplicate-job\""), std::string::npos);
  EXPECT_NE(text.find("\"code\":\"unknown-type\""), std::string::npos);
  EXPECT_NE(text.find("\"line\":2"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"stats\""), std::string::npos);
}

TEST(SvcService, InBandStatsRequestAnswersWithoutApplyingAnEvent) {
  obs::PhaseProfiler profiler;
  obs::HistogramRegistry histograms;
  ServiceConfig config;
  config.obs.profiler = &profiler;
  config.obs.histograms = &histograms;
  SchedulerService service(config);

  // The stats line needs a "t" only because the trace framing demands one on
  // every record; its value is ignored.
  std::istringstream in(
      "{\"type\":\"submit\",\"t\":0,\"job\":1,\"size\":8,\"estimate\":100}\n"
      "{\"type\":\"stats\",\"t\":0}\n"
      "{\"type\":\"complete\",\"t\":50,\"job\":1}\n");
  std::ostringstream out;
  SessionOptions options;
  options.flush_each = false;
  options.profiler = &profiler;
  options.histograms = &histograms;
  const SessionStats stats = run_session(in, out, service, options);

  // The request is neither accepted nor rejected: no event was applied, no
  // time advanced, no decision made.
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(service.stats().finished, 1u);

  // Two stats replies: the in-band answer plus the end-of-stream line.
  const std::string text = out.str();
  std::size_t replies = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"type\":\"stats\"", pos)) != std::string::npos;
       pos += 14) {
    ++replies;
  }
  EXPECT_EQ(replies, 2u);

  // The in-band reply (first stats line) reflects mid-session state: one
  // line consumed so far, one job running, canonical decision-latency keys
  // and the flat profiler fields.
  const std::string first =
      text.substr(text.find("\"type\":\"stats\""),
                  text.find('\n', text.find("\"type\":\"stats\"")) -
                      text.find("\"type\":\"stats\""));
  EXPECT_NE(first.find("\"lines\":2"), std::string::npos);
  EXPECT_NE(first.find("\"running\":1"), std::string::npos);
  EXPECT_NE(first.find("\"sched.decision_us_count\":"), std::string::npos);
  EXPECT_NE(first.find("\"sched.decision_us_max\":"), std::string::npos);
  EXPECT_NE(first.find("\"ph_count:svc.event\":"), std::string::npos);
}

/// Fuzz: corrupt a valid session stream in seeded random ways; the session
/// loop must answer every line (ok or error) and never crash or stop early.
TEST(SvcService, FuzzedCorruptionNeverCrashesTheSession) {
  // A valid base session.
  std::vector<std::string> base;
  {
    std::string line;
    for (int j = 0; j < 10; ++j) {
      line.clear();
      append_event_line(line, submit(j * 10.0, j, 8 + 8 * (j % 3), 500.0));
      base.push_back(line.substr(0, line.size() - 1));
    }
    for (int j = 0; j < 10; ++j) {
      line.clear();
      append_event_line(line, complete(1000.0 + j * 10.0, j));
      base.push_back(line.substr(0, line.size() - 1));
    }
  }

  Rng rng(0xfadedcafe);
  for (int round = 0; round < 50; ++round) {
    std::string stream;
    for (const std::string& line : base) {
      std::string mutated = line;
      switch (rng.next_u64() % 6) {
        case 0:  // truncate
          mutated = mutated.substr(0, rng.next_u64() % (mutated.size() + 1));
          break;
        case 1: {  // flip one byte
          const std::size_t i = rng.next_u64() % mutated.size();
          mutated[i] = static_cast<char>(rng.next_u64() % 256);
          break;
        }
        case 2:  // duplicate the line (duplicate-job / not-running errors)
          mutated += "\n" + mutated;
          break;
        case 3:  // prepend garbage
          mutated = "\x01\xff{]" + mutated;
          break;
        default:  // leave valid
          break;
      }
      stream += mutated;
      stream += '\n';
    }
    SchedulerService service((ServiceConfig()));
    std::istringstream in(stream);
    std::ostringstream out;
    SessionOptions options;
    options.flush_each = false;
    options.stats_line = false;
    const SessionStats stats = run_session(in, out, service, options);
    EXPECT_EQ(stats.accepted + stats.rejected, stats.lines);
    // Every consumed line produced a framing reply.
    const std::string text = out.str();
    std::size_t frames = 0;
    for (std::size_t pos = 0; (pos = text.find("\"type\":\"", pos)) !=
                              std::string::npos;
         pos += 8) {
      const std::string_view rest(text.data() + pos + 8, 8);
      if (rest.substr(0, 2) == "ok" || rest.substr(0, 5) == "error") ++frames;
    }
    EXPECT_EQ(frames, stats.lines) << "round " << round;
  }
}

TEST(SvcService, EmittedTracePassesStrictAudit) {
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  SchedulerService service(config);

  // Three size-32 jobs on the 128-node machine: all start on submit. A
  // transient failure through job 2's partition forces a kill + restart.
  std::vector<Decision> out;
  service.handle(submit(0.0, 0, 32, 2000.0, 1000.0), out);
  service.handle(submit(1.0, 1, 32, 2000.0, 1500.0), out);
  service.handle(submit(2.0, 2, 128 - 64, 2000.0, 1800.0), out);
  out.clear();
  service.handle(fail(500.0, 100), out);  // hits *some* partition or none
  // Retire everything that is still running; restart decisions re-arm jobs.
  // Completes are issued from the service's own view to stay valid.
  double t = 2500.0;
  for (std::uint64_t j = 0; j < 3; ++j) {
    std::vector<Decision> d;
    try {
      service.handle(complete(t, j), d);
    } catch (const ProtocolError&) {
      // Job was killed and is waiting: restart then complete.
      service.handle(submit(t + 1.0, 100 + j, 1, 1.0), d);  // nudge a pass
      std::vector<Decision> d2;
      service.handle(complete(t + 2.0, 100 + j), d2);
      service.handle(complete(t + 3.0, j), d2);
    }
    t += 10.0;
  }
  EXPECT_TRUE(service.finish_stream());
  sink.flush();

  std::istringstream trace_in(trace_out.str());
  obs::AuditOptions audit;
  audit.strict = true;
  const obs::AuditReport report = obs::audit_trace(trace_in, audit);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream s;
    report.write_json(s);
    return s.str();
  }();
  EXPECT_EQ(report.jobs, report.jobs);  // parsed
}

TEST(SvcService, DownRepairStreamWithMetricsPassesStrictAudit) {
  // A down failure and its repair inside metrics windows: the trace must
  // carry both ends of the down-time so the auditor can rebuild down_nodes.
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  config.metrics_interval = 20.0;
  SchedulerService service(config);
  std::istringstream in(
      "{\"type\":\"submit\",\"t\":0,\"job\":1,\"size\":4,"
      "\"estimate\":100,\"runtime\":100}\n"
      "{\"type\":\"fail\",\"t\":10,\"node\":100,\"down\":true}\n"
      "{\"type\":\"repair\",\"t\":50,\"node\":100}\n"
      "{\"type\":\"complete\",\"t\":100,\"job\":1}\n");
  std::ostringstream replies;
  SessionOptions options;
  options.flush_each = false;
  const SessionStats stats = run_session(in, replies, service, options);
  ASSERT_EQ(stats.rejected, 0u);
  sink.flush();

  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"type\":\"node_failure\""), std::string::npos);
  EXPECT_NE(trace.find("\"down\":true"), std::string::npos);
  EXPECT_NE(trace.find("{\"type\":\"node_repair\",\"t\":50,"), std::string::npos);
  EXPECT_NE(trace.find("\"down_nodes\":1"), std::string::npos);

  std::istringstream trace_in(trace);
  obs::AuditOptions audit;
  audit.strict = true;
  const obs::AuditReport report = obs::audit_trace(trace_in, audit);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream s;
    report.write_json(s);
    return s.str();
  }();
}

TEST(SvcService, TransientFailureTraceCarriesNoDownFlag) {
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 4, 100.0), out);
  service.handle(fail(10.0, 100), out);
  sink.flush();
  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"type\":\"node_failure\""), std::string::npos);
  EXPECT_EQ(trace.find("\"down\""), std::string::npos);
}

TEST(SvcService, CheckpointedKillKeepsSavedWorkAndTracesIt) {
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  config.ckpt.enabled = true;
  config.ckpt.interval = 100.0;
  config.ckpt.overhead = 10.0;
  config.ckpt.restart_overhead = 5.0;
  SchedulerService service(config);
  std::vector<Decision> out;
  EXPECT_EQ(refusal(service, submit(0.0, 9, 8, 100.0)), RejectCode::kBadField)
      << "checkpointing needs the runtime";

  service.handle(submit(0.0, 1, 128, 1000.0, 1000.0), out);
  EXPECT_EQ(service.remaining_work(1), 1000.0);
  // Checkpoints complete at wall 110 and 220: 200 s of work survive the
  // failure at 250, 50 s are lost, and the restart costs 5 s.
  out.clear();
  service.handle(fail(250.0, 3), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, DecisionKind::kKill);
  EXPECT_EQ(out[1].kind, DecisionKind::kStart);
  EXPECT_EQ(service.remaining_work(1), 805.0);
  EXPECT_EQ(service.stats().checkpoints, 2u);
  EXPECT_EQ(service.stats().work_lost_node_seconds, 50.0 * 128.0);

  // 805 s of work with 8 checkpoint stalls of 10 s each.
  service.handle(complete(250.0 + 885.0, 1), out);
  EXPECT_EQ(service.stats().checkpoints, 10u);
  ASSERT_TRUE(service.finish_stream());
  sink.flush();

  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"type\":\"checkpoint\",\"t\":250,"), std::string::npos);
  EXPECT_NE(trace.find("\"work_saved\":25600"), std::string::npos);
  EXPECT_NE(trace.find("\"checkpoints\":10"), std::string::npos);
  std::istringstream trace_in(trace);
  obs::AuditOptions audit;
  audit.strict = true;
  const obs::AuditReport report = obs::audit_trace(trace_in, audit);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream s;
    report.write_json(s);
    return s.str();
  }();
}

TEST(SvcService, SimBeginReportsTheAnnouncedCensus) {
  for (const bool announced : {false, true}) {
    std::ostringstream trace_out;
    obs::TraceSink sink(trace_out);
    ServiceConfig config;
    config.obs.trace = &sink;
    SchedulerService service(config);
    if (announced) service.announce(StreamCensus{3, 5});
    std::vector<Decision> out;
    service.handle(submit(0.0, 1, 4, 100.0), out);
    sink.flush();
    const std::string begin = trace_out.str().substr(0, trace_out.str().find('\n'));
    EXPECT_NE(begin.find(announced ? "\"jobs\":3,\"failure_events\":5"
                                   : "\"jobs\":0,\"failure_events\":0"),
              std::string::npos)
        << begin;
  }
}

TEST(SvcService, OracleModelsWithoutATraceRaiseTypedError) {
  for (const PredictorModel model :
       {PredictorModel::kPerfect, PredictorModel::kHistory}) {
    ServiceConfig config;
    config.scheduler = SchedulerKind::kBalancing;
    config.alpha = 0.5;
    config.predictor_model = model;
    try {
      SchedulerService service(config);
      FAIL() << to_string(model) << " built without an oracle";
    } catch (const OracleRequiredError& e) {
      EXPECT_EQ(e.model(), model);  // names the flag the frontend must report
    }
  }
  // kPaper needs the oracle only when a fault-aware scheduler consults it.
  ServiceConfig paper;
  paper.scheduler = SchedulerKind::kTieBreak;
  paper.alpha = 0.5;
  paper.predictor_model = PredictorModel::kPaper;
  EXPECT_THROW(SchedulerService{paper}, OracleRequiredError);
  paper.scheduler = SchedulerKind::kKrevat;
  EXPECT_NO_THROW(SchedulerService{paper});
}

TEST(SvcService, AdaptivePredictorNeedsNoOracleAndLearnsFromEvents) {
  ServiceConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  config.predictor_model = PredictorModel::kAdaptive;
  SchedulerService service(config);  // no oracle: must construct

  // Feed a failure on an idle machine, then submit: the learned flag should
  // be visible to the scheduling pass (counted by the service's stats).
  std::vector<Decision> out;
  service.handle(fail(10.0, 3), out);
  EXPECT_TRUE(out.empty());
  service.handle(submit(20.0, 1, 1, 3600.0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(service.stats().failures, 1u);
}

// --- The service's allocation book -------------------------------------
// Each running job's partition is JobRec::entry, and the union of those
// partitions is the occupancy every start, release, migration and failure
// victim is read from. These tests drive that book through the public API.

// The partition a start or migrate decision names for `job`, or -1.
int placed_entry(const std::vector<Decision>& out, std::uint64_t job) {
  for (const Decision& d : out) {
    if (d.job == job &&
        (d.kind == DecisionKind::kStart || d.kind == DecisionKind::kMigrate)) {
      return d.entry;
    }
  }
  return -1;
}

std::vector<std::uint64_t> killed_jobs(const std::vector<Decision>& out) {
  std::vector<std::uint64_t> ids;
  for (const Decision& d : out) {
    if (d.kind == DecisionKind::kKill) ids.push_back(d.job);
  }
  return ids;
}

TEST(Occupancy, AllocateReleaseLifecycle) {
  SchedulerService service((ServiceConfig()));
  EXPECT_EQ(service.usable_free_nodes(), 128);

  std::vector<Decision> out;
  service.handle(submit(0.0, 7, 32, 1000.0), out);
  const int entry = placed_entry(out, 7);
  ASSERT_GE(entry, 0);
  EXPECT_EQ(service.catalog().entry(entry).mask.count(), 32);
  EXPECT_EQ(service.usable_free_nodes(), 96);
  EXPECT_EQ(service.running_jobs(), 1u);

  // A second job gets a partition disjoint from the first.
  out.clear();
  service.handle(submit(1.0, 8, 64, 1000.0), out);
  const int second = placed_entry(out, 8);
  ASSERT_GE(second, 0);
  EXPECT_FALSE(service.catalog().entry(second).mask.intersects(
      service.catalog().entry(entry).mask));
  EXPECT_EQ(service.usable_free_nodes(), 32);

  out.clear();
  service.handle(complete(10.0, 7), out);
  EXPECT_EQ(service.usable_free_nodes(), 64);
  out.clear();
  service.handle(complete(11.0, 8), out);
  EXPECT_EQ(service.usable_free_nodes(), 128);
  EXPECT_EQ(service.running_jobs(), 0u);
}

TEST(Occupancy, HeldPartitionWaitsForRelease) {
  // Two full-machine jobs can never hold the machine at once: the second
  // waits, and takes the same partition only after the first releases it.
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 128, 1000.0), out);
  const int entry = placed_entry(out, 1);
  ASSERT_GE(entry, 0);
  out.clear();
  service.handle(submit(1.0, 2, 128, 1000.0), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.waiting_jobs(), 1u);
  EXPECT_EQ(service.usable_free_nodes(), 0);

  out.clear();
  service.handle(complete(5.0, 1), out);
  EXPECT_EQ(placed_entry(out, 2), entry);
  EXPECT_EQ(service.running_jobs(), 1u);
  EXPECT_EQ(service.waiting_jobs(), 0u);
}

TEST(Occupancy, DuplicateIdThrows) {
  // A duplicate of a running job's id is refused and the original keeps
  // its partition.
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 1, 1000.0), out);
  ASSERT_GE(placed_entry(out, 1), 0);
  EXPECT_EQ(refusal(service, submit(1.0, 1, 1, 1000.0)),
            RejectCode::kDuplicateJob);
  EXPECT_EQ(service.running_jobs(), 1u);
  EXPECT_EQ(service.usable_free_nodes(), 127);
  out.clear();
  service.handle(complete(2.0, 1), out);
  EXPECT_EQ(service.usable_free_nodes(), 128);
}

TEST(Occupancy, ReleaseUnknownThrows) {
  SchedulerService service((ServiceConfig()));
  EXPECT_EQ(refusal(service, complete(0.0, 404)), RejectCode::kUnknownJob);

  // A waiting job holds no partition, so completing it releases nothing
  // and is refused as well.
  std::vector<Decision> out;
  service.handle(submit(1.0, 1, 128, 1000.0), out);
  service.handle(submit(1.0, 2, 128, 1000.0), out);
  ASSERT_EQ(service.waiting_jobs(), 1u);
  EXPECT_EQ(refusal(service, complete(2.0, 2)), RejectCode::kNotRunning);
  EXPECT_EQ(service.running_jobs(), 1u);
  EXPECT_EQ(service.usable_free_nodes(), 0);
}

TEST(Occupancy, AllocationsContainingNode) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 64, 10000.0), out);
  service.handle(submit(0.0, 2, 32, 10000.0), out);
  const int e1 = placed_entry(out, 1);
  const int e2 = placed_entry(out, 2);
  ASSERT_GE(e1, 0);
  ASSERT_GE(e2, 0);
  const NodeSet& m1 = service.catalog().entry(e1).mask;
  const NodeSet& m2 = service.catalog().entry(e2).mask;
  int in1 = -1, in2 = -1, idle = -1;
  for (int n = 0; n < 128; ++n) {
    if (m1.test(n) && in1 < 0) in1 = n;
    if (m2.test(n) && in2 < 0) in2 = n;
    if (!m1.test(n) && !m2.test(n) && idle < 0) idle = n;
  }
  ASSERT_GE(idle, 0);

  // A node held by no job has no victim.
  out.clear();
  service.handle(fail(10.0, idle), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.stats().failures_hitting_jobs, 0u);

  // A held node's only victim is the job whose partition holds it.
  out.clear();
  service.handle(fail(20.0, in2), out);
  EXPECT_EQ(killed_jobs(out), std::vector<std::uint64_t>{2});
  out.clear();
  service.handle(fail(30.0, in1), out);
  EXPECT_EQ(killed_jobs(out), std::vector<std::uint64_t>{1});
  EXPECT_EQ(service.stats().failures_hitting_jobs, 2u);
}

TEST(Occupancy, ClearDropsEverything) {
  // Once every job has finished or been killed off a down machine, the book
  // holds nothing: only the down nodes are unusable.
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 32, 1000.0), out);
  service.handle(submit(0.0, 2, 32, 1000.0), out);
  service.handle(submit(0.0, 3, 64, 1000.0), out);
  ASSERT_EQ(service.running_jobs(), 3u);
  ASSERT_EQ(service.usable_free_nodes(), 0);
  const NodeSet& m3 = service.catalog().entry(placed_entry(out, 3)).mask;
  int node = 0;
  while (!m3.test(node)) ++node;

  out.clear();
  service.handle(complete(5.0, 1), out);
  service.handle(complete(6.0, 2), out);
  ASSERT_EQ(service.usable_free_nodes(), 64);

  // Job 3's node goes down: job 3 is killed and restarts on the healthy
  // half, away from the down node.
  out.clear();
  service.handle(fail(7.0, node, /*down=*/true), out);
  EXPECT_EQ(killed_jobs(out), std::vector<std::uint64_t>{3});
  const int restart = placed_entry(out, 3);
  ASSERT_GE(restart, 0);
  EXPECT_FALSE(service.catalog().entry(restart).mask.test(node));
  EXPECT_EQ(service.usable_free_nodes(), 63);

  out.clear();
  service.handle(complete(8.0, 3), out);
  EXPECT_EQ(service.running_jobs(), 0u);
  EXPECT_EQ(service.usable_free_nodes(), 127);
}

TEST(SvcService, MigratedJobIsAVictimOnlyOnItsNewPartition) {
  // Fill the machine with four 32-node jobs, then free two whose union is
  // not a partition: a 64-node job can only start by re-packing a survivor.
  SchedulerService service((ServiceConfig()));
  const PartitionCatalog& catalog = service.catalog();
  std::vector<Decision> out;
  std::vector<int> entry(5, -1);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    out.clear();
    service.handle(submit(0.0, id, 32, 10000.0), out);
    entry[id] = placed_entry(out, id);
    ASSERT_GE(entry[id], 0);
  }
  const auto is_partition = [&](const NodeSet& nodes) {
    const auto [first, last] = catalog.size_range(nodes.count());
    for (int e = first; e < last; ++e) {
      if (catalog.entry(e).mask == nodes) return true;
    }
    return false;
  };
  std::uint64_t a = 0, b = 0;
  for (std::uint64_t i = 1; i <= 4 && a == 0; ++i) {
    for (std::uint64_t j = i + 1; j <= 4 && a == 0; ++j) {
      NodeSet u = catalog.entry(entry[i]).mask;
      u |= catalog.entry(entry[j]).mask;
      if (!is_partition(u)) a = i, b = j;
    }
  }
  ASSERT_NE(a, 0u) << "every pair of 32-node jobs forms a partition";
  out.clear();
  service.handle(complete(10.0, a), out);
  service.handle(complete(10.0, b), out);
  out.clear();
  service.handle(submit(20.0, 5, 64, 10000.0), out);
  ASSERT_GE(placed_entry(out, 5), 0);
  const auto moved = std::find_if(out.begin(), out.end(), [](const Decision& d) {
    return d.kind == DecisionKind::kMigrate;
  });
  ASSERT_NE(moved, out.end());
  EXPECT_EQ(moved->from_entry, entry[moved->job]);

  // Every job's partition after the pass, from the decisions alone.
  for (const Decision& d : out) {
    if (d.kind == DecisionKind::kMigrate || d.kind == DecisionKind::kStart) {
      entry.resize(std::max<std::size_t>(entry.size(), d.job + 1), -1);
      entry[d.job] = d.entry;
    }
  }
  entry[a] = entry[b] = -1;
  const auto holder = [&](int node) -> std::uint64_t {
    for (std::uint64_t id = 1; id < entry.size(); ++id) {
      if (entry[id] >= 0 && catalog.entry(entry[id]).mask.test(node)) return id;
    }
    return 0;
  };

  // A node the mover left behind belongs to whoever holds it now (never
  // the mover); a node of the mover's new partition kills the mover.
  const std::uint64_t mover = moved->job;
  const NodeSet& old_mask = catalog.entry(moved->from_entry).mask;
  const NodeSet& new_mask = catalog.entry(moved->entry).mask;
  int left = -1, arrived = -1;
  for (int n = 0; n < catalog.num_nodes(); ++n) {
    if (old_mask.test(n) && !new_mask.test(n) && left < 0) left = n;
    if (new_mask.test(n) && !old_mask.test(n) && arrived < 0) arrived = n;
  }
  ASSERT_GE(left, 0);
  ASSERT_GE(arrived, 0);
  const std::uint64_t heir = holder(left);
  ASSERT_NE(heir, mover);
  ASSERT_EQ(holder(arrived), mover);

  out.clear();
  service.handle(fail(30.0, arrived), out);
  EXPECT_EQ(killed_jobs(out), std::vector<std::uint64_t>{mover});
  out.clear();
  service.handle(fail(40.0, left), out);
  if (heir == 0) {
    EXPECT_TRUE(killed_jobs(out).empty());
  } else {
    EXPECT_EQ(killed_jobs(out), std::vector<std::uint64_t>{heir});
  }
}

}  // namespace
}  // namespace bgl::svc
