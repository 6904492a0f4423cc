// Tests of the periodic `metrics` telemetry: the LatencyRing window
// statistics, Prometheus exposition rendering (src/obs/prometheus.hpp),
// driver- and service-side emission, and the trace auditor's cross-checks
// over metrics events (accept the genuine stream, catch seeded corruption).
#include "obs/series.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/prometheus.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace bgl {
namespace {

using obs::AuditOptions;
using obs::AuditReport;
using obs::LatencyRing;
using obs::TraceSink;
using obs::ViolationCode;

// --- LatencyRing ----------------------------------------------------------

TEST(LatencyRing, EmptyAnswersZero) {
  LatencyRing ring(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.quantile(0.5), 0.0);
  EXPECT_EQ(ring.max(), 0.0);
}

TEST(LatencyRing, SingleSampleIsEveryQuantile) {
  LatencyRing ring(8);
  ring.add(42.5);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.quantile(0.0), 42.5);
  EXPECT_EQ(ring.quantile(0.5), 42.5);
  EXPECT_EQ(ring.quantile(0.99), 42.5);
  EXPECT_EQ(ring.quantile(1.0), 42.5);
  EXPECT_EQ(ring.max(), 42.5);
}

TEST(LatencyRing, NearestRankOverKnownSamples) {
  LatencyRing ring(16);
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) ring.add(v);
  EXPECT_EQ(ring.quantile(0.5), 3.0);
  EXPECT_EQ(ring.quantile(1.0), 5.0);
  EXPECT_EQ(ring.max(), 5.0);
}

TEST(LatencyRing, WrapsKeepingTheMostRecentWindow) {
  LatencyRing ring(4);
  for (int i = 1; i <= 10; ++i) ring.add(static_cast<double>(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.added(), 10u);
  // Only {7, 8, 9, 10} remain.
  EXPECT_EQ(ring.quantile(0.0), 7.0);
  EXPECT_EQ(ring.max(), 10.0);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.added(), 0u);
  EXPECT_EQ(ring.max(), 0.0);
}

// --- Prometheus exposition ------------------------------------------------

TEST(PrometheusRender, NullRegistriesRenderJustTheEofMarker) {
  std::string out;
  obs::prometheus_render(out, nullptr, nullptr, nullptr);
  EXPECT_EQ(out, "# EOF\n");
}

TEST(PrometheusRender, CountersBecomeTotalFamilies) {
  obs::CounterRegistry counters;
  counters.add(obs::Counter::kSchedInvocations, 7);
  std::string out;
  obs::prometheus_render(out, &counters, nullptr, nullptr);
  EXPECT_NE(out.find("# TYPE bgl_sched_invocations_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("bgl_sched_invocations_total 7\n"), std::string::npos);
  EXPECT_TRUE(out.size() >= 6 && out.substr(out.size() - 6) == "# EOF\n");
}

TEST(PrometheusRender, RepackCounterIsExposed) {
  obs::CounterRegistry counters;
  counters.add(obs::Counter::kSchedRepacks, 3);
  std::string out;
  obs::prometheus_render(out, &counters, nullptr, nullptr);
  EXPECT_NE(out.find("# TYPE bgl_sched_repacks_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("bgl_sched_repacks_total 3\n"), std::string::npos);
}

TEST(PrometheusRender, SingleSampleHistogramQuantilesAgree) {
  obs::HistogramRegistry histograms;
  histograms.add(obs::Hist::kDecisionUs, 100.0);
  std::string out;
  obs::prometheus_render(out, nullptr, &histograms, nullptr);
  const std::string name =
      obs::prometheus_metric_name(obs::histogram_name(obs::Hist::kDecisionUs));
  EXPECT_NE(out.find("# TYPE " + name + " summary\n"), std::string::npos);
  EXPECT_NE(out.find(name + "_count 1\n"), std::string::npos);
  EXPECT_NE(out.find(name + "_sum 100\n"), std::string::npos);
  // One sample: every quantile is clamped to it exactly.
  EXPECT_NE(out.find(name + "{quantile=\"0.5\"} 100\n"), std::string::npos);
  EXPECT_NE(out.find(name + "{quantile=\"0.99\"} 100\n"), std::string::npos);
}

TEST(PrometheusRender, PhaseTreeBecomesPathLabelledFamilies) {
  obs::PhaseProfiler profiler;
  {
    obs::ScopedPhase pass(&profiler, obs::Phase::kSchedPass);
    obs::ScopedPhase score(&profiler, obs::Phase::kScore);
  }
  std::string out;
  obs::prometheus_render(out, nullptr, nullptr, &profiler);
  EXPECT_NE(out.find("# TYPE bgl_phase_spans_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("bgl_phase_spans_total{path=\"sched.pass\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      out.find("bgl_phase_spans_total{path=\"sched.pass/sched.score\"} 1\n"),
      std::string::npos);
  EXPECT_NE(out.find("bgl_phase_seconds_total{path=\"sched.pass\"}"),
            std::string::npos);
  EXPECT_NE(out.find("bgl_phase_self_seconds_total{path=\"sched.pass\"}"),
            std::string::npos);
}

TEST(PrometheusRender, GaugesRenderAsGaugeFamilies) {
  std::string out;
  obs::prometheus_render(out, nullptr, nullptr, nullptr,
                         {{"svc.queue_depth", 4.0}});
  EXPECT_NE(out.find("# TYPE bgl_svc_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("bgl_svc_queue_depth 4\n"), std::string::npos);
}

// --- driver-side emission + audit cross-check -----------------------------

Workload metrics_workload() {
  Workload w;
  w.name = "metrics";
  w.machine_nodes = 128;
  w.jobs = {
      Job{1, 0.0, 100.0, 100.0, 128},
      Job{2, 10.0, 50.0, 60.0, 64},
      Job{3, 20.0, 50.0, 60.0, 64},
      Job{4, 30.0, 40.0, 45.0, 32},
  };
  normalize(w);
  return w;
}

std::string driver_trace(double metrics_interval, double snapshot_interval) {
  Workload w = metrics_workload();
  const FailureTrace trace({FailureEvent{40.0, 0}}, 128);
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  config.failure_semantics = FailureSemantics::kDownFor;
  config.node_downtime = 25.0;
  config.metrics_interval = metrics_interval;
  config.snapshot_interval = snapshot_interval;
  std::ostringstream out;
  TraceSink sink(out);
  config.obs.trace = &sink;
  run_simulation(w, trace, config);
  return out.str();
}

AuditReport audit_string(const std::string& trace, AuditOptions opts = {}) {
  std::istringstream in(trace);
  return obs::audit_trace(in, opts);
}

bool has_code(const AuditReport& report, ViolationCode code) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [code](const obs::Violation& v) { return v.code == code; });
}

/// Zero out every wall-clock field ("wall_us" on all lines, the metrics
/// decision_us_* quantiles) so deterministic traces compare byte-identical.
std::string scrub_wall(const std::string& trace) {
  std::string out = trace;
  for (const char* key :
       {"\"wall_us\":", "\"decision_us_p50\":", "\"decision_us_p99\":",
        "\"decision_us_max\":"}) {
    for (std::size_t at = out.find(key); at != std::string::npos;
         at = out.find(key, at + 1)) {
      const std::size_t start = at + std::string(key).size();
      std::size_t end = start;
      while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
      out = out.substr(0, start) + "0" + out.substr(end);
    }
  }
  return out;
}

std::size_t count_events(const std::string& trace, const char* type) {
  const std::string needle = std::string("\"type\":\"") + type + "\"";
  std::size_t n = 0;
  for (std::size_t pos = trace.find(needle); pos != std::string::npos;
       pos = trace.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

/// Bump the integer value of `key` on the first metrics line by +1.
std::string corrupt_first_metrics_field(const std::string& trace,
                                        const std::string& key) {
  const std::size_t line = trace.find("\"type\":\"metrics\"");
  EXPECT_NE(line, std::string::npos);
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = trace.find(needle, line);
  EXPECT_NE(at, std::string::npos);
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < trace.size() && trace[end] != ',' && trace[end] != '}') ++end;
  const long long value = std::stoll(trace.substr(start, end - start));
  return trace.substr(0, start) + std::to_string(value + 1) +
         trace.substr(end);
}

TEST(MetricsEmission, DriverOffByDefaultKeepsTraceByteIdentical) {
  EXPECT_EQ(count_events(driver_trace(0.0, 0.0), "metrics"), 0u);
  EXPECT_EQ(scrub_wall(driver_trace(0.0, 0.0)),
            scrub_wall(driver_trace(0.0, 0.0)));
}

TEST(MetricsEmission, DriverEmitsAndStrictAuditAccepts) {
  const std::string trace = driver_trace(30.0, 45.0);
  EXPECT_GT(count_events(trace, "metrics"), 2u);
  EXPECT_GT(count_events(trace, "machine_state"), 2u);
  const AuditReport report =
      audit_string(trace, AuditOptions{.strict = true});
  EXPECT_TRUE(report.ok()) << trace;
}

TEST(MetricsEmission, AuditCatchesCorruptedGauge) {
  const std::string trace = driver_trace(30.0, 0.0);
  for (const char* key : {"queue_depth", "busy_nodes", "submits", "starts"}) {
    const AuditReport report = audit_string(
        corrupt_first_metrics_field(trace, key), AuditOptions{.strict = true});
    EXPECT_FALSE(report.ok()) << key;
    EXPECT_TRUE(has_code(report, ViolationCode::kMetricsMismatch)) << key;
  }
}

TEST(MetricsEmission, MetricsDoNotPerturbTheSimulation) {
  // The decision stream must be identical with and without emission: strip
  // metrics/machine_state lines and compare.
  const auto strip = [](const std::string& trace) {
    std::istringstream in(trace);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
      if (line.find("\"type\":\"metrics\"") == std::string::npos &&
          line.find("\"type\":\"machine_state\"") == std::string::npos) {
        out += line + "\n";
      }
    }
    return out;
  };
  EXPECT_EQ(scrub_wall(strip(driver_trace(30.0, 45.0))),
            scrub_wall(driver_trace(0.0, 0.0)));
}

// --- service-side emission + audit cross-check ----------------------------

svc::Event submit(double t, std::uint64_t job, int size, double estimate,
                  double runtime) {
  svc::Event e;
  e.kind = svc::EventKind::kSubmit;
  e.time = t;
  e.job = job;
  e.size = size;
  e.estimate = estimate;
  e.runtime = runtime;
  return e;
}

svc::Event complete(double t, std::uint64_t job) {
  svc::Event e;
  e.kind = svc::EventKind::kComplete;
  e.time = t;
  e.job = job;
  return e;
}

std::string service_trace(double metrics_interval) {
  std::ostringstream out;
  TraceSink sink(out);
  svc::ServiceConfig config;
  config.obs.trace = &sink;
  config.metrics_interval = metrics_interval;
  svc::SchedulerService service(config);
  std::vector<svc::Decision> decisions;
  // Jobs run serially on the full machine, so starts are deterministic.
  double t = 0.0;
  for (std::uint64_t job = 1; job <= 6; ++job) {
    service.handle(submit(t, job, 128, 400.0, 300.0), decisions);
    service.handle(complete(t + 300.0, job), decisions);
    t += 300.0;
  }
  service.finish_stream();
  return out.str();
}

TEST(MetricsEmission, ServiceOffByDefaultKeepsTraceByteIdentical) {
  EXPECT_EQ(count_events(service_trace(0.0), "metrics"), 0u);
  EXPECT_EQ(scrub_wall(service_trace(0.0)), scrub_wall(service_trace(0.0)));
}

TEST(MetricsEmission, ServiceEmitsAndStrictAuditAccepts) {
  const std::string trace = service_trace(120.0);
  EXPECT_GT(count_events(trace, "metrics"), 5u);
  const AuditReport report =
      audit_string(trace, AuditOptions{.strict = true});
  EXPECT_TRUE(report.ok()) << trace;
}

TEST(MetricsEmission, ServiceRejectedEventEmitsNothing) {
  std::ostringstream out;
  TraceSink sink(out);
  svc::ServiceConfig config;
  config.obs.trace = &sink;
  config.metrics_interval = 60.0;
  svc::SchedulerService service(config);
  std::vector<svc::Decision> decisions;
  service.handle(submit(0.0, 1, 128, 400.0, 300.0), decisions);
  const std::string before = out.str();
  // Unknown job: refused after validation, before any boundary drain.
  EXPECT_THROW(service.handle(complete(500.0, 99), decisions),
               svc::ProtocolError);
  EXPECT_EQ(out.str(), before);
  // The boundaries the rejected event would have crossed emit on the next
  // accepted event instead, still in time order.
  service.handle(complete(300.0, 1), decisions);
  EXPECT_GT(count_events(out.str(), "metrics"), 0u);
}

}  // namespace
}  // namespace bgl
