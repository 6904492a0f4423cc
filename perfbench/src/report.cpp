#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/strings.hpp"

namespace pb {

namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

/// Phase metric prefix → profiler phase name (src/obs/profiler.cpp).
struct PhaseDef {
  const char* metric;
  const char* phase;
};

constexpr PhaseDef kPhases[] = {
    {"des.event", "des.event"},
    {"svc.event", "svc.event"},
    {"sched.pass", "sched.pass"},
    {"sched.index_sync", "sched.index_sync"},
    {"sched.enumerate", "sched.enumerate"},
    {"sched.place", "sched.place"},
    {"sched.score", "sched.score"},
    {"predict", "sched.predict"},
    {"sched.backfill", "sched.backfill"},
    {"sched.reservation", "sched.reservation"},
    {"sched.migration", "sched.migration"},
};

/// Counter metric → obs counter name (src/obs/counters.cpp).
struct CounterDef {
  const char* metric;
  const char* counter;
};

constexpr CounterDef kCounters[] = {
    {"sched.starts", "sched.starts"},
    {"sched.backfill_starts", "sched.backfill_starts"},
    {"sched.migrations", "sched.migrations"},
    {"sched.candidates_considered", "sched.candidates_considered"},
    {"sched.mfp_evaluations", "sched.mfp_evaluations"},
    {"torus.partitions_scanned", "sched.partitions_scanned"},
    {"predict.queries", "predictor.queries"},
    {"predict.nodes_flagged", "predictor.nodes_flagged"},
    {"predict.window_tp", "pred.window_tp"},
    {"predict.window_fp", "pred.window_fp"},
    {"predict.window_fn", "pred.window_fn"},
    {"sim.events", "driver.events"},
    {"sim.kills", "driver.kills"},
};

/// Every per-layer metric besides the phase and counter rows above; the
/// list BENCHMARK.json's per_layer section mirrors.
constexpr LayerDef kOther[] = {
    {"obs.profiled_total_ms", "ms"},
    {"sched.migration.moves_per_attempt", "ratio"},
    {"sched.backfill.starts_per_enumerate", "ratio"},
    {"sched.candidates_per_place", "ratio"},
    {"predict.precision", "ratio"},
    {"predict.recall", "ratio"},
    {"sched.decision_us_p50", "us"},
    {"sched.decision_us_p99", "us"},
    {"svc.events", "count"},
    {"svc.rejected", "count"},
    {"svc.rtt_us_mean", "us"},
    {"svc.server_us_mean", "us"},
    {"svc.transport_us_mean", "us"},
    {"svc.rtt_us_p50.submit", "us"},
    {"svc.rtt_us_p50.complete", "us"},
    {"svc.rtt_us_p50.fail", "us"},
    {"svc.rtt_us_p50.repair", "us"},
    {"torus.catalog_build_s", "s"},
    {"workload.generate_s", "s"},
    {"failure.generate_s", "s"},
    {"obs.untraced_jobs_per_s", "jobs/s"},
    {"obs.traced_jobs_per_s", "jobs/s"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_events", "count"},
    {"obs.dropped_spans", "count"},
};

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u;
    for (const PhaseDef& p : kPhases) {
      u[std::string(p.metric) + ".self_ms"] = "ms";
      u[std::string(p.metric) + ".count"] = "count";
    }
    for (const CounterDef& c : kCounters) u[c.metric] = "count";
    for (const LayerDef& d : kOther) u[d.name] = d.unit;
    return u;
  }();
  return units;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// JSON string literal (quoted, escaped) for the stamp and result lines.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  const std::size_t k = std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool print_stamp(const Args& args) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::cout << "stamp {\"workload\":" << json_string(args.workload)
            << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
            << ",\"cpu\":" << json_string(cpu)
            << ",\"compiler\":" << json_string(PB_COMPILER)
            << ",\"flags\":" << json_string(PB_CXX_FLAGS)
            << ",\"build_type\":" << json_string(PB_BUILD_TYPE)
            << ",\"git_describe\":" << json_string(bgl::artifact_stamp())
            << "}\n";
  if (std::string(PB_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report metrics from a '"
              << PB_BUILD_TYPE << "' build; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return false;
  }
  return true;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Value{value, unit};
}

void Report::tally(std::uint64_t operations, bool ok) {
  attempted_ += operations;
  if (!ok) failed_ += operations;
}

void Report::fail(const std::string& what) {
  ++checks_failed_;
  std::cerr << "perfbench: CHECK FAILED: " << what << '\n';
}

void Report::print_json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  // A failed check that is not tied to counted operations still fails one.
  const std::uint64_t failed =
      failed_ > 0 ? failed_ : (checks_failed_ > 0 ? 1 : 0);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += json_string(name) + ":{\"value\":" + number(v.value) +
           ",\"unit\":" + json_string(v.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : layer_units()) values_[name] = 0.0;
}

void LayerMetrics::set(const std::string& name, double value) {
  if (values_.count(name) == 0) {
    throw std::logic_error("undeclared per-layer metric " + name);
  }
  values_[name] = value;
}

double LayerMetrics::get(const std::string& name) const {
  return values_.at(name);
}

void LayerMetrics::copy_to(Report& report) const {
  const auto& units = layer_units();
  for (const auto& [name, value] : values_) {
    report.set(name, value, units.at(name));
  }
}

void LayerMetrics::print_table(const std::string& workload) const {
  const double root = get("obs.profiled_total_ms");
  std::printf("layers %s: phase self time (share of %.1f ms profiled)\n",
              workload.c_str(), root);
  for (const PhaseDef& p : kPhases) {
    const std::string m = p.metric;
    std::printf("layers   %-20s %12.3f ms %6.2f%% %12.0f spans\n", m.c_str(),
                get(m + ".self_ms"),
                root > 0.0 ? 100.0 * get(m + ".self_ms") / root : 0.0,
                get(m + ".count"));
  }
  const auto& units = layer_units();
  for (const CounterDef& c : kCounters) {
    std::printf("layers   %-36s %16.0f\n", c.metric, get(c.metric));
  }
  for (const LayerDef& d : kOther) {
    std::printf("layers   %-36s %16.6g %s\n", d.name, get(d.name),
                units.at(d.name).c_str());
  }
}

void Profile::add_node(const std::string& path, std::uint64_t count,
                       std::uint64_t total_ns, std::uint64_t self_ns) {
  const auto slash = path.rfind('/');
  const std::string leaf =
      slash == std::string::npos ? path : path.substr(slash + 1);
  Phase& p = phases[leaf];
  p.count += count;
  p.self_ns += self_ns;
  p.total_ns += total_ns;
  if (slash == std::string::npos) root_total_ns += total_ns;
}

std::uint64_t Profile::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void add_profile_metrics(const Profile& profile, LayerMetrics& layers,
                         Report& report) {
  std::uint64_t self_sum = 0;
  for (const auto& [name, p] : profile.phases) self_sum += p.self_ns;
  if (profile.dropped_spans != 0) {
    report.fail("phase profiler dropped " +
                std::to_string(profile.dropped_spans) + " spans");
  }
  if (self_sum != profile.root_total_ns) {
    report.fail("phase self times sum to " + std::to_string(self_sum) +
                " ns, not the root total " +
                std::to_string(profile.root_total_ns) + " ns");
  }
  auto phase = [&](const char* name) {
    const auto it = profile.phases.find(name);
    return it == profile.phases.end() ? Profile::Phase{} : it->second;
  };
  for (const PhaseDef& p : kPhases) {
    const Profile::Phase ph = phase(p.phase);
    layers.set(std::string(p.metric) + ".self_ms",
               static_cast<double>(ph.self_ns) / 1e6);
    layers.set(std::string(p.metric) + ".count", static_cast<double>(ph.count));
  }
  layers.set("obs.profiled_total_ms",
             static_cast<double>(profile.root_total_ns) / 1e6);
  layers.set("obs.dropped_spans", static_cast<double>(profile.dropped_spans));
  for (const CounterDef& c : kCounters) {
    layers.set(c.metric, static_cast<double>(profile.counter(c.counter)));
  }
  const double migrations = layers.get("sched.migrations");
  layers.set("sched.migration.moves_per_attempt",
             ratio(migrations, layers.get("sched.migration.count")));
  layers.set("sched.backfill.starts_per_enumerate",
             ratio(layers.get("sched.backfill_starts"),
                   layers.get("sched.enumerate.count")));
  layers.set("sched.candidates_per_place",
             ratio(layers.get("sched.candidates_considered"),
                   layers.get("sched.place.count")));
  const double tp = layers.get("predict.window_tp");
  layers.set("predict.precision",
             ratio(tp, tp + layers.get("predict.window_fp")));
  layers.set("predict.recall", ratio(tp, tp + layers.get("predict.window_fn")));
  layers.set("sched.decision_us_p50", profile.decision_us_p50);
  layers.set("sched.decision_us_p99", profile.decision_us_p99);
}

}  // namespace pb
