// paper and full_machine: the discrete-event simulator through its public
// entry point, run_simulation, on the bench_scale input recipe.
//
// A run generates its members (set-up, repeated and timed), simulates each
// once with a CounterRegistry attached (the reference pass: warm-up, DES
// event counts, checksums), then repeats bare passes over all members for
// the measured time. Every pass must reproduce the reference checksums.
// The traced variant runs one bare and one fully observed pass instead and
// derives the per-layer metrics from the observed one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "failure/generator.hpp"
#include "obs/audit.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "torus/catalog.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace bgl;

struct SimWorkload {
  const char* name;
  Dims dims;
  CatalogOptions::Mode catalog;
  int jobs;            ///< Jobs per member.
  int pinned_members;  ///< Members identical for every --seed.
  int seeded_members;  ///< Members drawn from --seed.
  int setup_repeats;   ///< Set-ups per run; setup_s is their median.
};

// paper: the paper's 4x4x8-supernode torus with the box catalog.
// full_machine: 64x32x32 (65,536 nodes) with the buddy block catalog.
constexpr SimWorkload kPaper{"paper", Dims{4, 4, 8},
                             CatalogOptions::Mode::kBoxes, 1000, 6, 1, 5};
constexpr SimWorkload kFullMachine{"full_machine", Dims{64, 32, 32},
                                   CatalogOptions::Mode::kBlocks, 10000, 1, 1, 3};

/// Balancing at one fixed alpha with the paper's oracle predictor.
constexpr double kAlpha = 0.1;
/// Metrics-event cadence of the traced pass (forecast-quality windows).
constexpr double kMetricsInterval = 6.0 * 3600.0;

CatalogOptions catalog_options(const SimWorkload& w) {
  CatalogOptions o;
  o.mode = w.catalog;
  o.min_block = 256;
  return o;
}

SimConfig sim_config(const SimWorkload& w, const Member& m) {
  SimConfig c;
  c.dims = w.dims;
  c.catalog = catalog_options(w);
  c.scheduler = SchedulerKind::kBalancing;
  c.predictor_model = PredictorModel::kPaper;
  c.alpha = kAlpha;
  c.seed = m.failure_seed ^ 0x7365656473ULL;  // bench_scale's derivation
  return c;
}

struct Setup {
  std::vector<Member> members;
  std::unique_ptr<PartitionCatalog> catalog;
  double setup_s = 0.0;
  double workload_generate_s = 0.0;
  double failure_generate_s = 0.0;
  double catalog_build_s = 0.0;
};

/// Generates the inputs and builds the catalog `setup_repeats` times;
/// reports medians and checks every repetition made identical inputs.
Setup set_up(const SimWorkload& w, std::uint64_t seed, Report& report) {
  Setup s;
  std::vector<double> total, wl, fail, cat;
  for (int r = 0; r < w.setup_repeats; ++r) {
    const double t0 = now_s();
    std::vector<Member> members =
        make_members(w.dims, w.jobs, w.pinned_members, w.seeded_members, seed);
    const double t1 = now_s();
    auto catalog = std::make_unique<PartitionCatalog>(w.dims, Topology::kTorus,
                                                      catalog_options(w));
    const double t2 = now_s();
    total.push_back(t2 - t0);
    cat.push_back(t2 - t1);
    double wl_s = 0.0, fail_s = 0.0;
    for (const Member& m : members) {
      wl_s += m.workload_generate_s;
      fail_s += m.failure_generate_s;
    }
    wl.push_back(wl_s);
    fail.push_back(fail_s);
    if (r == 0) {
      s.members = std::move(members);
      s.catalog = std::move(catalog);
    } else if (!same_inputs(s.members, members)) {
      report.fail("set-up " + std::to_string(r) + " generated different inputs");
    }
  }
  s.setup_s = median(total);
  s.workload_generate_s = median(wl);
  s.failure_generate_s = median(fail);
  s.catalog_build_s = median(cat);
  return s;
}

/// The per-run output checks: every job completes and the capacity shares
/// sum to one.
bool check_result(const Member& m, const SimResult& r, Report& report) {
  bool ok = true;
  if (r.jobs_completed != m.workload.jobs.size()) {
    report.fail(m.label + ": " + std::to_string(r.jobs_completed) + " of " +
                std::to_string(m.workload.jobs.size()) + " jobs completed");
    ok = false;
  }
  const double shares = r.utilization + r.unused + r.lost;
  if (!(std::fabs(shares - 1.0) <= 1e-9)) {
    report.fail(m.label + ": util + unused + lost = " + std::to_string(shares));
    ok = false;
  }
  return ok;
}

struct PassResult {
  double wall_s = 0.0;
  std::size_t jobs = 0;
  std::vector<double> member_wall_s;
};

/// One bare pass over every member; checks each against its reference
/// checksum.
PassResult bare_pass(const SimWorkload& w, const Setup& s,
                     const std::vector<std::uint64_t>& checksums,
                     Report& report) {
  PassResult p;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    const Member& m = s.members[i];
    const SimConfig config = sim_config(w, m);
    const double t0 = now_s();
    const SimResult r = run_simulation(m.workload, m.trace, config, s.catalog.get());
    const double dt = now_s() - t0;
    bool ok = check_result(m, r, report);
    if (sim_result_checksum(r) != checksums[i]) {
      report.fail(m.label + ": checksum differs from the reference pass");
      ok = false;
    }
    report.tally(m.workload.jobs.size(), ok);
    p.wall_s += dt;
    p.jobs += m.workload.jobs.size();
    p.member_wall_s.push_back(dt);
  }
  return p;
}

void untraced_run(const SimWorkload& w, const Args& args, Report& report) {
  Setup s = set_up(w, args.seed, report);
  const double start = now_s();

  // Reference pass: warm-up, DES event counts and decision checksums.
  std::vector<std::uint64_t> checksums;
  std::vector<double> events;
  SimResult pinned;
  for (const Member& m : s.members) {
    obs::CounterRegistry counters;
    SimConfig config = sim_config(w, m);
    config.obs.counters = &counters;
    const SimResult r = run_simulation(m.workload, m.trace, config, s.catalog.get());
    report.tally(m.workload.jobs.size(), check_result(m, r, report));
    checksums.push_back(sim_result_checksum(r));
    events.push_back(static_cast<double>(counters.value(obs::Counter::kDriverEvents)));
    std::printf(
        "member %-8s jobs=%zu failures=%zu events=%.0f checksum=%016llx "
        "bounded_slowdown=%.6f utilization=%.6f job_kills=%zu\n",
        m.label.c_str(), m.workload.jobs.size(), m.trace.size(), events.back(),
        static_cast<unsigned long long>(checksums.back()),
        r.avg_bounded_slowdown, r.utilization, r.job_kills);
    if (checksums.size() == 1) pinned = r;
  }

  // Timed passes until the next one would overrun --seconds (at least 2).
  // Each member's time is the median over passes: interference on a shared
  // host comes in phases, which a per-member median rides out better than
  // whole-pass sums.
  std::vector<std::vector<double>> member_s(s.members.size());
  std::size_t passes = 0;
  while (true) {
    const double elapsed = now_s() - start;
    const double pass_estimate = elapsed / static_cast<double>(passes + 1);
    if (passes >= 2 && elapsed + pass_estimate > args.seconds) break;
    const PassResult p = bare_pass(w, s, checksums, report);
    ++passes;
    for (std::size_t i = 0; i < p.member_wall_s.size(); ++i) {
      member_s[i].push_back(p.member_wall_s[i]);
    }
    std::printf("pass %zu wall=%.3fs jobs_per_s=%.2f\n", passes, p.wall_s,
                static_cast<double>(p.jobs) / p.wall_s);
  }
  double jobs = 0.0, total_events = 0.0, median_s = 0.0, worst_s = 0.0;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    jobs += static_cast<double>(s.members[i].workload.jobs.size());
    total_events += events[i];
    median_s += median(member_s[i]);
    worst_s += quantile(member_s[i], 0.99);
  }

  report.set("jobs_per_s", jobs / median_s, "jobs/s");
  report.set("events_per_s", total_events / median_s, "events/s");
  // No client: the round trip of a DES workload is the host time per
  // simulated event, at each member's median pass (p50) and at its p99
  // pass, which with a handful of passes is its slowest.
  report.set("rtt_p50_us", 1e6 * median_s / total_events, "us");
  report.set("rtt_p99_us", 1e6 * worst_s / total_events, "us");
  report.set("setup_s", s.setup_s, "s");
  report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  report.set("bounded_slowdown", pinned.avg_bounded_slowdown, "ratio");
  report.set("utilization", pinned.utilization, "fraction");
  report.set("job_kills", static_cast<double>(pinned.job_kills), "count");
  std::printf("samples passes=%zu members=%zu (rtt: host us per DES event)\n",
              passes, s.members.size());
}

/// What one traced pass recorded.
struct Observed {
  obs::PhaseProfiler profiler;
  obs::CounterRegistry counters;
  obs::HistogramRegistry histograms;
  double trace_events = 0.0;
  std::vector<double> member_wall_s;
};

/// One fully observed pass: phase profiler, counters, histograms and a JSONL
/// trace per member. Decisions must match the bare pass's checksums and
/// every trace must pass the auditor in strict mode.
void traced_pass(const SimWorkload& w, const Setup& s,
                 const std::vector<std::uint64_t>& checksums, const Args& args,
                 Observed& o, Report& report) {
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    const Member& m = s.members[i];
    const std::string path =
        args.work_dir + "/" + w.name + "-" + m.label + ".trace.jsonl";
    bool ok = true;
    {
      auto sink = obs::TraceSink::open(path);
      sink->set_counters(&o.counters);
      SimConfig config = sim_config(w, m);
      config.obs.trace = sink.get();
      config.obs.counters = &o.counters;
      config.obs.histograms = &o.histograms;
      config.obs.profiler = &o.profiler;
      config.metrics_interval = kMetricsInterval;
      const double t0 = now_s();
      const SimResult r = run_simulation(m.workload, m.trace, config, s.catalog.get());
      o.member_wall_s.push_back(now_s() - t0);
      ok = check_result(m, r, report);
      if (sim_result_checksum(r) != checksums[i]) {
        report.fail(m.label + ": tracing changed a scheduling decision");
        ok = false;
      }
    }
    obs::AuditOptions strict;
    strict.strict = true;
    std::ifstream in(path);
    const obs::AuditReport audit = obs::audit_trace(in, strict);
    if (!audit.ok()) {
      report.fail(m.label + ": trace_audit --strict found " +
                  std::to_string(audit.violations.size()) + " violations, first: " +
                  obs::to_string(audit.violations.front().code) + " at line " +
                  std::to_string(audit.violations.front().line) + ": " +
                  audit.violations.front().message);
      ok = false;
    }
    o.trace_events += static_cast<double>(audit.events);
    std::filesystem::remove(path);
    report.tally(m.workload.jobs.size(), ok);
  }
}

/// Alternates bare and traced passes for the measured time; the per-layer
/// metrics come from the first traced pass, the overhead from per-member
/// medians of both kinds.
void traced_run(const SimWorkload& w, const Args& args, Report& report) {
  Setup s = set_up(w, args.seed, report);
  LayerMetrics layers;
  layers.set("workload.generate_s", s.workload_generate_s);
  layers.set("failure.generate_s", s.failure_generate_s);
  layers.set("torus.catalog_build_s", s.catalog_build_s);

  const double start = now_s();
  std::vector<std::uint64_t> checksums;
  std::vector<std::vector<double>> bare_s(s.members.size()), traced_s(s.members.size());
  for (const Member& m : s.members) {
    const double t0 = now_s();
    const SimResult r =
        run_simulation(m.workload, m.trace, sim_config(w, m), s.catalog.get());
    bare_s[checksums.size()].push_back(now_s() - t0);
    report.tally(m.workload.jobs.size(), check_result(m, r, report));
    checksums.push_back(sim_result_checksum(r));
  }
  std::unique_ptr<Observed> first;
  std::size_t pairs = 0;
  while (true) {
    const double elapsed = now_s() - start;
    if (pairs >= 1 && elapsed * (pairs + 2) / (pairs + 0.5) > args.seconds) break;
    auto o = std::make_unique<Observed>();
    traced_pass(w, s, checksums, args, *o, report);
    const PassResult p = bare_pass(w, s, checksums, report);
    for (std::size_t i = 0; i < s.members.size(); ++i) {
      traced_s[i].push_back(o->member_wall_s[i]);
      bare_s[i].push_back(p.member_wall_s[i]);
    }
    if (!first) first = std::move(o);
    ++pairs;
  }

  Profile profile;
  for (std::size_t i = 0; i < first->profiler.num_nodes(); ++i) {
    const obs::PhaseProfiler::NodeView v = first->profiler.node_view(i);
    profile.add_node(v.path, v.count, v.total_ns, v.self_ns);
  }
  profile.dropped_spans = first->profiler.dropped_spans();
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    profile.counters[std::string(obs::counter_name(c))] = first->counters.value(c);
  }
  const obs::LogHistogram& decision =
      first->histograms.histogram(obs::Hist::kDecisionUs);
  profile.decision_us_p50 = decision.quantile(0.50);
  profile.decision_us_p99 = decision.quantile(0.99);
  add_profile_metrics(profile, layers, report);

  double jobs = 0.0, bare = 0.0, traced = 0.0;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    jobs += static_cast<double>(s.members[i].workload.jobs.size());
    bare += median(bare_s[i]);
    traced += median(traced_s[i]);
  }
  layers.set("obs.untraced_jobs_per_s", jobs / bare);
  layers.set("obs.traced_jobs_per_s", jobs / traced);
  layers.set("obs.trace_overhead_pct", 100.0 * (traced / bare - 1.0));
  layers.set("obs.trace_events", first->trace_events);
  std::printf("samples pairs=%zu (bare + traced passes)\n", pairs);
  layers.print_table(w.name);
  layers.copy_to(report);
}

}  // namespace

std::vector<Member> make_members(Dims dims, int jobs, int pinned, int seeded,
                                 std::uint64_t seed) {
  std::vector<Member> members;
  for (int k = 0; k < pinned + seeded; ++k) {
    Member m;
    if (k < pinned) {
      m.label = "pinned-" + std::to_string(k);
      m.workload_seed = 1000 + static_cast<std::uint64_t>(k);  // pinned-0 uses
      m.failure_seed = 500 + static_cast<std::uint64_t>(k);    // bench_scale's
    } else {
      m.label = "seed-" + std::to_string(k - pinned);
      m.workload_seed = seed * 1000003ULL + static_cast<std::uint64_t>(k);
      m.failure_seed = m.workload_seed ^ 0xfa17ULL;
    }
    SyntheticModel model = SyntheticModel::sdsc();
    model.num_jobs = jobs;
    const double t0 = now_s();
    m.workload = rescale_sizes(generate_workload(model, m.workload_seed),
                               dims.volume());
    const double t1 = now_s();
    double max_runtime = 0.0;
    for (const Job& j : m.workload.jobs) max_runtime = std::max(max_runtime, j.runtime);
    const double span = m.workload.arrival_span() * 1.05 + 2.0 * max_runtime;
    FailureModel fm = FailureModel::bluegene_l(
        span_scaled_events(paper_failure_count(model), span, model), span);
    fm.num_nodes = dims.volume();
    m.trace = generate_failures(fm, m.failure_seed);
    const double t2 = now_s();
    m.workload_generate_s = t1 - t0;
    m.failure_generate_s = t2 - t1;
    members.push_back(std::move(m));
  }
  return members;
}

bool same_inputs(const std::vector<Member>& a, const std::vector<Member>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ja = a[i].workload.jobs;
    const auto& jb = b[i].workload.jobs;
    if (ja.size() != jb.size() || a[i].trace.events() != b[i].trace.events()) {
      return false;
    }
    for (std::size_t j = 0; j < ja.size(); ++j) {
      if (ja[j].id != jb[j].id || ja[j].arrival != jb[j].arrival ||
          ja[j].runtime != jb[j].runtime || ja[j].estimate != jb[j].estimate ||
          ja[j].size != jb[j].size) {
        return false;
      }
    }
  }
  return true;
}

void run_sim_workload(const Args& args, Report& report) {
  const SimWorkload& w = args.workload == "paper" ? kPaper : kFullMachine;
  if (args.trace) {
    traced_run(w, args, report);
  } else {
    untraced_run(w, args, report);
  }
}

}  // namespace pb
