// Shared plumbing of the benchmark driver: timing, order statistics, the
// host/build stamp and the one-line JSON result every run ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Monotonic wall clock in seconds.
double now_s();

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process (getrusage), MB.
double self_peak_rss_mb();

/// Command line of one run (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;    ///< sched_server binary (service workload).
  std::string work_dir;  ///< Scratch files: traces, stats dumps.
};

/// Prints the host and build stamp line (`stamp {...}`). Returns false —
/// after saying why on stderr — when the build is not a Release build.
bool print_stamp(const Args& args);

/// One run's outcome: the operation tally plus the metrics it reports.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts a unit of work; `ok == false` marks it failed and the run
  /// incorrect.
  void tally(std::uint64_t operations, bool ok);
  /// Records a failed correctness check (printed on stderr).
  void fail(const std::string& what);
  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

  /// The last stdout line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":v,"unit":u},...}}.
  void print_json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// The per-layer metric set of a traced run, with its units. Every
/// workload reports every name; a layer a workload does not exercise
/// reports 0 (e.g. des.event on `service`, svc.event on `paper`).
class LayerMetrics {
 public:
  LayerMetrics();
  /// `name` must be one of the declared per-layer metrics.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  void copy_to(Report& report) const;
  /// Prints the traced per-layer table (self times with their share of
  /// the profiled root total, then counters and ratios).
  void print_table(const std::string& workload) const;

 private:
  std::map<std::string, double> values_;
};

/// What a traced run's observability hooks recorded, keyed by the stable
/// phase and counter names of src/obs (profiler.cpp, counters.cpp). Filled
/// in-process from the registries (DES workloads) or from sched_server's
/// stats line and --stats-out dump (service).
struct Profile {
  struct Phase {
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Phase> phases;  ///< Summed over every tree path.
  std::uint64_t root_total_ns = 0;      ///< Σ total of the tree's roots.
  std::uint64_t dropped_spans = 0;
  std::map<std::string, std::uint64_t> counters;
  double decision_us_p50 = 0.0;  ///< sched.decision_us histogram.
  double decision_us_p99 = 0.0;

  /// Folds one tree node (its '/'-joined path) into the per-phase sums.
  void add_node(const std::string& path, std::uint64_t count,
                std::uint64_t total_ns, std::uint64_t self_ns);
  std::uint64_t counter(const std::string& name) const;
};

/// Derives the phase, counter and ratio metrics from `profile`, and checks
/// the traced-run hygiene: no dropped spans, and per-phase self times that
/// tile the root total exactly.
void add_profile_metrics(const Profile& profile, LayerMetrics& layers,
                         Report& report);

}  // namespace pb
