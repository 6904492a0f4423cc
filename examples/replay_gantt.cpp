// replay_gantt: visualise a simulation as an ASCII machine-utilisation
// timeline rebuilt from its JSONL trace.
//
// Runs a small SDSC-like workload under the balancing scheduler into an
// in-memory trace, reads the trace back with obs::TraceReader (the same
// path trace_audit and trace_tools describe-trace take) and renders two
// views:
//   1. a utilisation strip — one column per time bucket, bar height = busy
//      nodes, with failure events marked on top;
//   2. a per-z-plane occupancy map at a chosen instant, showing how the
//      torus is carved into rectangular partitions (migrated jobs drawn on
//      the partition they moved to).
//
// Usage: replay_gantt [jobs] [failures_per_day] [seed]
// Malformed or out-of-range arguments exit 2 naming the argument.
#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "failure/generator.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace bgl;

/// One change of a job's partition read back from the trace: a start or a
/// migration gives the job `entry`; a finish or a kill releases it (-1). A
/// node failure changes no partition.
struct Change {
  double time;
  std::int64_t job;
  int entry;
  bool failure;
};

std::vector<Change> read_changes(std::istream& trace) {
  std::vector<Change> changes;
  obs::TraceReader reader(trace);
  obs::TraceRecord rec;
  while (reader.next(rec)) {
    switch (rec.type()) {
      case obs::EventType::kJobStart:
        changes.push_back({rec.t(), rec.require_int("job"),
                           static_cast<int>(rec.require_int("entry")), false});
        break;
      case obs::EventType::kMigration:
        changes.push_back({rec.t(), rec.require_int("job"),
                           static_cast<int>(rec.require_int("to_entry")), false});
        break;
      case obs::EventType::kJobFinish:
      case obs::EventType::kJobKill:
        changes.push_back({rec.t(), rec.require_int("job"), -1, false});
        break;
      case obs::EventType::kNodeFailure:
        changes.push_back({rec.t(), -1, -1, true});
        break;
      default:
        break;
    }
  }
  return changes;
}

/// Apply one change to the job -> entry map of running jobs.
void apply(const Change& c, std::map<std::int64_t, int>& running) {
  if (c.failure) return;
  if (c.entry < 0) {
    running.erase(c.job);
  } else {
    running[c.job] = c.entry;
  }
}

/// Busy-node count over time.
struct TimelinePoint {
  double time;
  int busy;
  bool failure;
};

std::vector<TimelinePoint> reconstruct(const std::vector<Change>& changes,
                                       const PartitionCatalog& catalog) {
  std::vector<TimelinePoint> points;
  std::map<std::int64_t, int> running;
  int busy = 0;
  for (const Change& c : changes) {
    if (const auto it = running.find(c.job); it != running.end()) {
      busy -= catalog.entry(it->second).size;
    }
    if (c.entry >= 0) busy += catalog.entry(c.entry).size;
    apply(c, running);
    points.push_back(TimelinePoint{c.time, busy, c.failure});
  }
  return points;
}

void render_strip(const std::vector<TimelinePoint>& points, int columns, int rows) {
  if (points.empty()) return;
  const double t0 = points.front().time;
  const double t1 = points.back().time;
  const double bucket = (t1 - t0) / columns;
  std::vector<int> level(static_cast<std::size_t>(columns), 0);
  std::vector<bool> failed(static_cast<std::size_t>(columns), false);
  std::size_t p = 0;
  int busy = 0;
  for (int c = 0; c < columns; ++c) {
    const double end = t0 + bucket * (c + 1);
    int peak = busy;
    while (p < points.size() && points[p].time <= end) {
      busy = points[p].busy;
      peak = std::max(peak, busy);
      failed[static_cast<std::size_t>(c)] =
          failed[static_cast<std::size_t>(c)] || points[p].failure;
      ++p;
    }
    level[static_cast<std::size_t>(c)] = peak;
  }
  std::cout << "busy nodes (peak per bucket; 'x' = failure events in bucket)\n";
  for (int r = rows; r >= 1; --r) {
    const int threshold = 128 * r / rows;
    std::cout << (r == rows ? "128|" : (r == 1 ? "  0|" : "   |"));
    for (int c = 0; c < columns; ++c) {
      const bool on = level[static_cast<std::size_t>(c)] >= threshold;
      if (r == rows && failed[static_cast<std::size_t>(c)]) {
        std::cout << 'x';
      } else {
        std::cout << (on ? '#' : ' ');
      }
    }
    std::cout << '\n';
  }
  std::cout << "   +" << std::string(static_cast<std::size_t>(columns), '-') << '\n';
  std::cout << "    0" << std::string(static_cast<std::size_t>(columns) - 10, ' ')
            << format_duration(t1 - t0) << '\n';
}

void render_occupancy_at(const std::vector<Change>& changes,
                         const PartitionCatalog& catalog, double at) {
  std::map<std::int64_t, int> running;
  for (const Change& c : changes) {
    if (c.time > at) break;
    apply(c, running);
  }
  // Letter per job, '.' for free.
  std::vector<char> cell(static_cast<std::size_t>(catalog.num_nodes()), '.');
  char letter = 'A';
  for (const auto& [job, entry] : running) {
    for (const int id : catalog.entry(entry).mask.to_ids()) {
      cell[static_cast<std::size_t>(id)] = letter;
    }
    letter = letter == 'Z' ? 'a' : static_cast<char>(letter + 1);
  }
  const Dims dims = catalog.dims();
  std::cout << "\ntorus occupancy at t = " << format_duration(at) << " ("
            << running.size() << " jobs running):\n";
  for (int z = 0; z < dims.z; ++z) {
    std::cout << "z=" << z << "  ";
    for (int y = dims.y - 1; y >= 0; --y) {
      for (int x = 0; x < dims.x; ++x) {
        std::cout << cell[static_cast<std::size_t>(node_id(dims, Coord{x, y, z}))];
      }
      std::cout << ' ';
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgl;
  int jobs = 400;
  double failures_per_day = 6.0;
  std::uint64_t seed = 11;
  try {
    if (argc > 4) throw ConfigError("too many arguments");
    if (argc > 1) jobs = require_int("jobs", argv[1], 1, std::numeric_limits<int>::max());
    if (argc > 2) {
      failures_per_day = require_double("failures_per_day", argv[2]);
      if (failures_per_day < 0.0 || failures_per_day > 1e4) {
        throw ConfigError("failures_per_day must be in [0, 10000]");
      }
    }
    if (argc > 3) seed = static_cast<std::uint64_t>(require_int("seed", argv[3]));
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << "usage: replay_gantt [jobs] [failures_per_day] [seed]\n";
    return 2;
  }

  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = jobs;
  Workload w = generate_workload(model, seed);
  w = rescale_sizes(w, 128);
  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  const FailureTrace trace = generate_failures(
      FailureModel::bluegene_l(
          static_cast<std::size_t>(failures_per_day * span / 86400.0), span),
      seed ^ 0x9e37);

  std::stringstream events;
  obs::TraceSink sink(events);
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  config.obs.trace = &sink;

  const PartitionCatalog catalog(Dims::bluegene_l());
  const SimResult r = run_simulation(w, trace, config, &catalog);
  sink.flush();

  std::cout << "jobs " << r.jobs_completed << ", kills " << r.job_kills
            << ", migrations " << r.migrations << ", utilization "
            << format_double(r.utilization, 3) << ", slowdown "
            << format_double(r.avg_bounded_slowdown, 1) << "\n\n";
  const std::vector<Change> changes = read_changes(events);
  render_strip(reconstruct(changes, catalog), 100, 12);
  render_occupancy_at(changes, catalog, r.span / 2.0);
  return 0;
}
