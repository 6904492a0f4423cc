// Capacity study: where does BlueGene/L capacity go as failures mount?
//
// Replays the same LLNL-like workload under increasing failure densities
// and three schedulers, decomposing every node-hour into utilized / unused
// / lost (§6.1's ω metrics) plus the raw work destroyed by kills. This is
// the operator's view of the paper's message: prediction does not create
// capacity, it reclaims capacity that failures would destroy.
//
// Usage: capacity_study [failures_per_day...]   (default sweep 0 2 6 12)
// A malformed or out-of-range rate exits 2.
#include <iostream>
#include <vector>

#include "failure/generator.hpp"
#include "sim/driver.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/analysis.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace bgl;

  std::vector<double> rates = {0.0, 2.0, 6.0, 12.0};
  if (argc > 1) {
    rates.clear();
    try {
      for (int i = 1; i < argc; ++i) {
        const double v = require_double("failures_per_day", argv[i]);
        if (v < 0.0 || v > 1e4) {
          throw ConfigError("failures_per_day must be in [0, 10000]");
        }
        rates.push_back(v);
      }
    } catch (const ConfigError& e) {
      std::cerr << "error: " << e.what() << '\n'
                << "usage: capacity_study [failures_per_day...]\n";
      return 2;
    }
  }

  SyntheticModel model = SyntheticModel::llnl();
  model.num_jobs = 1200;
  Workload workload = generate_workload(model, 99);
  workload = rescale_sizes(workload, Dims::bluegene_l().volume());
  std::cout << describe(workload) << '\n';

  struct Candidate {
    const char* label;
    SchedulerKind kind;
    double alpha;
  };
  const Candidate candidates[] = {
      {"krevat", SchedulerKind::kKrevat, 0.0},
      {"balancing a=0.1", SchedulerKind::kBalancing, 0.1},
      {"tie-break a=0.9", SchedulerKind::kTieBreak, 0.9},
  };

  Table table({"failures/day", "scheduler", "utilized", "unused", "lost",
               "kills", "work destroyed (node-h)"});
  const double span = workload.arrival_span() * 1.05 + 2.0 * 24.0 * 3600.0;
  for (const double rate : rates) {
    const auto events = static_cast<std::size_t>(rate * span / 86400.0);
    const FailureTrace trace =
        generate_failures(FailureModel::bluegene_l(events, span), 31);
    for (const Candidate& c : candidates) {
      SimConfig config;
      config.scheduler = c.kind;
      config.alpha = c.alpha;
      const SimResult r = run_simulation(workload, trace, config);
      table.add_row()
          .add(rate, 1)
          .add(std::string(c.label))
          .add(r.utilization, 3)
          .add(r.unused, 3)
          .add(r.lost, 3)
          .add(static_cast<long long>(r.job_kills))
          .add(r.work_lost_node_seconds / 3600.0, 1);
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n\n" << table.render();
  return 0;
}
