// The benchmark's workloads. Each fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run, args.trace)
// and records every failed correctness check in it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "failure/trace.hpp"
#include "report.hpp"
#include "torus/coords.hpp"
#include "workload/job.hpp"

namespace pb {

/// One generated input: an SDSC-profile job log rescaled onto the machine
/// and a failure trace at the paper's density stretched over the log's
/// span — the make_inputs recipe of bench/bench_scale_main.cpp.
struct Member {
  std::string label;
  std::uint64_t workload_seed = 0;
  std::uint64_t failure_seed = 0;
  bgl::Workload workload;
  bgl::FailureTrace trace;
  double workload_generate_s = 0.0;
  double failure_generate_s = 0.0;
};

/// The members of a run: `pinned` inputs identical for every --seed first
/// (pinned-0 uses bench_scale's generator seeds; the simulated quality
/// metrics come from it), then `seeded` inputs drawn from `seed`.
std::vector<Member> make_members(bgl::Dims dims, int jobs, int pinned,
                                 int seeded, std::uint64_t seed);

/// True when two generations of the members are identical.
bool same_inputs(const std::vector<Member>& a, const std::vector<Member>& b);

/// `paper` and `full_machine`: run_simulation on the members.
void run_sim_workload(const Args& args, Report& report);

/// `service`: a real sched_server driven in a closed loop over pipes.
void run_service_workload(const Args& args, Report& report);

}  // namespace pb
