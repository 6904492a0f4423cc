// perfbench_driver: one benchmark run of one workload.
//
//   perfbench_driver --workload <paper|full_machine|service> --seed N
//                    --seconds S --trace <0|1> --server PATH --work-dir DIR
//
// Prints progress lines, a `stamp {...}` host/build line, and as its last
// stdout line the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and forwards to it.
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload <paper|full_machine|service>"
               " --seed N --seconds S --trace <0|1> --server PATH"
               " --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (args.workload != "paper" && args.workload != "full_machine" &&
      args.workload != "service") {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (args.work_dir.empty()) return usage("--work-dir is required");
  if (args.workload == "service" && args.server.empty()) {
    return usage("the service workload needs --server");
  }

  if (!pb::print_stamp(args)) return 3;
  // A run stays on the CPU it started on, and so does the sched_server it
  // spawns: every service round trip is then two context switches on one
  // core. Left to the guest scheduler, the server sometimes woke on an idle
  // virtual CPU, which added about 10 us per round trip and made the cost
  // depend on the host's load rather than on this program.
  cpu_set_t cpu;
  CPU_ZERO(&cpu);
  CPU_SET(sched_getcpu(), &cpu);
  sched_setaffinity(0, sizeof cpu, &cpu);
  pb::Report report;
  try {
    if (args.workload == "service") {
      pb::run_service_workload(args, report);
    } else {
      pb::run_sim_workload(args, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
  report.print_json();
  return 0;
}
