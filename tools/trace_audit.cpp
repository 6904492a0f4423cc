// trace_audit: replay a JSONL simulator trace and verify its invariants.
//
//   trace_audit [--strict] [--gamma G] [--max-violations N] [--quiet] [FILE]
//
// Reads FILE (or stdin when omitted or "-"), audits it with
// obs::audit_trace, writes the structured JSON report to stdout and a
// one-line human summary to stderr. Exit status: 0 when the trace is
// clean, 1 when violations were found, 2 on usage or I/O errors.
//
// Typical use (see docs/OBSERVABILITY.md, "Auditing a trace"):
//   simulate_cli --workload w.swf --failures f.txt --trace-out run.jsonl ...
//   trace_audit --strict run.jsonl
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/audit.hpp"
#include "util/strings.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: trace_audit [--strict] [--gamma G] [--max-violations N]"
         " [--quiet] [FILE]\n"
         "  --strict            unknown event types / unreconstructable"
         " machines are violations\n"
         "  --gamma G           bounded-slowdown threshold the run used"
         " (default 10)\n"
         "  --max-violations N  cap on reported violations (default 1000)\n"
         "  --quiet             suppress the JSON report; summary only\n"
         "  FILE                trace path, '-' or omitted for stdin\n";
}

}  // namespace

int main(int argc, char** argv) {
  bgl::obs::AuditOptions options;
  bool quiet = false;
  std::string path = "-";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "trace_audit: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--strict") {
      options.strict = true;
    } else if (arg == "--gamma") {
      const auto g = bgl::parse_double(value());
      if (!g || !std::isfinite(*g) || *g <= 0.0) {
        std::cerr << "trace_audit: --gamma needs a finite positive number\n";
        return 2;
      }
      options.gamma = *g;
    } else if (arg == "--max-violations") {
      const auto n = bgl::parse_int(value());
      if (!n || *n < 0) {
        std::cerr << "trace_audit: --max-violations needs a count\n";
        return 2;
      }
      options.max_violations = static_cast<std::size_t>(*n);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "trace_audit: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      path = arg;
    }
  }

  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "trace_audit: cannot open " << path << "\n";
      return 2;
    }
  }
  std::istream& in = path == "-" ? std::cin : file;

  const bgl::obs::AuditReport report = bgl::obs::audit_trace(in, options);
  if (!quiet) report.write_json(std::cout);

  if (report.ok()) {
    std::cerr << "trace_audit: OK — " << report.events << " events, "
              << report.jobs << " jobs, 0 violations\n";
    return 0;
  }
  std::cerr << "trace_audit: FAILED — " << report.events << " events, "
            << report.violations.size() << " violation(s)";
  if (report.dropped_violations > 0) {
    std::cerr << " (+" << report.dropped_violations << " dropped)";
  }
  std::cerr << "\n";
  const std::size_t shown = std::min<std::size_t>(report.violations.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& v = report.violations[i];
    std::cerr << "  [" << bgl::obs::to_string(v.code) << "] line " << v.line;
    if (v.job >= 0) std::cerr << " job " << v.job;
    std::cerr << ": " << v.message << "\n";
  }
  if (report.violations.size() > shown) {
    std::cerr << "  ... and " << (report.violations.size() - shown)
              << " more (see JSON report)\n";
  }
  return 1;
}
