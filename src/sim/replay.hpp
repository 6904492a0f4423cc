// Structured replay log of a simulation run.
//
// When SimConfig::record_replay is set, run_simulation appends one ReplayEvent
// per state transition (arrival, start, finish, kill, migration, node
// failure). The log supports three uses:
//   * offline validation — validate_replay() re-checks the §3.3 invariants
//     (no overlapping placements, starts only of waiting jobs, releases
//     matching allocations) independently of the scheduler's own
//     bookkeeping;
//   * debugging and visualisation — write_replay_csv() emits a flat file
//     that plots as a Gantt chart of the torus;
//   * regression diffing — two runs of the same configuration must produce
//     byte-identical logs (determinism).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "torus/catalog.hpp"

namespace bgl {

enum class ReplayEventType : std::uint8_t {
  kArrival,
  kStart,
  kFinish,
  kKill,
  kMigration,
  kNodeFailure,
};

const char* to_string(ReplayEventType type);

struct ReplayEvent {
  double time = 0.0;
  ReplayEventType type = ReplayEventType::kArrival;
  std::uint64_t job_id = 0;  ///< Workload job number (0 for node events).
  int node = -1;             ///< Failing node for kNodeFailure.
  int entry_index = -1;      ///< Partition for kStart/kFinish/kKill; target
                             ///  partition for kMigration.
  friend bool operator==(const ReplayEvent&, const ReplayEvent&) = default;
};

/// Outcome of validate_replay().
struct ReplayValidation {
  bool ok = true;
  std::string error;  ///< First violation, empty when ok.
};

/// Re-run the allocation bookkeeping over the log and verify that every
/// start lands on free nodes, every finish/kill releases a live allocation,
/// migrations preserve partition size, and event times are non-decreasing.
ReplayValidation validate_replay(const std::vector<ReplayEvent>& events,
                                 const PartitionCatalog& catalog);

/// CSV: time,type,job,node,entry,base,shape (header included).
void write_replay_csv(const std::string& path, const std::vector<ReplayEvent>& events,
                      const PartitionCatalog& catalog);

}  // namespace bgl
