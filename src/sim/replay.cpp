#include "sim/replay.hpp"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl {

const char* to_string(ReplayEventType type) {
  switch (type) {
    case ReplayEventType::kArrival: return "arrival";
    case ReplayEventType::kStart: return "start";
    case ReplayEventType::kFinish: return "finish";
    case ReplayEventType::kKill: return "kill";
    case ReplayEventType::kMigration: return "migration";
    case ReplayEventType::kNodeFailure: return "node-failure";
  }
  return "?";
}

namespace {
std::string describe(const ReplayEvent& e) {
  std::ostringstream os;
  os << "t=" << format_double(e.time, 3) << ' ' << to_string(e.type) << " job="
     << e.job_id << " entry=" << e.entry_index << " node=" << e.node;
  return os.str();
}
}  // namespace

ReplayValidation validate_replay(const std::vector<ReplayEvent>& events,
                                 const PartitionCatalog& catalog) {
  ReplayValidation result;
  auto fail = [&](const ReplayEvent& e, const std::string& why) {
    result.ok = false;
    result.error = why + " at " + describe(e);
    return result;
  };

  NodeSet occupied(catalog.num_nodes());
  std::unordered_map<std::uint64_t, int> placed;  // job -> entry
  double last_time = -1.0;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const ReplayEvent& e = events[i];
    if (e.time + 1e-9 < last_time) return fail(e, "time went backwards");
    last_time = std::max(last_time, e.time);
    switch (e.type) {
      case ReplayEventType::kArrival:
      case ReplayEventType::kNodeFailure:
        break;
      case ReplayEventType::kStart: {
        if (placed.count(e.job_id)) return fail(e, "job started while running");
        if (e.entry_index < 0 || e.entry_index >= catalog.num_entries()) {
          return fail(e, "invalid entry index");
        }
        const NodeSet& mask = catalog.entry(e.entry_index).mask;
        if (mask.intersects(occupied)) return fail(e, "start overlaps occupancy");
        occupied |= mask;
        placed.emplace(e.job_id, e.entry_index);
        break;
      }
      case ReplayEventType::kFinish:
      case ReplayEventType::kKill: {
        const auto it = placed.find(e.job_id);
        if (it == placed.end()) return fail(e, "release of non-running job");
        if (it->second != e.entry_index) return fail(e, "release entry mismatch");
        occupied.subtract(catalog.entry(it->second).mask);
        placed.erase(it);
        break;
      }
      case ReplayEventType::kMigration: {
        // Migrations of one scheduling pass may rotate jobs through one
        // another's partitions; the service applies them release-first. Treat
        // the maximal run of consecutive same-timestamp migrations as one
        // atomic group: release every source, then claim every target.
        std::size_t group_end = i;
        while (group_end + 1 < events.size() &&
               events[group_end + 1].type == ReplayEventType::kMigration &&
               events[group_end + 1].time == e.time) {
          ++group_end;
        }
        for (std::size_t g = i; g <= group_end; ++g) {
          const ReplayEvent& m = events[g];
          const auto it = placed.find(m.job_id);
          if (it == placed.end()) return fail(m, "migration of non-running job");
          if (catalog.entry(it->second).size != catalog.entry(m.entry_index).size) {
            return fail(m, "migration changed partition size");
          }
          occupied.subtract(catalog.entry(it->second).mask);
        }
        for (std::size_t g = i; g <= group_end; ++g) {
          const ReplayEvent& m = events[g];
          const NodeSet& mask = catalog.entry(m.entry_index).mask;
          if (mask.intersects(occupied)) {
            return fail(m, "migration target overlaps occupancy");
          }
          occupied |= mask;
          placed[m.job_id] = m.entry_index;
        }
        i = group_end;
        break;
      }
    }
  }
  return result;
}

void write_replay_csv(const std::string& path, const std::vector<ReplayEvent>& events,
                      const PartitionCatalog& catalog) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open replay output: " + path);
  out << "time,type,job,node,entry,base,shape\n";
  for (const ReplayEvent& e : events) {
    out << format_double(e.time, 3) << ',' << to_string(e.type) << ',' << e.job_id
        << ',' << e.node << ',' << e.entry_index;
    if (e.entry_index >= 0 && e.entry_index < catalog.num_entries()) {
      const Box& box = catalog.entry(e.entry_index).box;
      out << ",\"" << box.base.x << ' ' << box.base.y << ' ' << box.base.z << "\",\""
          << box.shape.x << ' ' << box.shape.y << ' ' << box.shape.z << '"';
    } else {
      out << ",,";
    }
    out << '\n';
  }
}

}  // namespace bgl
