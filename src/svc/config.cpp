#include "svc/config.hpp"

// String forms and role mapping of the configuration enums.

namespace bgl {

const char* to_string(QueueOrder order) {
  switch (order) {
    case QueueOrder::kFcfs: return "fcfs";
    case QueueOrder::kShortestJobFirst: return "sjf";
    case QueueOrder::kSmallestJobFirst: return "smallest";
  }
  return "?";
}

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kKrevat: return "krevat";
    case SchedulerKind::kBalancing: return "balancing";
    case SchedulerKind::kTieBreak: return "tie-break";
  }
  return "?";
}

PaperRole paper_role_for(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kKrevat: return PaperRole::kNull;
    case SchedulerKind::kBalancing: return PaperRole::kBalancing;
    case SchedulerKind::kTieBreak: return PaperRole::kTieBreak;
  }
  return PaperRole::kNull;
}

}  // namespace bgl
