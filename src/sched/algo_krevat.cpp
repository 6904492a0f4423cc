// The paper's scheduling discipline (§5) behind the algorithm seam, and the
// EASY variants that share its loop.
//
// FCFS (SchedulingPass::fcfs_prefix: queue order, one migration attempt for
// a blocked head) with spatial backfilling behind the blocked head,
// parameterised by BackfillMode: kEasy reserves for the head only,
// kConservative independently reserves for the first kReservationDepth
// waiting jobs (each against the current running set — a spatially
// conservative approximation, see backfill.hpp), kNone disables fillers.
// A filler is admitted iff it finishes before each reservation or avoids
// its partition.
//
// Two flags, fixed per SchedAlgorithm by make_scheduling_algorithm(), make
// the variants. `record_reservations` (easy, easy-holdback) notes the
// head's reservation in the decision trail and stamps it on every backfill
// placement, so traces carry the provenance the auditor re-checks
// (res_time / res_entry on sched_decision). `holdback` (easy-holdback,
// batsched's easy_bf_*_holdback lineage) refuses fillers that would shrink
// the free pool below kHoldbackNodes. The easy variants run kEasy only
// (require_supported_backfill), so easy decides exactly as krevat does —
// asserted by tests/sched_algorithms_test.cpp.
//
// krevat is the byte-identity anchor of the seam: its decisions, counters
// and trace output are bit-for-bit those of the pre-seam
// Scheduler::schedule() loop (tests/sched_reference_diff_test.cpp holds it
// against a frozen copy of that loop; bench/golden pins the figure CSVs).
// Deliberately, it records no reservation provenance.
#include "sched/algorithm.hpp"

namespace bgl {

namespace {

class FcfsBackfillAlgorithm final : public ISchedulingAlgorithm {
 public:
  FcfsBackfillAlgorithm(SchedAlgorithm algorithm, bool record_reservations,
                        bool holdback)
      : name_(to_string(algorithm)),
        record_reservations_(record_reservations),
        holdback_(holdback) {}

  const char* name() const override { return name_; }

  void run(SchedulingPass& p) const override {
    const std::vector<WaitingJob>& queue = p.queue();
    const SchedulerConfig& config = p.config();

    const std::size_t head = p.fcfs_prefix();
    if (head >= queue.size()) return;
    if (config.backfill == BackfillMode::kNone || config.backfill_depth <= 0) {
      return;
    }

    // Backfill behind the blocked head job.
    obs::ScopedPhase backfill_span(p.profiler(), obs::Phase::kBackfill);
    // Reservations a filler must not delay. EASY: the head job only.
    // Conservative: the first kReservationDepth waiting jobs; each
    // reservation is computed against the current running set, which
    // yields reservation times no later than the true ones — a stricter
    // (hence safe) admission constraint for fillers.
    std::vector<Reservation>& reservations = p.reservation_scratch();
    reservations.clear();
    const int reservation_count =
        config.backfill == BackfillMode::kEasy ? 1 : kReservationDepth;
    for (std::size_t q = head;
         q < queue.size() &&
         static_cast<int>(reservations.size()) < reservation_count;
         ++q) {
      if (p.placed(q)) continue;
      auto r = p.reservation(queue[q].alloc_size);
      if (!r) {
        if (q == head) break;  // head can never fit: no safe backfilling
        continue;
      }
      reservations.push_back(std::move(*r));
    }
    if (reservations.empty()) return;

    // Under kEasy (the only mode the recording variants run) the single
    // reservation is the head's: the binding one for every filler.
    const Reservation* binding = nullptr;
    if (record_reservations_) {
      binding = &reservations.front();
      p.note_reservation(queue[head].id, *binding);
    }

    auto admissible = [&](double est_finish, const NodeSet& mask) {
      for (const Reservation& r : reservations) {
        const bool in_time = est_finish <= r.time + 1e-9;
        if (!in_time && mask.intersects(r.mask)) return false;
      }
      return true;
    };

    const int num_nodes = p.catalog().num_nodes();
    int examined = 0;
    for (std::size_t j = head + 1;
         j < queue.size() && examined < config.backfill_depth; ++j) {
      if (p.placed(j)) continue;
      ++examined;
      const WaitingJob& filler = queue[j];
      if (holdback_ && num_nodes - p.occupied().count() - filler.alloc_size <
                           kHoldbackNodes) {
        continue;
      }
      const std::span<const int> free = p.free_candidates(filler.alloc_size);
      if (free.empty()) continue;
      ArenaVector<int> allowed(p.scratch_arena());
      for (const int c : free) {
        if (admissible(p.now() + filler.estimate, p.catalog().entry(c).mask)) {
          allowed.push_back(c);
        }
      }
      if (allowed.empty()) continue;
      p.place(j, allowed, /*backfill=*/true, binding);
    }
  }

 private:
  const char* name_;
  bool record_reservations_;
  bool holdback_;
};

}  // namespace

std::unique_ptr<ISchedulingAlgorithm> make_fcfs_backfill_algorithm(
    SchedAlgorithm algorithm, bool record_reservations, bool holdback) {
  return std::make_unique<FcfsBackfillAlgorithm>(algorithm, record_reservations,
                                                 holdback);
}

}  // namespace bgl
