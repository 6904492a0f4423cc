// Conservative backfilling (Mu'alem & Feitelson) behind the algorithm seam.
//
// Unlike EASY — where only the blocked head is protected and a deep filler
// may delay mid-queue jobs — conservative backfilling grants *every*
// examined waiting job a reservation, layered into a queue-order schedule
// profile. A job is admitted now only if no earlier-queued reservation is
// delayed (it must finish before each reservation starts or avoid its
// partition); otherwise its own reservation is computed against the live
// jobs AND every reservation already in the profile, then appended. Under
// estimate-faithful execution no queued job's start is ever pushed later by
// a backfilled one — the invariant tests/sched_algorithms_test.cpp asserts
// per pass.
//
// The profile is spatial as well as temporal: each slot pins a concrete
// partition for [start, start + estimate), so feasibility at a time point
// checks free nodes net of unfinished live jobs plus every reservation
// active at that point, and a candidate slot must additionally stay clear
// of reservations that begin inside its window.
//
// Cost: reserving scans candidate time points (live finishes + profile
// boundaries) per blocked job, so a pass is O(depth · points · catalog).
// That is fine for the paper-scale queue views this algorithm targets
// (bench_baselines); the krevat baseline remains the hot-path default.
//
// The pass starts from the shared FCFS prefix (SchedulingPass::
// fcfs_prefix); the blocked head it stops at opens the profile.
//
// Edge cases: a blocked job whose reservation cannot be computed at all
// (down-node obstacles cover every partition of its size even on an empty
// machine) stops the pass when it is the first blocked job — FCFS order
// must not be silently violated — and is skipped (left unprotected until
// the obstacles clear) when it sits behind an existing profile.
#include <algorithm>
#include <vector>

#include "sched/algorithm.hpp"

namespace bgl {

namespace {

constexpr double kEps = 1e-9;

/// One granted reservation: entry `entry` is held for [start, end).
struct ProfileSlot {
  double start = 0.0;
  double end = 0.0;
  int entry = -1;
};

/// Would a placement finishing at `est_finish` on `mask` delay any reserved
/// job? Admissible iff for every slot it either finishes before the slot
/// starts or stays off the slot's partition.
bool admissible(const PartitionCatalog& catalog, double est_finish,
                const NodeSet& mask, std::span<const ProfileSlot> profile) {
  for (const ProfileSlot& r : profile) {
    const bool in_time = est_finish <= r.start + kEps;
    if (!in_time && mask.intersects(catalog.entry(r.entry).mask)) return false;
  }
  return true;
}

/// Earliest (start, partition) for a job of `alloc_size`/`estimate` that
/// respects the live jobs' estimated finishes and every earlier reservation.
std::optional<ProfileSlot> reserve_against(const SchedulingPass& p,
                                           int alloc_size, double estimate,
                                           std::span<const ProfileSlot> profile) {
  const PartitionCatalog& catalog = p.catalog();
  const double now = p.now();

  // Candidate start times: now, plus every event that frees or claims
  // nodes — live finishes and profile slot boundaries.
  std::vector<double> times;
  times.reserve(1 + p.live().size() + 2 * profile.size());
  times.push_back(now);
  for (const RunningJob& r : p.live()) {
    if (r.est_finish > now) times.push_back(r.est_finish);
  }
  for (const ProfileSlot& r : profile) {
    if (r.start > now) times.push_back(r.start);
    if (r.end > now) times.push_back(r.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  NodeSet occ;
  std::vector<int> candidates;
  for (const double t : times) {
    // Occupancy at t under estimate-faithful execution: live jobs that have
    // not finished by t, immovable occupancy (down nodes), and reservations
    // active at t.
    occ = p.occupied();
    for (const RunningJob& r : p.live()) {
      if (std::max(r.est_finish, now) <= t + kEps) {
        occ.subtract(catalog.entry(r.entry_index).mask);
      }
    }
    for (const ProfileSlot& r : profile) {
      if (r.start <= t + kEps && t + kEps < r.end) {
        occ |= catalog.entry(r.entry).mask;
      }
    }
    candidates.clear();
    catalog.free_entries_of_size(occ, alloc_size, candidates);
    for (const int c : candidates) {
      const NodeSet& mask = catalog.entry(c).mask;
      // Free at t is not enough: the slot must also stay clear of
      // reservations that begin inside its own window.
      bool clear = true;
      for (const ProfileSlot& r : profile) {
        if (r.start > t + kEps && r.start < t + estimate - kEps &&
            mask.intersects(catalog.entry(r.entry).mask)) {
          clear = false;
          break;
        }
      }
      if (clear) return ProfileSlot{t, t + estimate, c};
    }
  }
  return std::nullopt;
}

class ConservativeAlgorithm final : public ISchedulingAlgorithm {
 public:
  const char* name() const override { return "conservative"; }

  void run(SchedulingPass& p) const override {
    const std::vector<WaitingJob>& queue = p.queue();
    const SchedulerConfig& config = p.config();

    const std::size_t head = p.fcfs_prefix();
    if (head >= queue.size()) return;

    // Grant a blocked job its reservation, in queue order. reserve_against
    // builds the full schedule profile itself rather than going through
    // pass.reservation(), so the span is opened here.
    ArenaVector<ProfileSlot> profile(p.scratch_arena());
    auto reserve = [&](const WaitingJob& job) {
      std::optional<ProfileSlot> slot;
      {
        obs::ScopedPhase res_span(p.profiler(), obs::Phase::kReservation);
        slot = reserve_against(p, job.alloc_size, job.estimate, profile);
      }
      if (!slot) return false;
      Reservation granted;
      granted.time = slot->start;
      granted.entry = slot->entry;
      p.note_reservation(job.id, granted);
      profile.push_back(*slot);
      return true;
    };
    // The blocked head opens the profile; one that can never fit stops the
    // pass, keeping strict FCFS.
    if (!reserve(queue[head])) return;
    if (config.backfill == BackfillMode::kNone || config.backfill_depth <= 0) {
      return;
    }

    // Backfill phase: admission must respect every reservation.
    int examined = 0;
    for (std::size_t q = head + 1;
         q < queue.size() && examined < config.backfill_depth; ++q) {
      if (p.placed(q)) continue;
      const WaitingJob& job = queue[q];
      {
        obs::ScopedPhase backfill_span(p.profiler(), obs::Phase::kBackfill);
        ++examined;
        const std::span<const int> candidates =
            p.free_candidates(job.alloc_size);
        if (!candidates.empty()) {
          ArenaVector<int> allowed(p.scratch_arena());
          const double est_finish = p.now() + job.estimate;
          for (const int c : candidates) {
            if (admissible(p.catalog(), est_finish, p.catalog().entry(c).mask,
                           profile)) {
              allowed.push_back(c);
            }
          }
          if (!allowed.empty()) {
            // The binding reservation recorded on the placement is the
            // earliest-queued one — the slot EASY would have held.
            Reservation binding;
            binding.time = profile[0].start;
            binding.entry = profile[0].entry;
            p.place(q, allowed, /*backfill=*/true, &binding);
            continue;
          }
        }
      }
      // Blocked behind the profile: a job whose reservation cannot be
      // computed is left unprotected until its obstacles clear.
      reserve(job);
    }
  }
};

}  // namespace

std::unique_ptr<ISchedulingAlgorithm> make_conservative_algorithm() {
  return std::make_unique<ConservativeAlgorithm>();
}

}  // namespace bgl
