#include "sched/algorithm.hpp"

#include <string>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "sched/migration.hpp"
#include "util/error.hpp"

namespace bgl {

const char* to_string(SchedAlgorithm algorithm) {
  switch (algorithm) {
    case SchedAlgorithm::kKrevat: return "krevat";
    case SchedAlgorithm::kEasy: return "easy";
    case SchedAlgorithm::kConservative: return "conservative";
    case SchedAlgorithm::kEasyHoldback: return "easy-holdback";
  }
  return "?";
}

std::optional<SchedAlgorithm> parse_sched_algorithm(std::string_view name) {
  if (name == "krevat") return SchedAlgorithm::kKrevat;
  if (name == "easy") return SchedAlgorithm::kEasy;
  if (name == "conservative") return SchedAlgorithm::kConservative;
  if (name == "easy-holdback") return SchedAlgorithm::kEasyHoldback;
  return std::nullopt;
}

void require_supported_backfill(SchedAlgorithm algorithm,
                                BackfillMode backfill) {
  if (backfill == BackfillMode::kConservative &&
      algorithm != SchedAlgorithm::kKrevat) {
    throw ConfigError(
        std::string("--conservative-backfill (BackfillMode::kConservative) "
                    "runs under --algorithm krevat only, not --algorithm ") +
        to_string(algorithm));
  }
}

std::unique_ptr<ISchedulingAlgorithm> make_scheduling_algorithm(
    SchedAlgorithm algorithm) {
  switch (algorithm) {
    case SchedAlgorithm::kKrevat:
    case SchedAlgorithm::kEasy:
    case SchedAlgorithm::kEasyHoldback:
      return make_fcfs_backfill_algorithm(
          algorithm,
          /*record_reservations=*/algorithm != SchedAlgorithm::kKrevat,
          /*holdback=*/algorithm == SchedAlgorithm::kEasyHoldback);
    case SchedAlgorithm::kConservative: return make_conservative_algorithm();
  }
  BGL_CHECK(false, "unknown scheduling algorithm");
  return nullptr;
}

SchedulingPass::SchedulingPass(const PartitionCatalog& catalog,
                               PlacementPolicy& policy,
                               const FaultPredictor& predictor,
                               const SchedulerConfig& config,
                               const obs::Observer& obs, double now,
                               const std::vector<WaitingJob>& queue,
                               SchedulerPassScratch& scratch,
                               FreePartitionIndex& index,
                               SchedulingDecision& decision)
    : catalog_(&catalog),
      policy_(&policy),
      predictor_(&predictor),
      config_(&config),
      obs_(&obs),
      tracing_(obs.trace != nullptr),
      now_(now),
      queue_(&queue),
      s_(&scratch),
      idx_(&index),
      decision_(&decision),
      placed_(scratch.arena),
      candidates_(scratch.arena) {
  placed_.assign(queue.size(), 0);
}

const std::vector<RunningJob>& SchedulingPass::live() const { return s_->live; }

PlacementArena& SchedulingPass::scratch_arena() { return s_->arena; }

std::vector<Reservation>& SchedulingPass::reservation_scratch() {
  return s_->reservations;
}

// Consult the predictor for a job's execution window, accounting the query
// (and its verdict size) to the observer. The verdict lands in the pooled
// s_->flagged, so a query allocates nothing.
const NodeSet& SchedulingPass::query_predictor(const WaitingJob& job) {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kPredict);
  predictor_->flagged_nodes_into(s_->flagged, now_, now_ + job.estimate,
                                 job.id);
  if (obs_->counters != nullptr || tracing_) {
    const int n_flagged = s_->flagged.count();
    if (obs_->counters != nullptr) {
      obs_->counters->add(obs::Counter::kPredictorQueries);
      obs_->counters->add(obs::Counter::kPredictorNodesFlagged,
                          static_cast<std::uint64_t>(n_flagged));
    }
    if (tracing_) {
      decision_->predictor_queries.push_back(
          PredictorQueryRecord{job.id, now_, now_ + job.estimate, n_flagged});
    }
  }
  return s_->flagged;
}

std::span<const int> SchedulingPass::free_candidates(int alloc_size) {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kEnumerate);
  BGL_CHECK(alloc_size > 0 && alloc_size <= catalog_->num_nodes(),
            "waiting job has invalid alloc size");
  candidates_.clear();
  idx_->free_entries_of_size(alloc_size, candidates_);
  // Account one free-list scan over the entries of this size that offered
  // candidates_.size() candidates.
  if (obs_->counters != nullptr) {
    const auto [first, last] = catalog_->size_range(alloc_size);
    obs_->counters->add(obs::Counter::kPartitionsScanned,
                        static_cast<std::uint64_t>(last - first));
    obs_->counters->add(obs::Counter::kCandidatesConsidered,
                        static_cast<std::uint64_t>(candidates_.size()));
  }
  return candidates_;
}

void SchedulingPass::place(std::size_t q, std::span<const int> candidates,
                           bool backfill, const Reservation* res) {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kPlace);
  const WaitingJob& job = (*queue_)[q];
  const NodeSet& flagged = query_predictor(job);

  PlacementContext ctx;
  ctx.catalog = catalog_;
  ctx.occupied = &idx_->occupied();
  ctx.index = idx_;
  ctx.mfp_before_index = idx_->first_free_index();
  ctx.mfp_before_size =
      ctx.mfp_before_index < 0 ? 0 : catalog_->entry(ctx.mfp_before_index).size;
  ctx.flagged = &flagged;
  ctx.confidence = predictor_->confidence();
  ctx.pf_rule = config_->pf_rule;
  ctx.job_size = job.size;
  ctx.counters = obs_->counters;

  PlacementExplain explain;
  int chosen;
  {
    obs::ScopedPhase score_span(obs_->profiler, obs::Phase::kScore);
    chosen = policy_->choose(ctx, candidates, tracing_ ? &explain : nullptr);
  }

  decision_->starts.push_back(Start{job.id, chosen});
  if (catalog_->entry(chosen).mask.intersects(flagged)) {
    ++decision_->starts_on_flagged;
    for (const int c : candidates) {
      if (!catalog_->entry(c).mask.intersects(flagged)) {
        ++decision_->flagged_with_alternative;
        break;
      }
    }
  }
  idx_->occupy(catalog_->entry(chosen).mask);
  s_->live.push_back(RunningJob{job.id, chosen, now_ + job.estimate});
  if (obs_->counters != nullptr) {
    obs_->counters->add(obs::Counter::kSchedStarts);
    if (backfill) obs_->counters->add(obs::Counter::kSchedBackfillStarts);
  }
  if (obs_->histograms != nullptr) {
    obs_->histograms->add(obs::Hist::kCandidates,
                          static_cast<double>(candidates.size()));
  }
  if (tracing_) {
    PlacementRecord record{job.id, chosen, static_cast<int>(candidates.size()),
                           explain.flags, explain.l_mfp, explain.l_pf,
                           explain.e_loss, explain.mfp_after, backfill};
    if (res != nullptr) {
      record.res_time = res->time;
      record.res_entry = res->entry;
    }
    decision_->placements.push_back(record);
  }
  placed_[q] = 1;
}

bool SchedulingPass::try_migration(int alloc_size) {
  if (!config_->migration || migration_tried_ || s_->live.empty()) return false;
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kMigration);
  migration_tried_ = true;
  // Capacity bound: a re-pack moves live jobs but never frees a node (the
  // live partitions are disjoint, so occupied_after keeps exactly |occ|
  // nodes), hence with fewer free nodes than the head needs try_repack
  // cannot succeed. Checked before the O(live x words) obstacle build.
  const NodeSet& occ = idx_->occupied();
  if (catalog_->num_nodes() - occ.count() < alloc_size) return false;
  // Occupancy that does not belong to any live job — failed nodes still
  // inside their downtime window — must survive the compaction intact.
  // try_repack rebuilds the occupancy from the re-placed jobs, so without
  // this seed it would silently resurrect down nodes as free space and
  // the retried job (or a backfill filler) could start on them.
  s_->obstacles = occ;
  for (const RunningJob& r : s_->live) {
    s_->obstacles.subtract(catalog_->entry(r.entry_index).mask);
  }
  if (obs_->counters != nullptr) obs_->counters->add(obs::Counter::kSchedRepacks);
  auto repack = try_repack(*catalog_, s_->live, alloc_size, &s_->obstacles,
                           s_->arena);
  if (!repack) return false;
  for (const Migration& m : repack->migrations) {
    // A job started earlier in this same pass has not been committed by the
    // driver yet; rewrite its pending start instead of reporting a
    // migration of a not-yet-running job. The paired placement audit record
    // (placements[i] explains starts[i]) must follow, or the trace would
    // report a placement that was never committed.
    bool was_started_here = false;
    for (std::size_t s_i = 0; s_i < decision_->starts.size(); ++s_i) {
      if (decision_->starts[s_i].id == m.id) {
        decision_->starts[s_i].entry_index = m.to_entry;
        if (tracing_) decision_->placements[s_i].entry_index = m.to_entry;
        was_started_here = true;
        break;
      }
    }
    if (!was_started_here) decision_->migrations.push_back(m);
  }
  s_->live = std::move(repack->running_after);
  // Compaction rewrote the occupancy wholesale; reset the index to it with
  // one rebuild (migration passes are rare and already O(running x
  // catalog) in try_repack itself). This is the re-pack's commit: the
  // caller applies the migrations to everything but the index.
  idx_->reset(repack->occupied_after);
  return true;
}

std::size_t SchedulingPass::fcfs_prefix() {
  std::size_t head = 0;
  while (head < queue_->size()) {
    if (placed(head)) {
      ++head;
      continue;
    }
    const int alloc_size = (*queue_)[head].alloc_size;
    const std::span<const int> candidates = free_candidates(alloc_size);
    if (!candidates.empty()) {
      place(head, candidates, /*backfill=*/false);
      ++head;
      continue;
    }
    // Head job blocked: try compaction (once per pass), then retry it on the
    // compacted torus.
    if (!try_migration(alloc_size)) break;
  }
  return head;
}

std::optional<Reservation> SchedulingPass::reservation(int alloc_size) const {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kReservation);
  return compute_reservation(*catalog_, idx_->occupied(), s_->live,
                             alloc_size, now_, s_->arena);
}

void SchedulingPass::note_reservation(std::uint64_t job_id,
                                      const Reservation& r) {
  if (!tracing_) return;
  decision_->reservations.push_back(ReservationRecord{job_id, r.time, r.entry});
}

}  // namespace bgl
