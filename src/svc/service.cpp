#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "predict/predictor.hpp"
#include "predict/registry.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bgl::svc {

namespace {

/// Queue jobs the scheduler actually needs to see: it can start at most
/// num_nodes jobs per pass plus examine backfill_depth fillers.
constexpr std::size_t kQueueViewCap = 512;

/// True when `u` is exactly a | b (all three the same width). No early
/// exit: the check runs before every pass and almost always holds, and a
/// branch-free loop vectorizes.
bool is_union_of(const NodeSet& u, const NodeSet& a, const NodeSet& b) {
  const NodeSet::WordSpan uw = u.words();
  const NodeSet::WordSpan aw = a.words();
  const NodeSet::WordSpan bw = b.words();
  std::uint64_t diff = 0;
  for (std::size_t w = 0; w < uw.size(); ++w) diff |= uw[w] ^ (aw[w] | bw[w]);
  return diff == 0;
}

}  // namespace

SchedulerService::SchedulerService(const ServiceConfig& config,
                                   const FailureTrace* oracle,
                                   const PartitionCatalog* shared_catalog)
    : config_(config),
      owned_catalog_(shared_catalog
                         ? nullptr
                         : new PartitionCatalog(config.dims, config.topology,
                                                config.catalog)),
      catalog_(shared_catalog ? shared_catalog : owned_catalog_.get()),
      allocated_(catalog_->num_nodes()),
      index_(*catalog_),
      down_(config.dims.volume()),
      tr_(config.obs.trace),
      hg_(config.obs.histograms),
      ct_(config.obs.counters) {
  BGL_CHECK(catalog_->dims() == config.dims, "shared catalog dims mismatch");
  BGL_CHECK(catalog_->topology() == config.topology,
            "shared catalog topology mismatch");
  if (tr_ != nullptr && config_.metrics_interval > 0.0) {
    decision_ring_ = std::make_unique<obs::LatencyRing>();
  }
  build_scheduler(oracle);
}

SchedulerService::~SchedulerService() = default;

void SchedulerService::build_scheduler(const FailureTrace* oracle) {
  const int n = config_.dims.volume();
  // One registry for every frontend: make_predictor raises the typed
  // OracleRequiredError — naming the model — when an oracle-backed model is
  // configured without a trace. kAdaptive needs none: it is fed by the
  // stream's fail/repair events.
  PredictorSpec spec;
  spec.model = config_.predictor_model;
  spec.paper_role = paper_role_for(config_.scheduler);
  spec.alpha = config_.alpha;
  spec.history_lookback = config_.history_lookback;
  spec.seed = config_.seed;
  spec.adaptive = config_.adaptive;
  predictor_ = make_predictor(spec, n, oracle);

  switch (config_.scheduler) {
    case SchedulerKind::kKrevat:
      scheduler_ = make_krevat_scheduler(*catalog_, *predictor_, config_.sched);
      break;
    case SchedulerKind::kBalancing:
      scheduler_ = make_balancing_scheduler(*catalog_, *predictor_, config_.sched);
      break;
    case SchedulerKind::kTieBreak:
      scheduler_ = make_tiebreak_scheduler(*catalog_, *predictor_, config_.sched);
      break;
  }
  scheduler_->set_observer(config_.obs);
}

int SchedulerService::usable_free_nodes() const {
  return catalog_->num_nodes() - index_.occupied().count();
}

void SchedulerService::ensure_begin(double t) {
  // Cadence anchoring is independent of tracing: the metrics window (and
  // the forecast scorer riding on it) also runs counters-only, so a live
  // sched_server scrape shows pred.* without a trace sink attached.
  if (!cadences_anchored_) {
    cadences_anchored_ = true;
    if (tr_ != nullptr && config_.snapshot_interval > 0.0) {
      next_snapshot_ = t + config_.snapshot_interval;
    }
    if (config_.metrics_interval > 0.0 && (tr_ != nullptr || ct_ != nullptr)) {
      last_metrics_t_ = t;
      next_metrics_ = t + config_.metrics_interval;
      pred_armed_ = true;
      pred_flagged_ = predictor_->flagged_nodes(t, t + config_.metrics_interval, 0);
      pred_failed_ = NodeSet(catalog_->num_nodes());
    }
  }
  if (tr_ == nullptr || begin_emitted_) return;
  begin_emitted_ = true;
  auto begin = tr_->event("sim_begin", t);
  begin.field("machine", to_string(config_.dims))
      .field("nodes", catalog_->num_nodes())
      .field("topology", to_string(config_.topology))
      .field("scheduler", to_string(config_.scheduler))
      .field("policy", scheduler_->name())
      .field("predictor", to_string(config_.predictor_model))
      .field("alpha", config_.alpha)
      .field("backfill", to_string(config_.sched.backfill))
      .field("migration", config_.sched.migration)
      // 0 = "unknown" unless the clock announced a census (the auditor
      // counts submits itself and never reads these back).
      .field("jobs", census_.jobs)
      .field("failure_events", census_.failure_events);
  // Scale-up knobs are emitted only when they deviate from the defaults.
  if (catalog_->options().mode != CatalogOptions::Mode::kBoxes) {
    begin.field("catalog", to_string(catalog_->options().mode))
        .field("min_block", catalog_->options().min_block);
  }
  if (config_.sched.algorithm != SchedAlgorithm::kKrevat) {
    begin.field("algorithm", to_string(config_.sched.algorithm));
  }
  // Adaptive-predictor provenance (checked by the strict auditor's
  // predictor_mismatch invariant).
  if (config_.predictor_model == PredictorModel::kAdaptive) {
    begin.field("flag_window", config_.adaptive.node_flag_window)
        .field("burst_window", config_.adaptive.burst_window);
  }
}

void SchedulerService::emit_snapshots_until(double horizon) {
  while (true) {
    const bool snap_due = next_snapshot_ > 0.0 && next_snapshot_ <= horizon;
    const bool metrics_due = next_metrics_ > 0.0 && next_metrics_ <= horizon;
    if (!snap_due && !metrics_due) break;
    if (snap_due && (!metrics_due || next_snapshot_ <= next_metrics_)) {
      const double t = next_snapshot_;
      next_snapshot_ += config_.snapshot_interval;
      emit_machine_state(t);
    } else {
      const double t = next_metrics_;
      next_metrics_ += config_.metrics_interval;
      emit_metrics(t);
    }
  }
}

void SchedulerService::emit_machine_state(double t) {
  const int mfp = index_.mfp();
  const int free = usable_free_nodes();
  const double frag =
      free > 0 ? 1.0 - static_cast<double>(mfp) / static_cast<double>(free)
               : 0.0;
  const int flagged =
      predictor_->flagged_nodes(t, t + config_.snapshot_interval, 0).count();

  tr_->event("machine_state", t)
      .field("queue_depth", static_cast<std::int64_t>(queue_.size()))
      .field("queued_nodes",
             static_cast<std::int64_t>(integrator_.queued_demand()))
      .field("running_jobs", static_cast<std::int64_t>(running_.size()))
      .field("free_nodes", free)
      .field("down_nodes", down_count_)
      .field("mfp", mfp)
      .field("frag", frag)
      .field("flagged_nodes", flagged);
}

void SchedulerService::emit_metrics(double t) {
  // Score the closing window's forecast against realized failures before
  // anything is emitted, then re-capture for the next window below.
  std::int64_t pred_tp = 0, pred_fp = 0, pred_fn = 0;
  if (pred_armed_) {
    pred_tp = pred_flagged_.intersect_count(pred_failed_);
    pred_fp = pred_flagged_.count() - pred_tp;
    pred_fn = pred_failed_.count() - pred_tp;
    if (ct_ != nullptr) {
      ct_->add(obs::Counter::kPredWindowTruePositives,
               static_cast<std::uint64_t>(pred_tp));
      ct_->add(obs::Counter::kPredWindowFalsePositives,
               static_cast<std::uint64_t>(pred_fp));
      ct_->add(obs::Counter::kPredWindowFalseNegatives,
               static_cast<std::uint64_t>(pred_fn));
      ct_->add(obs::Counter::kPredWindowsScored);
    }
  }

  if (tr_ != nullptr) {
    // busy = nodes held by running jobs: exactly the union of their
    // partitions (down nodes sit in a separate overlay), which is what the
    // auditor recomputes from the stream.
    const int busy = allocated_.count();
    const int nodes = catalog_->num_nodes();
    const double interval = t - last_metrics_t_;
    double p50 = 0.0, p99 = 0.0, max_us = 0.0;
    if (decision_ring_ != nullptr && decision_ring_->size() > 0) {
      p50 = decision_ring_->quantile(0.5);
      p99 = decision_ring_->quantile(0.99);
      max_us = decision_ring_->max();
    }

    tr_->event("metrics", t)
        .field("queue_depth", static_cast<std::int64_t>(queue_.size()))
        .field("queued_nodes",
               static_cast<std::int64_t>(integrator_.queued_demand()))
        .field("running_jobs", static_cast<std::int64_t>(running_.size()))
        .field("busy_nodes", busy)
        .field("down_nodes", down_count_)
        .field("utilization",
               nodes > 0 ? static_cast<double>(busy) / static_cast<double>(nodes)
                         : 0.0)
        .field("interval", interval)
        .field("submits", m_submits_)
        .field("starts", m_starts_)
        .field("finishes", m_finishes_)
        .field("kills", m_kills_)
        .field("migrations", m_migrations_)
        .field("finished_per_hour",
               interval > 0.0
                   ? static_cast<double>(m_finishes_) * 3600.0 / interval
                   : 0.0)
        .field("decisions", m_decisions_)
        .field("decision_us_p50", p50)
        .field("decision_us_p99", p99)
        .field("decision_us_max", max_us)
        .field("pred_tp", pred_tp)
        .field("pred_fp", pred_fp)
        .field("pred_fn", pred_fn);
  }

  last_metrics_t_ = t;
  m_submits_ = m_starts_ = m_finishes_ = m_kills_ = m_migrations_ = 0;
  m_decisions_ = 0;
  if (decision_ring_ != nullptr) decision_ring_->clear();
  if (pred_armed_) {
    predictor_->flagged_nodes_into(pred_flagged_, t,
                                   t + config_.metrics_interval, 0);
    pred_failed_.clear();
  }
}

/// §6.1 capacity integral, driven by the event stream: starts at the first
/// submit (the workload's min arrival — the stream is time-ordered) and
/// advances *before* each event's mutations.
void SchedulerService::advance_integrator(const Event& event) {
  if (stats_.submitted > 0) {
    integrator_.advance(event.time);
  } else if (event.kind == EventKind::kSubmit) {
    min_submit_ = event.time;
    integrator_.start(event.time, usable_free_nodes(), 0);
  }
}

SchedulerService::JobRec* SchedulerService::find(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

double SchedulerService::remaining_work(std::uint64_t job) const {
  const auto it = jobs_.find(job);
  BGL_CHECK(it != jobs_.end(), "remaining_work of an unknown job");
  return it->second.remaining_work;
}

void SchedulerService::enqueue(JobRec& job) {
  job.phase = Phase::kWaiting;
  job.entry = -1;
  auto priority = [&](const JobRec* a, const JobRec* b) {
    const JobRec& ja = *a;
    const JobRec& jb = *b;
    switch (config_.queue_order) {
      case QueueOrder::kShortestJobFirst:
        if (ja.estimate != jb.estimate) return ja.estimate < jb.estimate;
        break;
      case QueueOrder::kSmallestJobFirst:
        if (ja.size != jb.size) return ja.size < jb.size;
        break;
      case QueueOrder::kFcfs:
        break;
    }
    if (ja.arrival != jb.arrival) return ja.arrival < jb.arrival;
    return ja.id < jb.id;
  };
  const auto pos = std::lower_bound(queue_.begin(), queue_.end(), &job, priority);
  queue_.insert(pos, &job);
  // §6.1: q(t) counts the nodes *requested* by waiting jobs (s_j, not the
  // rounded-up allocation size).
  integrator_.add_queued(job.size);
}

void SchedulerService::allocate(JobRec& job, int entry) {
  const NodeSet& mask = catalog_->entry(entry).mask;
  BGL_CHECK(!mask.intersects(allocated_), "allocating an occupied partition");
  allocated_ |= mask;
  job.entry = entry;
}

void SchedulerService::release_allocation(JobRec& job) {
  const NodeSet& mask = catalog_->entry(job.entry).mask;
  index_release(mask);
  allocated_.subtract(mask);
  const auto rpos = std::find(running_.begin(), running_.end(), &job);
  BGL_CHECK(rpos != running_.end(), "job missing from running set");
  *rpos = running_.back();
  running_.pop_back();
}

void SchedulerService::run_pass(double now, std::vector<Decision>& out) {
  // Scheduler-facing ids are the submitted job ids: id-salted predictors
  // (the tie-breaking coins) key their draws on them.
  std::vector<WaitingJob> waiting;
  waiting.reserve(std::min(queue_.size(), kQueueViewCap));
  for (std::size_t i = 0; i < queue_.size() && i < kQueueViewCap; ++i) {
    const JobRec& j = *queue_[i];
    waiting.push_back(WaitingJob{j.id, j.size, catalog_->allocatable_size(j.size),
                                 j.estimate});
  }
  std::vector<RunningJob> running;
  running.reserve(running_.size());
  for (const JobRec* j : running_) {
    running.push_back(RunningJob{j->id, j->entry, j->last_start + j->estimate});
  }

  // The index is the one occupancy the pass reads; it must equal what the
  // two other books say is busy: the running jobs' partitions and the down
  // overlay.
  {
    obs::ScopedPhase sync_span(config_.obs.profiler, obs::Phase::kIndexSync);
    BGL_CHECK(is_union_of(index_.occupied(), allocated_, down_),
              "free-partition index out of sync with allocations and down nodes");
  }
  // Wall-clock pass latency feeds the metrics window (p50/p99/max per
  // interval); the clock is read only when metrics emission is on.
  std::chrono::steady_clock::time_point m_begin;
  if (decision_ring_ != nullptr) m_begin = std::chrono::steady_clock::now();
  const SchedulingDecision decision =
      scheduler_->schedule(now, waiting, running, index_);
  ++m_decisions_;
  if (decision_ring_ != nullptr) {
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - m_begin;
    decision_ring_->add(us.count());
  }

  if (tr_ != nullptr) {
    for (const PredictorQueryRecord& q : decision.predictor_queries) {
      tr_->event("predictor_query", now)
          .field("job", q.id)
          .field("window_start", q.window_start)
          .field("window_end", q.window_end)
          .field("nodes_flagged", q.nodes_flagged);
    }
  }

  // The pass already advanced the index to the post-decision occupancy;
  // what follows commits the decision to allocated_ and the job records.
  // Apply migrations first, in two phases: jobs may rotate into one
  // another's old partitions, so every mover must release before any
  // re-allocates.
  for (const Migration& m : decision.migrations) {
    const JobRec* j = find(m.id);
    BGL_CHECK(j != nullptr, "migration refers to unknown job");
    BGL_CHECK(j->phase == Phase::kRunning, "migrating a non-running job");
    BGL_CHECK(j->entry == m.from_entry,
              "migration source is not the job's partition");
    allocated_.subtract(catalog_->entry(j->entry).mask);
  }
  for (const Migration& m : decision.migrations) {
    JobRec& j = *find(m.id);
    allocate(j, m.to_entry);
    ++stats_.migrations;
    ++m_migrations_;
    if (tr_ != nullptr) {
      tr_->event("migration", now)
          .field("job", j.id)
          .field("from_entry", m.from_entry)
          .field("to_entry", m.to_entry);
    }
    Decision d;
    d.kind = DecisionKind::kMigrate;
    d.time = now;
    d.job = j.id;
    d.entry = m.to_entry;
    d.from_entry = m.from_entry;
    out.push_back(d);
  }

  // When tracing, starts and placement records were appended pairwise by
  // the engine, so placements[i] explains starts[i]. A compaction in the
  // same pass rewrites both the pending start and its audit record, so the
  // traced entry is always the partition actually committed below.
  BGL_CHECK(tr_ == nullptr || decision.placements.size() == decision.starts.size(),
            "placement audit records out of sync with starts");

  for (std::size_t start_i = 0; start_i < decision.starts.size(); ++start_i) {
    const Start& start = decision.starts[start_i];
    JobRec* const job = find(start.id);
    BGL_CHECK(job != nullptr, "start refers to unknown job");
    JobRec& j = *job;
    BGL_CHECK(j.phase == Phase::kWaiting, "starting a non-waiting job");

    const auto qpos = std::find(queue_.begin(), queue_.end(), job);
    BGL_CHECK(qpos != queue_.end(), "started job missing from queue");
    queue_.erase(qpos);
    integrator_.add_queued(-static_cast<long long>(j.size));

    allocate(j, start.entry_index);
    j.phase = Phase::kRunning;
    j.last_start = now;
    if (j.first_start < 0.0) j.first_start = now;
    running_.push_back(job);
    ++stats_.starts;
    ++m_starts_;

    if (tr_ != nullptr) {
      const PlacementRecord& p = decision.placements[start_i];
      {
        auto ev = tr_->event("sched_decision", now);
        ev.field("job", j.id)
            .field("policy", scheduler_->name())
            .field("entry", p.entry_index)
            .field("candidates", p.candidates)
            .field("l_mfp", p.l_mfp)
            .field("l_pf", p.l_pf)
            .field("e_loss", p.e_loss)
            .field("mfp_after", p.mfp_after)
            .field("flags_in_chosen", p.flags_in_chosen)
            .field("backfill", p.backfill);
        // Reservation provenance exists only on backfill placements made by
        // the reservation-carrying algorithms (easy/conservative/holdback).
        if (p.res_entry >= 0) {
          ev.field("res_time", p.res_time).field("res_entry", p.res_entry);
        }
      }
      tr_->event("job_start", now)
          .field("job", j.id)
          .field("entry", start.entry_index)
          .field("alloc_size", catalog_->allocatable_size(j.size))
          .field("wait_so_far", now - j.arrival)
          .field("restarts", j.restarts);
    }

    Decision d;
    d.kind = DecisionKind::kStart;
    d.time = now;
    d.job = j.id;
    d.entry = start.entry_index;
    out.push_back(d);
  }

  stats_.starts_on_flagged += static_cast<std::size_t>(decision.starts_on_flagged);
  stats_.flagged_with_alternative +=
      static_cast<std::size_t>(decision.flagged_with_alternative);

  if (!decision.starts.empty() || !decision.migrations.empty()) {
    integrator_.set_free(usable_free_nodes());
  }
}

void SchedulerService::kill_job(JobRec& job, double now, int node,
                                std::vector<Decision>& out) {
  const double size = static_cast<double>(job.size);
  const double elapsed = now - job.last_start;
  // The job restarts from its last completed checkpoint (all work is lost
  // when checkpointing is off). Work fields are node-seconds throughout the
  // trace (schema: docs/OBSERVABILITY.md), so per-node work scales by size.
  const double saved = saved_work_at(elapsed, job.remaining_work, config_.ckpt);
  if (config_.ckpt.enabled) {
    const std::size_t taken =
        static_cast<std::size_t>(checkpoint_count(saved, config_.ckpt)) +
        (saved > 0.0 ? 1u : 0u);
    stats_.checkpoints += taken;
    if (tr_ != nullptr && taken > 0) {
      tr_->event("checkpoint", now)
          .field("job", job.id)
          .field("count", static_cast<std::int64_t>(taken))
          .field("work_saved", saved * size);
    }
  }
  const double wasted =
      std::max(0.0, std::min(elapsed, job.remaining_work) - saved);
  stats_.work_lost_node_seconds += wasted * size;
  job.remaining_work -= saved;
  if (saved > 0.0) job.remaining_work += config_.ckpt.restart_overhead;
  ++job.restarts;
  ++stats_.kills;
  ++m_kills_;
  if (now <= job.last_start + job.estimate + 1e-9) ++stats_.avoidable_kills;
  if (tr_ != nullptr) {
    tr_->event("job_kill", now)
        .field("job", job.id)
        .field("entry", job.entry)
        .field("elapsed", elapsed)
        .field("work_lost", wasted * size)
        .field("work_saved", saved * size)
        .field("restarts", job.restarts);
  }

  Decision d;
  d.kind = DecisionKind::kKill;
  d.time = now;
  d.job = job.id;
  d.entry = job.entry;
  d.node = node;
  out.push_back(d);

  release_allocation(job);
  enqueue(job);
}

void SchedulerService::on_submit(const Event& e, std::vector<Decision>& out,
                                 std::size_t line) {
  if (jobs_.count(e.job) != 0) {
    throw ProtocolError(RejectCode::kDuplicateJob, line,
                        "job " + std::to_string(e.job) + " already submitted");
  }
  const int n = catalog_->num_nodes();
  if (e.size < 1 || e.size > n) {
    throw ProtocolError(RejectCode::kBadValue, line,
                        "size " + std::to_string(e.size) +
                            " outside [1, " + std::to_string(n) + "]");
  }
  if (e.estimate < 0.0) {
    throw ProtocolError(RejectCode::kBadValue, line, "estimate must be >= 0");
  }
  if (config_.ckpt.enabled && e.runtime < 0.0) {
    throw ProtocolError(RejectCode::kBadField, line,
                        "checkpointing needs the job's runtime");
  }
  const int alloc = catalog_->allocatable_size(e.size);
  if (alloc <= 0) {
    throw ProtocolError(RejectCode::kNoPartition, line,
                        "no allocatable partition size for " +
                            std::to_string(e.size) + " nodes");
  }

  advance_integrator(e);
  predictor_->advance(e.time);
  ensure_begin(e.time);
  emit_snapshots_until(e.time);
  ++m_submits_;
  JobRec& job = jobs_[e.job];
  job.id = e.job;
  job.size = e.size;
  job.arrival = e.time;
  job.estimate = e.estimate;
  job.runtime = e.runtime;
  job.remaining_work =
      e.runtime >= 0.0 ? e.runtime : std::numeric_limits<double>::infinity();
  enqueue(job);
  ++stats_.submitted;
  // sim_end utilization must equal the auditor's recomputation from the
  // runtimes traced here, so unknown runtimes count as 0 in both places.
  useful_work_ +=
      static_cast<double>(job.size) * std::max(job.runtime, 0.0);
  if (tr_ != nullptr) {
    tr_->event("job_submit", e.time)
        .field("job", job.id)
        .field("size", job.size)
        .field("alloc_size", alloc)
        .field("estimate", job.estimate)
        .field("runtime", std::max(job.runtime, 0.0));
  }
  run_pass(e.time, out);
}

void SchedulerService::on_complete(const Event& e, std::vector<Decision>& out,
                                   std::size_t line) {
  JobRec* const found = find(e.job);
  if (found == nullptr) {
    throw ProtocolError(RejectCode::kUnknownJob, line,
                        "job " + std::to_string(e.job) + " was never submitted");
  }
  JobRec& job = *found;
  if (job.phase != Phase::kRunning) {
    throw ProtocolError(RejectCode::kNotRunning, line,
                        "job " + std::to_string(e.job) + " is not running");
  }

  advance_integrator(e);
  predictor_->advance(e.time);
  emit_snapshots_until(e.time);
  // A finished run checkpointed all along; the last checkpoint before the
  // end is traced so the stream's checkpoint total matches sim_end's.
  const std::size_t taken = static_cast<std::size_t>(
      checkpoint_count(job.remaining_work, config_.ckpt));
  stats_.checkpoints += taken;
  if (tr_ != nullptr && taken > 0) {
    tr_->event("checkpoint", e.time)
        .field("job", job.id)
        .field("count", static_cast<std::int64_t>(taken))
        .field("work_saved",
               job.remaining_work * static_cast<double>(job.size));
  }
  job.phase = Phase::kDone;
  ++stats_.finished;
  ++m_finishes_;
  max_finish_ = std::max(max_finish_, e.time);

  JobOutcome& outcome = last_outcome_;
  outcome.id = job.id;
  outcome.size = job.size;
  outcome.arrival = job.arrival;
  outcome.first_start = job.first_start;
  outcome.last_start = job.last_start;
  outcome.finish = e.time;
  // Unknown runtime: the elapsed time of the successful run is the actual
  // execution time by definition of a complete event.
  outcome.runtime = job.runtime >= 0.0 ? job.runtime : e.time - job.last_start;
  outcome.estimate = job.estimate;
  outcome.restarts = job.restarts;
  const double slowdown = bounded_slowdown(outcome, config_.metrics);
  wait_.add(outcome.wait());
  response_.add(outcome.response());
  slowdown_.add(slowdown);
  if (hg_ != nullptr) {
    hg_->add(obs::Hist::kWait, outcome.wait());
    hg_->add(obs::Hist::kResponse, outcome.response());
    hg_->add(obs::Hist::kSlowdown, slowdown);
  }
  if (tr_ != nullptr) {
    tr_->event("job_finish", e.time)
        .field("job", job.id)
        .field("entry", job.entry)
        .field("wait", outcome.wait())
        .field("response", outcome.response())
        .field("bounded_slowdown", slowdown)
        .field("restarts", job.restarts);
  }

  release_allocation(job);
  integrator_.set_free(usable_free_nodes());
  run_pass(e.time, out);
}

void SchedulerService::on_fail(const Event& e, std::vector<Decision>& out) {
  advance_integrator(e);
  predictor_->advance(e.time);
  ensure_begin(e.time);
  emit_snapshots_until(e.time);
  // Feed the failure to the predictor before the kills it causes, so the
  // requeued victims are re-placed with the new evidence.
  predictor_->observe_failure(e.node, e.time);
  if (pred_armed_) pred_failed_.set(e.node);
  ++stats_.failures;
  // Partitions are disjoint, so the node has at most one victim.
  JobRec* victim = nullptr;
  if (allocated_.test(e.node)) {
    for (JobRec* j : running_) {
      if (catalog_->entry(j->entry).mask.test(e.node)) {
        victim = j;
        break;
      }
    }
    BGL_CHECK(victim != nullptr, "allocated node held by no running job");
  }
  if (tr_ != nullptr) {
    // Down-time ends with an explicit repair event, not a duration known up
    // front: down_for stays 0, and "down":true tells the auditor to hold
    // the node down until the matching node_repair.
    auto ev = tr_->event("node_failure", e.time);
    ev.field("node", e.node)
        .field("victims", static_cast<std::int64_t>(victim != nullptr))
        .field("down_for", 0.0);
    if (e.down) ev.field("down", true);
  }
  if (e.down) {
    if (!down_.test(e.node)) ++down_count_;
    down_.set(e.node);
    // No-op if a victim still holds the node; the victim's release keeps it
    // blocked because index_release subtracts the down overlay.
    index_.occupy_node(e.node);
  }
  if (victim != nullptr) {
    ++stats_.failures_hitting_jobs;
    kill_job(*victim, e.time, e.node, out);
  }
  if (victim != nullptr || e.down ||
      config_.failure_semantics == FailureSemantics::kDownFor) {
    integrator_.set_free(usable_free_nodes());
    run_pass(e.time, out);
  }
}

void SchedulerService::on_repair(const Event& e, std::vector<Decision>& out,
                                 std::size_t line) {
  if (!down_.test(e.node)) {
    throw ProtocolError(RejectCode::kNodeState, line,
                        "node " + std::to_string(e.node) + " is not down");
  }
  advance_integrator(e);
  predictor_->advance(e.time);
  emit_snapshots_until(e.time);
  predictor_->observe_repair(e.node, e.time);
  if (tr_ != nullptr) tr_->event("node_repair", e.time).field("node", e.node);
  down_.reset(e.node);
  --down_count_;
  // The node cannot be allocated while down, so releasing it in the index
  // exactly undoes the failure-time block.
  index_.release_node(e.node);
  integrator_.set_free(usable_free_nodes());
  run_pass(e.time, out);
}

void SchedulerService::handle(const Event& event, std::vector<Decision>& out,
                              std::size_t line) {
  // One svc.event span per protocol event; scheduler passes it triggers
  // (sched.pass and its subtree) nest under it.
  obs::ScopedPhase svc_span(config_.obs.profiler, obs::Phase::kSvcEvent);
  if (any_event_ && event.time < now_) {
    throw ProtocolError(RejectCode::kTimeOrder, line,
                        "time ran backwards: " + std::to_string(event.time) +
                            " after " + std::to_string(now_));
  }
  if (event.kind == EventKind::kFail || event.kind == EventKind::kRepair) {
    if (event.node < 0 || event.node >= catalog_->num_nodes()) {
      throw ProtocolError(RejectCode::kBadNode, line,
                          "node " + std::to_string(event.node) +
                              " outside machine of " +
                              std::to_string(catalog_->num_nodes()) + " nodes");
    }
  }

  switch (event.kind) {
    case EventKind::kSubmit:
      on_submit(event, out, line);
      break;
    case EventKind::kComplete:
      on_complete(event, out, line);
      break;
    case EventKind::kFail:
      on_fail(event, out);
      break;
    case EventKind::kRepair:
      on_repair(event, out, line);
      break;
    case EventKind::kTick:
      advance_integrator(event);
      predictor_->advance(event.time);
      emit_snapshots_until(event.time);
      run_pass(event.time, out);
      break;
  }
  any_event_ = true;
  now_ = std::max(now_, event.time);
}

SimResult SchedulerService::summary() const {
  SimResult r;
  r.jobs_completed = stats_.finished;
  r.job_kills = stats_.kills;
  r.avoidable_kills = stats_.avoidable_kills;
  r.starts_on_flagged = stats_.starts_on_flagged;
  r.flagged_with_alternative = stats_.flagged_with_alternative;
  r.failures_hitting_jobs = stats_.failures_hitting_jobs;
  r.failures_total = stats_.failures;
  r.migrations = stats_.migrations;
  r.checkpoints_taken = stats_.checkpoints;
  r.work_lost_node_seconds = stats_.work_lost_node_seconds;

  r.span = max_finish_ - min_submit_;
  r.wait_stats = wait_;
  r.response_stats = response_;
  r.slowdown_stats = slowdown_;
  r.avg_wait = wait_.mean();
  r.avg_response = response_.mean();
  r.avg_bounded_slowdown = slowdown_.mean();
  const double tn = r.span * static_cast<double>(catalog_->num_nodes());
  if (tn > 0.0) {
    r.utilization = useful_work_ / tn;
    r.unused = integrator_.unused_integral() / tn;
    r.lost = 1.0 - r.utilization - r.unused;
  }
  return r;
}

bool SchedulerService::finish_stream() {
  if (tr_ == nullptr) return false;
  if (end_emitted_) return true;
  if (stats_.submitted == 0 || !queue_.empty() || !running_.empty()) {
    return false;  // trace stays truncated: jobs are still in flight
  }
  const SimResult r = summary();
  // sim_end publishes Σ/n, which a client summing the job_finish lines
  // reproduces exactly; SimResult::avg_* are the running means.
  auto mean = [](const RunningStats& s) {
    return s.count() > 0 ? s.sum() / static_cast<double>(s.count()) : 0.0;
  };
  tr_->event("sim_end", max_finish_)
      .field("jobs_completed", static_cast<std::int64_t>(r.jobs_completed))
      .field("span", r.span)
      .field("avg_wait", mean(r.wait_stats))
      .field("avg_response", mean(r.response_stats))
      .field("avg_bounded_slowdown", mean(r.slowdown_stats))
      .field("utilization", r.utilization)
      .field("unused", r.unused)
      .field("lost", r.lost)
      .field("job_kills", static_cast<std::int64_t>(r.job_kills))
      .field("migrations", static_cast<std::int64_t>(r.migrations))
      .field("checkpoints", static_cast<std::int64_t>(r.checkpoints_taken))
      .field("work_lost_node_seconds", r.work_lost_node_seconds);
  tr_->flush();
  end_emitted_ = true;
  return true;
}

}  // namespace bgl::svc
