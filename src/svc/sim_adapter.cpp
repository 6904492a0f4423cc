#include "svc/sim_adapter.hpp"

#include <algorithm>
#include <chrono>

#include "ckpt/checkpoint.hpp"
#include "des/event_queue.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "sim/experiment.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bgl::svc {

ServiceConfig service_config_from(const SimConfig& config) {
  ServiceConfig sc;
  sc.dims = config.dims;
  sc.topology = config.topology;
  sc.catalog = config.catalog;
  sc.scheduler = config.scheduler;
  sc.alpha = config.alpha;
  sc.tiebreak_false_positive_rate = config.tiebreak_false_positive_rate;
  sc.predictor_model = config.predictor_model;
  sc.history_lookback = config.history_lookback;
  sc.adaptive = config.adaptive;
  sc.sched = config.sched;
  sc.queue_order = config.queue_order;
  sc.metrics = config.metrics;
  sc.ckpt = config.ckpt;
  sc.failure_semantics = config.failure_semantics;
  sc.seed = config.seed;
  sc.use_partition_index = config.use_partition_index;
  sc.obs = config.obs;
  sc.snapshot_interval = config.snapshot_interval;
  sc.metrics_interval = config.metrics_interval;
  return sc;
}

namespace {

/// Clock-side state of one job; everything decision-side lives in the
/// service.
struct JobClock {
  std::uint64_t gen = 0;  ///< Finish-event validity tag; kills bump it.
  int entry = -1;         ///< Current partition, for the replay log.
};

class Simulation {
 public:
  Simulation(const Workload& workload, const FailureTrace& trace,
             const SimConfig& config, const PartitionCatalog* shared_catalog)
      : config_(config),
        workload_(workload),
        trace_(trace),
        service_(service_config_from(config), &trace, shared_catalog),
        clock_(workload.jobs.size()),
        events_(config.event_queue),
        down_(config.dims.volume()),
        down_until_(static_cast<std::size_t>(config.dims.volume()), 0.0) {
    BGL_CHECK(trace.empty() || trace.num_nodes() == config.dims.volume(),
              "failure trace node count mismatch");
    for (const Job& j : workload.jobs) {
      if (j.size > config.dims.volume()) {
        BGL_WARN("job " << j.id << " size " << j.size << " exceeds machine ("
                        << config.dims.volume() << "); clamping");
      }
    }
  }

  SimResult run();

 private:
  /// Requested size clamped to the machine.
  int size_of(std::size_t index) const {
    return std::min(workload_.jobs[index].size, config_.dims.volume());
  }
  void handle(const Event& event) { service_.handle(event, decisions_); }
  void apply_decisions(double now);
  void arrive(std::size_t index, double now);
  void finish(std::size_t index, double now);
  void fail(int node, double now);

  const SimConfig& config_;
  const Workload& workload_;
  const FailureTrace& trace_;
  SchedulerService service_;
  std::vector<JobClock> clock_;
  EventQueue events_;
  CapacityIntegrator integrator_;
  SimResult result_;
  double min_arrival_ = 0.0;
  double max_finish_ = 0.0;
  NodeSet down_;  ///< Nodes down under kDownFor, until down_until_.
  std::vector<double> down_until_;
  std::vector<Decision> decisions_;  ///< Reused across events.
};

/// Schedule the finish of every start, invalidate the in-flight finish of
/// every kill, and log the replay record of each decision.
void Simulation::apply_decisions(double now) {
  for (const Decision& d : decisions_) {
    const std::size_t idx = static_cast<std::size_t>(d.job);
    BGL_CHECK(idx < clock_.size(), "decision refers to unknown job");
    JobClock& c = clock_[idx];
    ReplayEventType type = ReplayEventType::kStart;
    switch (d.kind) {
      case DecisionKind::kStart:
        c.entry = d.entry;
        ++c.gen;
        events_.push(bgl::Event{
            now + walltime_for_work(service_.remaining_work(d.job), config_.ckpt),
            EventType::kFinish, d.job, c.gen, 0});
        break;
      case DecisionKind::kMigrate:
        c.entry = d.entry;
        type = ReplayEventType::kMigration;
        break;
      case DecisionKind::kKill:
        ++c.gen;
        c.entry = -1;
        type = ReplayEventType::kKill;
        break;
    }
    if (config_.record_replay) {
      result_.replay.push_back(
          ReplayEvent{now, type, workload_.jobs[idx].id, -1, d.entry});
    }
  }
}

void Simulation::arrive(std::size_t index, double now) {
  if (config_.record_replay) {
    result_.replay.push_back(ReplayEvent{now, ReplayEventType::kArrival,
                                         workload_.jobs[index].id, -1, -1});
  }
  const Job& j = workload_.jobs[index];
  Event submit;
  submit.kind = EventKind::kSubmit;
  submit.time = now;
  // Workload indices, not job numbers: those are only unique per log, not
  // across merged logs.
  submit.job = index;
  submit.size = size_of(index);
  submit.estimate = j.estimate;
  submit.runtime = j.runtime;
  handle(submit);
}

void Simulation::finish(std::size_t index, double now) {
  if (config_.record_replay) {
    result_.replay.push_back(ReplayEvent{now, ReplayEventType::kFinish,
                                         workload_.jobs[index].id, -1,
                                         clock_[index].entry});
  }
  Event complete;
  complete.kind = EventKind::kComplete;
  complete.time = now;
  complete.job = index;
  handle(complete);

  JobOutcome outcome = service_.last_outcome();
  outcome.id = workload_.jobs[index].id;
  max_finish_ = std::max(max_finish_, now);
  result_.wait_stats.add(outcome.wait());
  result_.response_stats.add(outcome.response());
  result_.slowdown_stats.add(bounded_slowdown(outcome, config_.metrics));
  if (config_.collect_outcomes) result_.outcomes.push_back(outcome);
}

void Simulation::fail(int node, double now) {
  if (config_.record_replay) {
    result_.replay.push_back(
        ReplayEvent{now, ReplayEventType::kNodeFailure, 0, node, -1});
  }
  const bool down = config_.failure_semantics == FailureSemantics::kDownFor &&
                    config_.node_downtime > 0.0;
  if (down) {
    // A failure of a node that is already down extends its down-time; the
    // earlier expiry event then finds it still down and is ignored.
    down_.set(node);
    auto& until = down_until_[static_cast<std::size_t>(node)];
    until = std::max(until, now + config_.node_downtime);
    events_.push(bgl::Event{now + config_.node_downtime, EventType::kCustom,
                            static_cast<std::uint64_t>(node), 0, 0});
  }
  Event f;
  f.kind = EventKind::kFail;
  f.time = now;
  f.node = node;
  f.down = down;
  handle(f);
}

SimResult Simulation::run() {
  const std::size_t total = workload_.jobs.size();
  if (total == 0) return result_;

  min_arrival_ = workload_.jobs.front().arrival;
  for (std::size_t i = 0; i < total; ++i) {
    min_arrival_ = std::min(min_arrival_, workload_.jobs[i].arrival);
    events_.push(bgl::Event{workload_.jobs[i].arrival, EventType::kArrival,
                            static_cast<std::uint64_t>(i), 0, 0});
  }
  for (const FailureEvent& f : trace_.events()) {
    events_.push(bgl::Event{f.time, EventType::kFailure,
                            static_cast<std::uint64_t>(f.node), 0, 0});
  }
  integrator_.start(min_arrival_, service_.catalog().num_nodes(), 0);
  StreamCensus census;
  census.jobs = static_cast<std::int64_t>(total);
  census.failure_events = static_cast<std::int64_t>(trace_.size());
  if (config_.event_queue != EventQueueKind::kCalendar) {
    census.event_queue = to_string(config_.event_queue);
  }
  service_.announce(census);

  obs::CounterRegistry* ct = config_.obs.counters;
  while (!events_.empty() && service_.stats().finished < total) {
    const bgl::Event e = events_.pop();
    // One des.event span per popped event; the service's svc.event span and
    // the scheduler passes it triggers nest under it.
    obs::ScopedPhase des_span(config_.obs.profiler, obs::Phase::kDesEvent);
    if (ct != nullptr) ct->add(obs::Counter::kDriverEvents);
    // Failure events may precede the first arrival; the capacity integral's
    // lower bound is min(t_a) (§6.1), so only advance from there on. State
    // changes they cause (e.g. a node going down) still update f(t) below.
    if (e.time >= min_arrival_) integrator_.advance(e.time);
    decisions_.clear();

    const std::size_t job = static_cast<std::size_t>(e.id);
    switch (e.type) {
      case EventType::kArrival:
        arrive(job, e.time);
        break;
      case EventType::kFinish:
        if (clock_[job].gen != e.tag) continue;  // the run was killed
        finish(job, e.time);
        break;
      case EventType::kFailure:
        fail(static_cast<int>(e.id), e.time);
        break;
      case EventType::kCustom: {
        // Down-time expiry; stale when a later failure extended it.
        const int node = static_cast<int>(e.id);
        if (!down_.test(node) ||
            e.time + 1e-9 < down_until_[static_cast<std::size_t>(node)]) {
          continue;
        }
        down_.reset(node);
        Event repair;
        repair.kind = EventKind::kRepair;
        repair.time = e.time;
        repair.node = node;
        handle(repair);
        break;
      }
      case EventType::kCheckpoint:
        continue;  // checkpoints are modelled analytically; no discrete events
    }
    apply_decisions(e.time);
    integrator_.set_queued(service_.queued_demand());
    integrator_.set_free(service_.usable_free_nodes());
  }

  const ServiceStats& st = service_.stats();
  BGL_CHECK(st.finished == total,
            "simulation ended with unfinished jobs (deadlock?)");
  service_.finish_stream();

  result_.jobs_completed = st.finished;
  result_.job_kills = st.kills;
  result_.avoidable_kills = st.avoidable_kills;
  result_.starts_on_flagged = st.starts_on_flagged;
  result_.flagged_with_alternative = st.flagged_with_alternative;
  result_.failures_hitting_jobs = st.failures_hitting_jobs;
  result_.failures_total = st.failures;
  result_.migrations = st.migrations;
  result_.checkpoints_taken = st.checkpoints;
  result_.work_lost_node_seconds = st.work_lost_node_seconds;
  if (ct != nullptr) {
    ct->add(obs::Counter::kDriverFailures, st.failures);
    ct->add(obs::Counter::kDriverKills, st.kills);
    ct->add(obs::Counter::kDriverCheckpoints, st.checkpoints);
  }

  result_.span = max_finish_ - min_arrival_;
  result_.avg_wait = result_.wait_stats.mean();
  result_.avg_response = result_.response_stats.mean();
  result_.avg_bounded_slowdown = result_.slowdown_stats.mean();
  const double tn =
      result_.span * static_cast<double>(service_.catalog().num_nodes());
  if (tn > 0.0) {
    double useful = 0.0;
    for (std::size_t i = 0; i < total; ++i) {
      useful += static_cast<double>(size_of(i)) * workload_.jobs[i].runtime;
    }
    result_.utilization = useful / tn;
    result_.unused = integrator_.unused_integral() / tn;
    result_.lost = 1.0 - result_.utilization - result_.unused;
  }
  return result_;
}

}  // namespace
}  // namespace bgl::svc

namespace bgl {

SimResult run_simulation(const Workload& workload, const FailureTrace& trace,
                         const SimConfig& config,
                         const PartitionCatalog* shared_catalog) {
  validate(config.dims);
  const auto t_begin = std::chrono::steady_clock::now();
  svc::Simulation simulation(workload, trace, config, shared_catalog);
  SimResult result = simulation.run();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return result;
}

SimResult run_experiment(const ExperimentSpec& spec,
                         const PartitionCatalog* shared_catalog) {
  const ExperimentInputs inputs = prepare_inputs(spec);
  return run_simulation(inputs.workload, inputs.trace, spec.sim, shared_catalog);
}

}  // namespace bgl
