// The discrete-event simulator: the clock that drives SchedulerService.
//
// run_simulation (declared in sim/driver.hpp) and run_experiment (declared
// in sim/experiment.hpp) are defined here. They own only what a clock
// needs: the pending-event set (arrivals, finishes, failures, down-time
// expiries), finish times from SchedulerService::remaining_work, stale-event
// filtering, the replay log and the outcome list. Every decision, the
// checkpoint model's work accounting, every trace line and every §6.1
// aggregate (SchedulerService::summary) come from the service, so the
// simulator and a live sched_server share one scheduling core and one set
// of books.
//
// Each popped event is one `des.event` profiler span; the service's
// `svc.event` span (and the scheduler passes under it) nests inside, so
// des.event self time is the clock side and svc.event self time the
// decision side. The driver.* counters (events, failures, kills,
// checkpoints) are counted here.
#include <algorithm>
#include <chrono>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "des/event_queue.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "svc/service.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bgl::svc {

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
        service_(config, &trace, shared_catalog),
        clock_(workload.jobs.size()),
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
  std::vector<JobOutcome> outcomes_;
  std::vector<ReplayEvent> replay_;
  std::vector<double> down_until_;  ///< Repair time of each down node.
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
      replay_.push_back(
          ReplayEvent{now, type, workload_.jobs[idx].id, -1, d.entry});
    }
  }
}

void Simulation::arrive(std::size_t index, double now) {
  if (config_.record_replay) {
    replay_.push_back(ReplayEvent{now, ReplayEventType::kArrival,
                                  workload_.jobs[index].id, -1, -1});
  }
  const Job& j = workload_.jobs[index];
  Event submit;
  submit.kind = EventKind::kSubmit;
  submit.time = now;
  // Workload indices, not job numbers: those are only unique per log, not
  // across merged logs.
  submit.job = index;
  submit.size = std::min(j.size, config_.dims.volume());  // see constructor
  submit.estimate = j.estimate;
  submit.runtime = j.runtime;
  handle(submit);
}

void Simulation::finish(std::size_t index, double now) {
  if (config_.record_replay) {
    replay_.push_back(ReplayEvent{now, ReplayEventType::kFinish,
                                  workload_.jobs[index].id, -1,
                                  clock_[index].entry});
  }
  Event complete;
  complete.kind = EventKind::kComplete;
  complete.time = now;
  complete.job = index;
  handle(complete);

  if (config_.collect_outcomes) {
    outcomes_.push_back(service_.last_outcome());
    outcomes_.back().id = workload_.jobs[index].id;
  }
}

void Simulation::fail(int node, double now) {
  if (config_.record_replay) {
    replay_.push_back(
        ReplayEvent{now, ReplayEventType::kNodeFailure, 0, node, -1});
  }
  const bool down = config_.failure_semantics == FailureSemantics::kDownFor &&
                    config_.node_downtime > 0.0;
  if (down) {
    // A failure of a node that is already down extends its down-time; the
    // earlier expiry event then finds it still down and is ignored.
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
  for (std::size_t i = 0; i < total; ++i) {
    events_.push(bgl::Event{workload_.jobs[i].arrival, EventType::kArrival,
                            static_cast<std::uint64_t>(i), 0, 0});
  }
  for (const FailureEvent& f : trace_.events()) {
    events_.push(bgl::Event{f.time, EventType::kFailure,
                            static_cast<std::uint64_t>(f.node), 0, 0});
  }
  StreamCensus census;
  census.jobs = static_cast<std::int64_t>(total);
  census.failure_events = static_cast<std::int64_t>(trace_.size());
  service_.announce(census);

  obs::CounterRegistry* ct = config_.obs.counters;
  while (!events_.empty() && service_.stats().finished < total) {
    const bgl::Event e = events_.pop();
    // One des.event span per popped event; the service's svc.event span and
    // the scheduler passes it triggers nest under it.
    obs::ScopedPhase des_span(config_.obs.profiler, obs::Phase::kDesEvent);
    if (ct != nullptr) ct->add(obs::Counter::kDriverEvents);
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
        if (!service_.is_down(node) ||
            e.time + 1e-9 < down_until_[static_cast<std::size_t>(node)]) {
          continue;
        }
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
  }

  const ServiceStats& st = service_.stats();
  BGL_CHECK(st.finished == total,
            "simulation ended with unfinished jobs (deadlock?)");
  service_.finish_stream();
  if (ct != nullptr) {
    ct->add(obs::Counter::kDriverFailures, st.failures);
    ct->add(obs::Counter::kDriverKills, st.kills);
    ct->add(obs::Counter::kDriverCheckpoints, st.checkpoints);
  }

  SimResult result = service_.summary();
  result.outcomes = std::move(outcomes_);
  result.replay = std::move(replay_);
  return result;
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
