// Frozen-result tests of run_simulation, the DES loop that drives
// SchedulerService (src/svc/sim_adapter.cpp). Every digest below was
// recorded from the simulator's standalone event loop before the simulator
// was routed through the service; run_simulation must keep reproducing
// them bit for bit (sim_result_checksum covers every count and the bit
// patterns of every aggregate double) for every scheduler × algorithm
// pairing and for the clock-side feature variants (down-time semantics,
// queue orders, event queues, checkpointing).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "failure/generator.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "workload/synthetic.hpp"
#include "workload/transform.hpp"

namespace bgl {
namespace {

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

const Inputs& small_inputs() {
  static const Inputs in = [] {
    SyntheticModel model = SyntheticModel::sdsc();
    model.num_jobs = 350;
    Inputs i;
    i.workload = generate_workload(model, 91);
    i.workload = rescale_sizes(i.workload, Dims::bluegene_l().volume());
    const double span = i.workload.arrival_span() * 1.05 + 2.0 * 48.0 * 3600.0;
    i.trace = generate_failures(FailureModel::bluegene_l(80, span), 91 ^ 0xfa17);
    return i;
  }();
  return in;
}

void expect_frozen(const SimConfig& config, std::uint64_t frozen,
                   const std::string& label) {
  const Inputs& in = small_inputs();
  const SimResult r = run_simulation(in.workload, in.trace, config);
  EXPECT_EQ(sim_result_checksum(r), frozen)
      << label << ": {jobs " << r.jobs_completed << ", util " << r.utilization
      << ", kills " << r.job_kills << "}";
  EXPECT_EQ(r.jobs_completed, in.workload.jobs.size()) << label;
}

constexpr SchedulerKind kSchedulers[] = {
    SchedulerKind::kKrevat, SchedulerKind::kBalancing, SchedulerKind::kTieBreak};
constexpr SchedAlgorithm kAlgorithms[] = {
    SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
    SchedAlgorithm::kConservative, SchedAlgorithm::kEasyHoldback};

TEST(SvcSimAdapter, FrozenAcrossSchedulersAndAlgorithms) {
  // [scheduler][algorithm], in kSchedulers × kAlgorithms order.
  constexpr std::uint64_t kFrozen[3][4] = {
      {0x0253734aa5126296ull, 0x0253734aa5126296ull, 0x86129290dc9577d6ull,
       0x144bbf69f5f1a078ull},
      {0x505d3400ce42833cull, 0x505d3400ce42833cull, 0x4f38d7f0c1a15e58ull,
       0x420d7089c38bd43cull},
      {0x356619af109f9205ull, 0x356619af109f9205ull, 0x1fed173ed22e0e33ull,
       0x99d3a894fdf6ca2cull},
  };
  for (int s = 0; s < 3; ++s) {
    for (int a = 0; a < 4; ++a) {
      SimConfig config;
      config.scheduler = kSchedulers[s];
      config.sched.algorithm = kAlgorithms[a];
      config.alpha = 0.3;
      config.seed = 17;
      expect_frozen(config, kFrozen[s][a],
                    std::string(to_string(kSchedulers[s])) + "/" +
                        to_string(kAlgorithms[a]));
    }
  }
}

// The adaptive predictor is the one model whose entire state is built from
// the observation feed, so these digests pin the observation sequence the
// service delivers: any ordering or filtering change in the fail/repair/
// advance feed changes its flags and therefore the decisions.
TEST(SvcSimAdapter, FrozenWithAdaptivePredictor) {
  constexpr std::uint64_t kFrozen[3][4] = {
      {0x3ea6457683565201ull, 0x3ea6457683565201ull, 0x054c4b7adb995799ull,
       0x3cb6dadeebbc7925ull},
      {0x59fd760f5b0bb763ull, 0x59fd760f5b0bb763ull, 0x179b4583c5c7d0eaull,
       0xb1820c92cffe1b68ull},
      {0x188aa7ff41beb67cull, 0x188aa7ff41beb67cull, 0x9e7ba219ce6ff43bull,
       0xdaca1b0dba71d016ull},
  };
  for (int s = 0; s < 3; ++s) {
    for (int a = 0; a < 4; ++a) {
      SimConfig config;
      config.scheduler = kSchedulers[s];
      config.sched.algorithm = kAlgorithms[a];
      config.predictor_model = PredictorModel::kAdaptive;
      config.alpha = 0.3;
      config.seed = 17;
      expect_frozen(config, kFrozen[s][a],
                    std::string("adaptive/") + to_string(kSchedulers[s]) +
                        "/" + to_string(kAlgorithms[a]));
    }
  }
}

TEST(SvcSimAdapter, FrozenWithAdaptivePredictorUnderDowntime) {
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.predictor_model = PredictorModel::kAdaptive;
  config.alpha = 0.4;
  config.failure_semantics = FailureSemantics::kDownFor;
  config.node_downtime = 4.0 * 3600.0;
  expect_frozen(config, 0x196679a06d78d35bull, "adaptive/downfor");
}

TEST(SvcSimAdapter, FrozenWithDowntimeSemantics) {
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  config.failure_semantics = FailureSemantics::kDownFor;
  config.node_downtime = 4.0 * 3600.0;
  expect_frozen(config, 0xe42f1a56ccf0e263ull, "downfor");
}

TEST(SvcSimAdapter, FrozenWithCheckpointing) {
  SimConfig config;
  config.scheduler = SchedulerKind::kKrevat;
  config.ckpt.enabled = true;
  config.ckpt.interval = 3600.0;
  expect_frozen(config, 0xa410d1dbcfe93389ull, "checkpointing");
}

TEST(SvcSimAdapter, FrozenAcrossQueueOrders) {
  const struct {
    QueueOrder order;
    std::uint64_t frozen;
  } cases[] = {{QueueOrder::kShortestJobFirst, 0xc9686061af015e80ull},
               {QueueOrder::kSmallestJobFirst, 0xe016785ebed55bbcull}};
  for (const auto& c : cases) {
    SimConfig config;
    config.scheduler = SchedulerKind::kKrevat;
    config.queue_order = c.order;
    expect_frozen(config, c.frozen,
                  std::string("queue-order ") + to_string(c.order));
  }
}

// The tie-breaking scheduler at a = 0.5. This digest was recorded through
// a binary-heap event queue and catalog scans, so it also pins that the
// calendar queue and the free-partition index change no decision.
TEST(SvcSimAdapter, FrozenWithTieBreakAtHalfAccuracy) {
  SimConfig config;
  config.scheduler = SchedulerKind::kTieBreak;
  config.alpha = 0.5;
  expect_frozen(config, 0x990bef2b9f128326ull, "tie-break a=0.5");
}

TEST(SvcSimAdapter, FrozenWithNoMigrationAndNoBackfill) {
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  config.sched.migration = false;
  config.sched.backfill = BackfillMode::kNone;
  expect_frozen(config, 0x5345cfe4b564beb3ull, "no-migration/no-backfill");
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h * 1315423911ull + v + 1;
}
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t as_u64(int v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

TEST(SvcSimAdapter, OutcomesAndReplayMatchFrozenDigests) {
  const Inputs& in = small_inputs();
  SimConfig config;
  config.scheduler = SchedulerKind::kKrevat;
  config.collect_outcomes = true;
  config.record_replay = true;
  const SimResult r = run_simulation(in.workload, in.trace, config);

  std::uint64_t outcomes = 0;
  for (const JobOutcome& o : r.outcomes) {
    outcomes = mix(outcomes, o.id);
    outcomes = mix(outcomes, bits(o.first_start));
    outcomes = mix(outcomes, bits(o.last_start));
    outcomes = mix(outcomes, bits(o.finish));
    outcomes = mix(outcomes, as_u64(o.restarts));
  }
  std::uint64_t replay = 0;
  for (const ReplayEvent& e : r.replay) {
    replay = mix(replay, bits(e.time));
    replay = mix(replay, static_cast<std::uint64_t>(e.type));
    replay = mix(replay, e.job_id);
    replay = mix(replay, as_u64(e.node));
    replay = mix(replay, as_u64(e.entry_index));
  }
  EXPECT_EQ(r.outcomes.size(), 350u);
  EXPECT_EQ(outcomes, 0xbfdb0e2c8211dcd1ull);
  EXPECT_EQ(r.replay.size(), 1154u);
  EXPECT_EQ(replay, 0x366bf8c98d5a1ed2ull);
  EXPECT_EQ(sim_result_checksum(r), 0x0253734aa5126296ull);
}

// The service owns every §6.1 aggregate, so the sim_end trace line and the
// SimResult are two views of one set of books. A run with down-time and
// checkpointing has stale finish and expiry events the clock drops; they
// must leave no trace in either view.
TEST(SvcSimAdapter, SimEndAgreesWithSimResult) {
  const Inputs& in = small_inputs();
  SimConfig config;
  config.failure_semantics = FailureSemantics::kDownFor;
  config.node_downtime = 4.0 * 3600.0;
  config.ckpt.enabled = true;
  config.ckpt.interval = 3600.0;
  std::ostringstream trace;
  obs::TraceSink sink(trace);
  config.obs.trace = &sink;
  const SimResult r = run_simulation(in.workload, in.trace, config);
  ASSERT_GT(r.job_kills, 0u);

  std::istringstream lines(trace.str());
  obs::TraceReader reader(lines);
  obs::TraceRecord record;
  std::optional<obs::SimEndEvent> end;
  while (reader.next(record)) {
    if (record.type() == obs::EventType::kSimEnd) {
      end = obs::SimEndEvent::from(record);
    }
  }
  ASSERT_TRUE(end.has_value());

  EXPECT_EQ(bits(end->span), bits(r.span));
  EXPECT_EQ(bits(end->utilization), bits(r.utilization));
  EXPECT_EQ(bits(end->unused), bits(r.unused));
  EXPECT_EQ(bits(end->lost), bits(r.lost));
  EXPECT_EQ(bits(end->work_lost_node_seconds), bits(r.work_lost_node_seconds));
  EXPECT_EQ(end->jobs_completed, static_cast<std::int64_t>(r.jobs_completed));
  EXPECT_EQ(end->job_kills, static_cast<std::int64_t>(r.job_kills));
  EXPECT_EQ(end->migrations, static_cast<std::int64_t>(r.migrations));
  EXPECT_EQ(end->checkpoints, static_cast<std::int64_t>(r.checkpoints_taken));
  auto sum_mean = [](const RunningStats& s) {
    return s.sum() / static_cast<double>(s.count());
  };
  EXPECT_EQ(bits(end->avg_wait), bits(sum_mean(r.wait_stats)));
  EXPECT_EQ(bits(end->avg_response), bits(sum_mean(r.response_stats)));
  EXPECT_EQ(bits(end->avg_bounded_slowdown), bits(sum_mean(r.slowdown_stats)));
}

}  // namespace
}  // namespace bgl
