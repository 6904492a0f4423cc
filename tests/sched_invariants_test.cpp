// Property tests: on randomized torus states and queues, every scheduler
// decision must satisfy the structural invariants of §3.3 — no overlap, no
// double starts, FCFS integrity, migration size preservation — regardless
// of policy, predictor quality, or configuration.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "failure/generator.hpp"
#include "sched/scheduler.hpp"
#include "sim/driver.hpp"  // SchedulerKind
#include "util/rng.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

struct Scenario {
  std::vector<WaitingJob> queue;
  std::vector<RunningJob> running;
  NodeSet occupied{128};
  double now = 1000.0;
};

/// Build a random consistent scenario: some running jobs on disjoint
/// partitions, some waiting jobs with valid alloc sizes.
Scenario random_scenario(Rng& rng) {
  Scenario sc;
  // Running jobs: repeatedly pick a random free entry.
  const int num_running = static_cast<int>(rng.uniform_int(0, 6));
  std::uint64_t next_id = 1;
  for (int i = 0; i < num_running; ++i) {
    const int size = catalog().allocatable_size(
        static_cast<int>(rng.uniform_int(1, 64)));
    std::vector<int> free;
    catalog().free_entries_of_size(sc.occupied, size, free);
    if (free.empty()) continue;
    const int entry = free[static_cast<std::size_t>(
        rng.uniform_int(0, free.size() - 1))];
    sc.occupied |= catalog().entry(entry).mask;
    sc.running.push_back(RunningJob{next_id++, entry,
                                    sc.now + rng.uniform(60.0, 7200.0)});
  }
  const int num_waiting = static_cast<int>(rng.uniform_int(1, 10));
  for (int i = 0; i < num_waiting; ++i) {
    const int requested = static_cast<int>(rng.uniform_int(1, 128));
    const int alloc = catalog().allocatable_size(requested);
    sc.queue.push_back(WaitingJob{next_id++, requested, alloc,
                                  rng.uniform(30.0, 36000.0)});
  }
  return sc;
}

struct InvariantCase {
  SchedulerKind kind;
  double alpha;
  BackfillMode backfill;
  bool migration;
  std::uint64_t seed;
};

// gtest shows a struct parameter as its bytes, padding included, and the
// padding is uninitialised: the suite's name generator and this printer
// keep the test names (which gtest_discover_tests builds from both) stable
// from build to build.
void PrintTo(const InvariantCase& c, std::ostream* os) {
  *os << '{' << to_string(c.kind) << ", alpha " << c.alpha << ", "
      << to_string(c.backfill) << (c.migration ? ", migration" : "")
      << ", seed " << c.seed << '}';
}

class SchedulerInvariants : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(SchedulerInvariants, HoldOnRandomScenarios) {
  const InvariantCase param = GetParam();
  Rng rng(param.seed);

  FailureModel fm = FailureModel::bluegene_l(300, 30.0 * 86400.0);
  const FailureTrace trace = generate_failures(fm, param.seed);

  std::unique_ptr<FaultPredictor> predictor;
  switch (param.kind) {
    case SchedulerKind::kKrevat:
      predictor = std::make_unique<NullPredictor>(128);
      break;
    case SchedulerKind::kBalancing:
      predictor = std::make_unique<BalancingPredictor>(trace, param.alpha);
      break;
    case SchedulerKind::kTieBreak:
      predictor = std::make_unique<TieBreakPredictor>(trace, param.alpha);
      break;
  }
  SchedulerConfig config;
  config.backfill = param.backfill;
  config.migration = param.migration;
  std::unique_ptr<Scheduler> scheduler;
  switch (param.kind) {
    case SchedulerKind::kKrevat:
      scheduler = make_krevat_scheduler(catalog(), *predictor, config);
      break;
    case SchedulerKind::kBalancing:
      scheduler = make_balancing_scheduler(catalog(), *predictor, config);
      break;
    case SchedulerKind::kTieBreak:
      scheduler = make_tiebreak_scheduler(catalog(), *predictor, config);
      break;
  }

  for (int trial = 0; trial < 40; ++trial) {
    const Scenario sc = random_scenario(rng);
    // Each pass advances its index in place, so each gets a fresh one.
    FreePartitionIndex index(catalog());
    index.occupy(sc.occupied);
    const SchedulingDecision decision =
        scheduler->schedule(sc.now, sc.queue, sc.running, index);

    // Determinism: identical inputs give identical decisions.
    FreePartitionIndex again_index(catalog());
    again_index.occupy(sc.occupied);
    const SchedulingDecision again =
        scheduler->schedule(sc.now, sc.queue, sc.running, again_index);
    ASSERT_EQ(decision.starts.size(), again.starts.size());
    for (std::size_t i = 0; i < decision.starts.size(); ++i) {
      EXPECT_EQ(decision.starts[i].id, again.starts[i].id);
      EXPECT_EQ(decision.starts[i].entry_index, again.starts[i].entry_index);
    }

    // Apply migrations to compute the post-migration running masks.
    std::vector<int> entries_after;
    for (const RunningJob& r : sc.running) entries_after.push_back(r.entry_index);
    std::set<std::uint64_t> running_ids;
    for (const RunningJob& r : sc.running) running_ids.insert(r.id);
    for (const Migration& m : decision.migrations) {
      EXPECT_TRUE(running_ids.count(m.id)) << "migration of non-running job";
      EXPECT_EQ(catalog().entry(m.from_entry).size, catalog().entry(m.to_entry).size)
          << "migration changed partition size";
      for (std::size_t i = 0; i < sc.running.size(); ++i) {
        if (sc.running[i].id == m.id) {
          EXPECT_EQ(entries_after[i], m.from_entry) << "stale migration source";
          entries_after[i] = m.to_entry;
        }
      }
    }

    // Post-migration running partitions must be pairwise disjoint.
    NodeSet occ_after(128);
    for (const int entry : entries_after) {
      EXPECT_FALSE(catalog().entry(entry).mask.intersects(occ_after));
      occ_after |= catalog().entry(entry).mask;
    }

    // Starts: unique waiting ids, allocation size honoured, disjoint from
    // everything placed so far.
    std::set<std::uint64_t> started;
    std::set<std::uint64_t> waiting_ids;
    for (const WaitingJob& w : sc.queue) waiting_ids.insert(w.id);
    for (const Start& s : decision.starts) {
      EXPECT_TRUE(waiting_ids.count(s.id)) << "start of unknown job";
      EXPECT_TRUE(started.insert(s.id).second) << "job started twice";
      const auto& entry = catalog().entry(s.entry_index);
      const WaitingJob* job = nullptr;
      for (const WaitingJob& w : sc.queue) {
        if (w.id == s.id) job = &w;
      }
      ASSERT_NE(job, nullptr);
      EXPECT_EQ(entry.size, job->alloc_size);
      EXPECT_FALSE(entry.mask.intersects(occ_after)) << "overlapping start";
      occ_after |= entry.mask;
    }

    // The pass leaves its index at exactly the post-decision occupancy.
    EXPECT_EQ(index.occupied(), occ_after) << "index not advanced in place";

    // FCFS integrity without backfill: started ids form a queue prefix.
    if (param.backfill == BackfillMode::kNone) {
      for (std::size_t i = 0; i < decision.starts.size(); ++i) {
        EXPECT_EQ(decision.starts[i].id, sc.queue[i].id)
            << "non-prefix start without backfill";
      }
    }

    // The head job must start whenever it fits under the original occupancy.
    if (!decision.starts.empty() || true) {
      std::vector<int> head_candidates;
      catalog().free_entries_of_size(sc.occupied, sc.queue.front().alloc_size,
                                     head_candidates);
      if (!head_candidates.empty()) {
        ASSERT_FALSE(decision.starts.empty()) << "placeable head job not started";
        EXPECT_EQ(decision.starts.front().id, sc.queue.front().id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, SchedulerInvariants,
    ::testing::Values(
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kEasy, true, 1},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kNone, false, 2},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kConservative, false, 3},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kNone, true, 4},
        InvariantCase{SchedulerKind::kBalancing, 0.1, BackfillMode::kEasy, true, 5},
        InvariantCase{SchedulerKind::kBalancing, 0.9, BackfillMode::kConservative, true, 6},
        InvariantCase{SchedulerKind::kBalancing, 0.5, BackfillMode::kNone, false, 7},
        InvariantCase{SchedulerKind::kTieBreak, 0.1, BackfillMode::kEasy, true, 8},
        InvariantCase{SchedulerKind::kTieBreak, 0.9, BackfillMode::kConservative, false, 9},
        InvariantCase{SchedulerKind::kTieBreak, 0.5, BackfillMode::kNone, true, 10}),
    [](const ::testing::TestParamInfo<InvariantCase>& info) {
      const InvariantCase& c = info.param;
      std::string kind = to_string(c.kind);
      std::erase(kind, '-');  // gtest names are [A-Za-z0-9_]
      return kind + "_" + to_string(c.backfill) +
             (c.migration ? "_migration" : "_nomigration") + "_seed" +
             std::to_string(c.seed);
    });

}  // namespace
}  // namespace bgl
