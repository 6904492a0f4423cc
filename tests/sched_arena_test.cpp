// PlacementArena / ArenaVector (src/sched/arena.hpp), the scheduler's
// pooled per-pass scratch: bump allocation semantics and reset reuse, and
// the engine-level contract that the pooled scratch is purely a cache — a
// Scheduler that has already run many passes decides exactly what a fresh
// one decides.
#include "sched/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "failure/trace.hpp"
#include "obs/trace.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "torus/index.hpp"

namespace bgl {
namespace {

TEST(PlacementArena, AllocatesAlignedDistinctBlocks) {
  PlacementArena arena;
  EXPECT_EQ(arena.reserved_bytes(), 0u);  // lazy: no chunk until first use

  int* a = arena.alloc<int>(10);
  double* b = arena.alloc<double>(4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(int), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);

  // Blocks do not overlap: writes through one stay invisible to the other.
  for (int i = 0; i < 10; ++i) a[i] = i;
  for (int i = 0; i < 4; ++i) b[i] = -1.0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a[i], i);
  EXPECT_GT(arena.reserved_bytes(), 0u);
}

TEST(PlacementArena, ResetReusesCapacityWithoutGrowth) {
  PlacementArena arena;
  (void)arena.alloc<std::uint64_t>(1000);
  const std::size_t reserved = arena.reserved_bytes();
  for (int pass = 0; pass < 50; ++pass) {
    arena.reset();
    (void)arena.alloc<std::uint64_t>(1000);
  }
  // Steady state: the same pass re-run after reset() allocates no new heap.
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(PlacementArena, GrowsBeyondFirstChunk) {
  PlacementArena arena;
  // Far more than the 64 KiB first chunk; spans several doubling chunks.
  char* big = arena.alloc<char>(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 'x';
  big[(1 << 20) - 1] = 'y';
  EXPECT_GE(arena.reserved_bytes(), static_cast<std::size_t>(1 << 20));
}

TEST(ArenaVector, PushBackGrowthPreservesContents) {
  PlacementArena arena;
  ArenaVector<int> v(arena);
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) v.push_back(i);  // many regrowths
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);

  const std::span<const int> view = v;
  EXPECT_EQ(view.size(), 1000u);
  EXPECT_EQ(std::accumulate(view.begin(), view.end(), 0), 999 * 1000 / 2);
}

TEST(ArenaVector, AssignAndClear) {
  PlacementArena arena;
  ArenaVector<char> v(arena);
  v.assign(64, 0);
  ASSERT_EQ(v.size(), 64u);
  for (const char c : v) EXPECT_EQ(c, 0);
  v[5] = 1;
  v.clear();
  EXPECT_TRUE(v.empty());
  v.assign(8, 2);
  ASSERT_EQ(v.size(), 8u);
  for (const char c : v) EXPECT_EQ(c, 2);
}

struct Scenario {
  double now = 0.0;
  std::vector<RunningJob> running;
  NodeSet occupied;
  std::vector<WaitingJob> queue;
};

/// A random machine state on `cat`: running jobs on disjoint partitions,
/// sometimes a few down nodes no job holds, and a queue whose length (and
/// so the scratch it needs) varies from pass to pass.
Scenario make_scenario(const PartitionCatalog& cat, std::mt19937_64& rng) {
  Scenario sc;
  sc.now = std::uniform_real_distribution<double>(0.0, 1e4)(rng);
  sc.occupied = NodeSet(cat.num_nodes());
  std::uniform_int_distribution<int> entry_dist(0, cat.num_entries() - 1);
  const int n_running = std::uniform_int_distribution<int>(0, 8)(rng);
  std::uint64_t id = 1000;
  for (int i = 0; i < n_running; ++i) {
    for (int tries = 0; tries < 32; ++tries) {
      const int e = entry_dist(rng);
      if (cat.entry(e).size > cat.num_nodes() / 2) continue;
      if (sc.occupied.intersects(cat.entry(e).mask)) continue;
      sc.occupied |= cat.entry(e).mask;
      sc.running.push_back(RunningJob{
          id++, e,
          sc.now + std::uniform_real_distribution<double>(10.0, 5e3)(rng)});
      break;
    }
  }
  if (std::bernoulli_distribution(0.3)(rng)) {
    std::uniform_int_distribution<int> node(0, cat.num_nodes() - 1);
    for (int i = 0; i < 4; ++i) sc.occupied.set(node(rng));
  }
  const int n_queue = std::uniform_int_distribution<int>(1, 24)(rng);
  for (int j = 0; j < n_queue; ++j) {
    int size = cat.entry(entry_dist(rng)).size;
    // Bias the head toward a large blocker, so backfill and migration run.
    if (j == 0 && std::bernoulli_distribution(0.6)(rng)) {
      size = std::max(size, cat.allocatable_size(cat.num_nodes() / 2));
    }
    sc.queue.push_back(WaitingJob{
        static_cast<std::uint64_t>(j), size, size,
        std::uniform_real_distribution<double>(50.0, 5e3)(rng)});
  }
  return sc;
}

void expect_same_decision(const SchedulingDecision& a,
                          const SchedulingDecision& b,
                          const std::string& label) {
  ASSERT_EQ(a.starts.size(), b.starts.size()) << label;
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    EXPECT_EQ(a.starts[i].id, b.starts[i].id) << label;
    EXPECT_EQ(a.starts[i].entry_index, b.starts[i].entry_index) << label;
  }
  ASSERT_EQ(a.migrations.size(), b.migrations.size()) << label;
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].id, b.migrations[i].id) << label;
    EXPECT_EQ(a.migrations[i].from_entry, b.migrations[i].from_entry) << label;
    EXPECT_EQ(a.migrations[i].to_entry, b.migrations[i].to_entry) << label;
  }
  EXPECT_EQ(a.starts_on_flagged, b.starts_on_flagged) << label;
  EXPECT_EQ(a.flagged_with_alternative, b.flagged_with_alternative) << label;
  ASSERT_EQ(a.placements.size(), b.placements.size()) << label;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const PlacementRecord& pa = a.placements[i];
    const PlacementRecord& pb = b.placements[i];
    EXPECT_EQ(pa.id, pb.id) << label;
    EXPECT_EQ(pa.entry_index, pb.entry_index) << label;
    EXPECT_EQ(pa.candidates, pb.candidates) << label;
    EXPECT_EQ(pa.flags_in_chosen, pb.flags_in_chosen) << label;
    EXPECT_EQ(pa.l_mfp, pb.l_mfp) << label;
    EXPECT_EQ(pa.l_pf, pb.l_pf) << label;
    EXPECT_EQ(pa.e_loss, pb.e_loss) << label;
    EXPECT_EQ(pa.mfp_after, pb.mfp_after) << label;
    EXPECT_EQ(pa.backfill, pb.backfill) << label;
    EXPECT_EQ(pa.res_time, pb.res_time) << label;
    EXPECT_EQ(pa.res_entry, pb.res_entry) << label;
  }
  ASSERT_EQ(a.reservations.size(), b.reservations.size()) << label;
  for (std::size_t i = 0; i < a.reservations.size(); ++i) {
    EXPECT_EQ(a.reservations[i].id, b.reservations[i].id) << label;
    EXPECT_EQ(a.reservations[i].time, b.reservations[i].time) << label;
    EXPECT_EQ(a.reservations[i].entry_index, b.reservations[i].entry_index)
        << label;
  }
}

std::unique_ptr<PlacementPolicy> make_policy(int which) {
  switch (which) {
    case 0: return std::make_unique<MfpLossPolicy>();
    case 1: return std::make_unique<BalancingPolicy>();
    default: return std::make_unique<TieBreakPolicy>();
  }
}

/// Drive one long-lived Scheduler per (policy, algorithm) through
/// `scenarios` random passes and hold every decision — including the
/// traced placement and reservation trail and the post-pass index — equal
/// to a fresh Scheduler's on the same input. Returns the number of
/// migrations and backfill placements seen, so callers can require that
/// the paths which use the arena most actually ran.
std::pair<int, int> warm_matches_fresh(const PartitionCatalog& cat,
                                       std::uint64_t seed, int scenarios) {
  // A deterministic (confidence 1) predictor: a coin-flip one draws from
  // internal RNG state that the warm and fresh engines cannot share.
  std::vector<FailureEvent> failures;
  std::mt19937_64 frng(seed ^ 0xFA11u);
  std::uniform_int_distribution<int> node(0, cat.num_nodes() - 1);
  for (int i = 0; i < 24; ++i) {
    failures.push_back(FailureEvent{500.0 * (i + 1), node(frng)});
  }
  const FailureTrace trace(std::move(failures), cat.num_nodes());
  const BalancingPredictor predictor(trace, 1.0);

  int migrations = 0;
  int backfills = 0;
  for (int policy = 0; policy < 3; ++policy) {
    for (const SchedAlgorithm algorithm :
         {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
          SchedAlgorithm::kConservative, SchedAlgorithm::kEasyHoldback}) {
      SchedulerConfig config;
      config.algorithm = algorithm;
      config.migration = true;
      config.backfill_depth = 16;

      std::ostringstream sink_out;
      obs::TraceSink sink(sink_out);
      obs::Observer observer;
      observer.trace = &sink;

      Scheduler warm(cat, make_policy(policy), predictor, config);
      warm.set_observer(observer);
      std::mt19937_64 rng(seed);
      for (int i = 0; i < scenarios; ++i) {
        const Scenario sc = make_scenario(cat, rng);
        const std::string label = std::string(to_string(algorithm)) +
                                  "/policy" + std::to_string(policy) +
                                  "/scenario" + std::to_string(i);

        FreePartitionIndex warm_index(cat);
        warm_index.reset(sc.occupied);
        const SchedulingDecision got =
            warm.schedule(sc.now, sc.queue, sc.running, warm_index);

        Scheduler fresh(cat, make_policy(policy), predictor, config);
        fresh.set_observer(observer);
        FreePartitionIndex fresh_index(cat);
        fresh_index.reset(sc.occupied);
        const SchedulingDecision expected =
            fresh.schedule(sc.now, sc.queue, sc.running, fresh_index);

        expect_same_decision(expected, got, label);
        EXPECT_EQ(warm_index.occupied(), fresh_index.occupied()) << label;
        migrations += static_cast<int>(got.migrations.size());
        for (const PlacementRecord& p : got.placements) {
          if (p.backfill) ++backfills;
        }
      }
    }
  }
  return {migrations, backfills};
}

TEST(ArenaScratch, WarmSchedulerMatchesFreshOnEveryPass) {
  const PartitionCatalog cat(Dims::bluegene_l());
  const auto [migrations, backfills] = warm_matches_fresh(cat, 97, 20);
  EXPECT_GT(migrations, 0);
  EXPECT_GT(backfills, 0);
}

TEST(ArenaScratch, WarmSchedulerMatchesFreshAtBlockCatalogScale) {
  // The scale-up configuration in miniature: 4 096 nodes, block catalog.
  CatalogOptions options;
  options.mode = CatalogOptions::Mode::kBlocks;
  options.min_block = 16;
  const PartitionCatalog cat(Dims{16, 16, 16}, Topology::kTorus, options);
  const auto [migrations, backfills] = warm_matches_fresh(cat, 1234, 15);
  EXPECT_GT(migrations, 0);
  EXPECT_GT(backfills, 0);
}

}  // namespace
}  // namespace bgl
