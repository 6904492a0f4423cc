#include "sched/migration.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

/// A rewound scratch arena for one call (results never point into it).
PlacementArena& scratch() {
  static PlacementArena arena;
  arena.reset();
  return arena;
}

int entry_of_box(const Box& box) {
  const Box canon = canonicalize(kBgl, box);
  for (int i = 0; i < catalog().num_entries(); ++i) {
    if (catalog().entry(i).box == canon) return i;
  }
  return -1;
}

TEST(Migration, CompactionFreesSpaceForHead) {
  // Two 4x4x2 slabs placed at z = 0 and z = 4 fragment the torus into two
  // 4x4x2 holes; a 4x4x4 (64-node) job cannot fit, but re-packing the slabs
  // adjacently frees a contiguous half machine.
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  NodeSet occ = catalog().entry(a).mask;
  occ |= catalog().entry(b).mask;
  ASSERT_FALSE(catalog().has_free_of_size(occ, 64));

  const std::vector<RunningJob> running = {RunningJob{1, a, 100.0},
                                           RunningJob{2, b, 200.0}};
  const auto repack = try_repack(catalog(), running, 64, nullptr, scratch());
  ASSERT_TRUE(repack.has_value());
  EXPECT_TRUE(catalog().has_free_of_size(repack->occupied_after, 64));
  EXPECT_EQ(repack->running_after.size(), 2u);
  // Total occupancy conserved.
  EXPECT_EQ(repack->occupied_after.count(), 64);
  // At least one job moved.
  EXPECT_FALSE(repack->migrations.empty());
}

TEST(Migration, MigrationsOnlyListMovedJobs) {
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  const std::vector<RunningJob> running = {RunningJob{1, a, 100.0},
                                           RunningJob{2, b, 200.0}};
  const auto repack = try_repack(catalog(), running, 64, nullptr, scratch());
  ASSERT_TRUE(repack.has_value());
  for (const Migration& m : repack->migrations) {
    EXPECT_NE(m.from_entry, m.to_entry);
    // Sizes preserved.
    EXPECT_EQ(catalog().entry(m.from_entry).size, catalog().entry(m.to_entry).size);
  }
}

TEST(Migration, NoOverlapAfterRepack) {
  // 72 busy nodes leave 56 free: a 32-node head fits by count, and the
  // greedy packing succeeds (moving all three jobs).
  const int a = entry_of_box(Box{Coord{0, 0, 1}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 5}, Triple{4, 4, 2}});
  const int c = entry_of_box(Box{Coord{0, 0, 3}, Triple{4, 2, 1}});
  const std::vector<RunningJob> running = {
      RunningJob{1, a, 10.0}, RunningJob{2, b, 20.0}, RunningJob{3, c, 30.0}};
  const auto repack = try_repack(catalog(), running, 32, nullptr, scratch());
  ASSERT_TRUE(repack.has_value());
  int total = 0;
  NodeSet unioned(128);
  for (const RunningJob& r : repack->running_after) {
    const NodeSet& mask = catalog().entry(r.entry_index).mask;
    EXPECT_FALSE(unioned.intersects(mask));
    unioned |= mask;
    total += catalog().entry(r.entry_index).size;
  }
  EXPECT_EQ(repack->occupied_after, unioned);
  EXPECT_EQ(total, 64 + 8);
}

TEST(Migration, FailsWhenHeadCannotFitEvenCompacted) {
  // 96 busy nodes: even perfectly packed, a 64-node partition cannot fit.
  const int big = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 6}});
  const std::vector<RunningJob> running = {RunningJob{1, big, 100.0}};
  EXPECT_FALSE(try_repack(catalog(), running, 64, nullptr, scratch()).has_value());
}

TEST(Migration, ObstaclesSurviveRepackAndAreNeverPackedOver) {
  // A down node in the middle of the machine must neither be packed over
  // nor dropped from the post-compaction occupancy (dropping it is how a
  // later "free the node" event desynchronizes occupancy bookkeeping).
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  const std::vector<RunningJob> running = {RunningJob{1, a, 100.0},
                                           RunningJob{2, b, 200.0}};
  NodeSet down(128);
  down.set(node_id(kBgl, Coord{0, 0, 2}));
  const auto repack = try_repack(catalog(), running, 32, &down, scratch());
  ASSERT_TRUE(repack.has_value());
  // The obstacle is still occupied afterwards...
  EXPECT_TRUE(repack->occupied_after.test(node_id(kBgl, Coord{0, 0, 2})));
  // ...no re-placed job covers it...
  for (const RunningJob& r : repack->running_after) {
    EXPECT_FALSE(catalog().entry(r.entry_index).mask.test(
        node_id(kBgl, Coord{0, 0, 2})));
  }
  // ...and the occupancy is exactly jobs + obstacle.
  EXPECT_EQ(repack->occupied_after.count(), 64 + 1);

  // With the obstacle the full half-machine is out of reach: 64 must fail
  // even though the same layout without obstacles compacts (see
  // CompactionFreesSpaceForHead).
  EXPECT_FALSE(try_repack(catalog(), running, 64, &down, scratch()).has_value());
}

// The capacity bound SchedulingPass::try_migration applies before calling
// try_repack: a re-pack never frees a node, so when the machine has fewer
// free nodes than the head needs, try_repack (which stays unbounded) must
// fail on its own. Random non-overlapping running sets plus random
// obstacles; both the head size just above the free count and a random
// larger one are probed.
void expect_capacity_bound(const PartitionCatalog& cat, std::uint64_t seed,
                           int trials) {
  std::vector<int> sizes;  // distinct entry sizes, descending
  for (int i = 0; i < cat.num_entries(); ++i) {
    if (sizes.empty() || sizes.back() != cat.entry(i).size) {
      sizes.push_back(cat.entry(i).size);
    }
  }
  std::mt19937_64 rng(seed);
  const int n = cat.num_nodes();
  int probed = 0;
  for (int trial = 0; trial < trials; ++trial) {
    NodeSet occ(n);
    std::vector<RunningJob> running;
    const int jobs = 1 + static_cast<int>(rng() % 10);
    for (int k = 0; k < 4 * jobs && static_cast<int>(running.size()) < jobs;
         ++k) {
      std::vector<int> free;
      cat.free_entries_of_size(occ, sizes[rng() % sizes.size()], free);
      if (free.empty()) continue;
      const int e = free[rng() % free.size()];
      occ |= cat.entry(e).mask;
      running.push_back(RunningJob{static_cast<std::uint64_t>(k), e,
                                   static_cast<double>(rng() % 1000)});
    }
    NodeSet obstacles(n);
    const int down = static_cast<int>(rng() % 8);
    for (int k = 0; k < down; ++k) {
      const int node = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      if (!occ.test(node)) obstacles.set(node);
    }
    occ |= obstacles;
    const int free_nodes = n - occ.count();

    std::vector<int> too_big;
    for (const int s : sizes) {
      if (s > free_nodes) too_big.push_back(s);
    }
    if (too_big.empty()) continue;
    for (const int head : {too_big.back(), too_big[rng() % too_big.size()]}) {
      ++probed;
      EXPECT_FALSE(try_repack(cat, running, head, &obstacles, scratch()).has_value())
          << "seed " << seed << " trial " << trial << ": " << free_nodes
          << " free nodes, head " << head;
    }
  }
  EXPECT_GE(probed, trials);  // the generator must exercise the bound
}

TEST(Migration, RepackNeverSucceedsWithFewerFreeNodesThanTheHead) {
  expect_capacity_bound(catalog(), 11, 150);
}

TEST(Migration, CapacityBoundHoldsOnTheBlockCatalog) {
  CatalogOptions options;
  options.mode = CatalogOptions::Mode::kBlocks;
  options.min_block = 8;
  const PartitionCatalog blocks(Dims{8, 8, 8}, Topology::kTorus, options);
  expect_capacity_bound(blocks, 12, 300);
}

TEST(Migration, EmptyRunningSetTrivial) {
  const auto repack = try_repack(catalog(), {}, 128, nullptr, scratch());
  ASSERT_TRUE(repack.has_value());
  EXPECT_TRUE(repack->migrations.empty());
  EXPECT_EQ(repack->occupied_after.count(), 0);
}

}  // namespace
}  // namespace bgl
