// Oracle test for the MFP engine: the catalog's size-descending scan must
// agree with an independent brute-force maximal-free-box search on random
// occupancies, for torus and mesh topologies and several machine sizes.
#include <gtest/gtest.h>

#include <string>

#include "torus/catalog.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

/// Brute force: largest free box by trying every (shape, base), honouring
/// the topology's base rules, checking node by node.
int reference_mfp(const Dims& dims, Topology topology, const NodeSet& occ) {
  int best = 0;
  for (int sx = 1; sx <= dims.x; ++sx) {
    for (int sy = 1; sy <= dims.y; ++sy) {
      for (int sz = 1; sz <= dims.z; ++sz) {
        const int volume = sx * sy * sz;
        if (volume <= best) continue;
        const bool mesh = topology == Topology::kMesh;
        const int bx_max = mesh ? dims.x - sx + 1 : dims.x;
        const int by_max = mesh ? dims.y - sy + 1 : dims.y;
        const int bz_max = mesh ? dims.z - sz + 1 : dims.z;
        bool found = false;
        for (int bx = 0; bx < bx_max && !found; ++bx) {
          for (int by = 0; by < by_max && !found; ++by) {
            for (int bz = 0; bz < bz_max && !found; ++bz) {
              bool free = true;
              for (int dx = 0; dx < sx && free; ++dx) {
                for (int dy = 0; dy < sy && free; ++dy) {
                  for (int dz = 0; dz < sz && free; ++dz) {
                    const Coord c = wrap(dims, bx + dx, by + dy, bz + dz);
                    if (occ.test(node_id(dims, c))) free = false;
                  }
                }
              }
              found = free;
            }
          }
        }
        if (found) best = volume;
      }
    }
  }
  return best;
}

struct MfpCase {
  Dims dims;
  Topology topology;
  double density;
  std::uint64_t seed;
};

// gtest shows a struct parameter as its bytes, padding included, and the
// padding is uninitialised: the suite's name generator and this printer
// keep the test names (which gtest_discover_tests builds from both) stable
// from build to build.
void PrintTo(const MfpCase& c, std::ostream* os) {
  *os << '{' << to_string(c.dims) << ' ' << to_string(c.topology)
      << ", density " << c.density << ", seed " << c.seed << '}';
}

class MfpOracle : public ::testing::TestWithParam<MfpCase> {};

TEST_P(MfpOracle, CatalogMatchesBruteForce) {
  const MfpCase c = GetParam();
  PartitionCatalog catalog(c.dims, c.topology);
  Rng rng(c.seed);
  for (int trial = 0; trial < 25; ++trial) {
    NodeSet occ(c.dims.volume());
    for (int i = 0; i < c.dims.volume(); ++i) {
      if (rng.bernoulli(c.density)) occ.set(i);
    }
    EXPECT_EQ(catalog.mfp(occ), reference_mfp(c.dims, c.topology, occ))
        << "density " << c.density << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TorusAndMesh, MfpOracle,
    ::testing::Values(MfpCase{Dims{4, 4, 8}, Topology::kTorus, 0.1, 1},
                      MfpCase{Dims{4, 4, 8}, Topology::kTorus, 0.4, 2},
                      MfpCase{Dims{4, 4, 8}, Topology::kTorus, 0.8, 3},
                      MfpCase{Dims{4, 4, 8}, Topology::kMesh, 0.2, 4},
                      MfpCase{Dims{4, 4, 8}, Topology::kMesh, 0.6, 5},
                      MfpCase{Dims{3, 3, 3}, Topology::kTorus, 0.3, 6},
                      MfpCase{Dims{3, 3, 3}, Topology::kMesh, 0.3, 7},
                      MfpCase{Dims{2, 3, 5}, Topology::kTorus, 0.5, 8},
                      MfpCase{Dims{2, 3, 5}, Topology::kMesh, 0.5, 9},
                      MfpCase{Dims{1, 1, 8}, Topology::kTorus, 0.4, 10}),
    [](const ::testing::TestParamInfo<MfpCase>& info) {
      const MfpCase& c = info.param;
      return to_string(c.dims) + "_" + to_string(c.topology) + "_seed" +
             std::to_string(c.seed);
    });

TEST(MfpOracle, EmptyAndFullMachines) {
  for (const Topology topology : {Topology::kTorus, Topology::kMesh}) {
    PartitionCatalog catalog(Dims::bluegene_l(), topology);
    NodeSet occ(128);
    EXPECT_EQ(catalog.mfp(occ), 128);
    occ.fill();
    EXPECT_EQ(catalog.mfp(occ), 0);
  }
}

}  // namespace
}  // namespace bgl
