// End-to-end pins and observability of the scale-up machinery: a 16^3
// block-catalog run must reproduce its frozen SimResult digest; full-scale
// block-catalog traces must carry the new sim_begin fields and pass the
// strict auditor.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "failure/generator.hpp"
#include "obs/audit.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "workload/synthetic.hpp"

namespace bgl {
namespace {

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

Inputs make_inputs(int num_jobs, int nodes, std::uint64_t seed) {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = num_jobs;
  Workload w = generate_workload(model, seed);
  w = rescale_sizes(w, nodes);
  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  FailureModel fm = FailureModel::bluegene_l(80, span);
  fm.num_nodes = nodes;
  return Inputs{std::move(w), generate_failures(fm, seed ^ 0x5bd1e995)};
}

SimConfig scale_config() {
  SimConfig config;
  config.dims = Dims{16, 16, 16};  // 4 096 nodes: full machine in miniature
  config.catalog.mode = CatalogOptions::Mode::kBlocks;
  config.catalog.min_block = 16;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  return config;
}

// Block-catalog decisions, pinned: the 16^3 run's SimResult digest,
// identical with and without a trace attached. Any change to the engine's
// block-catalog path (scan kernels, index deltas, scratch) that moves a
// decision changes it.
TEST(ScaleEquivalence, BlockCatalogRunMatchesFrozenChecksum) {
  const Inputs in = make_inputs(250, 16 * 16 * 16, 4242);
  std::ostringstream text;
  obs::TraceSink sink(text);
  SimConfig traced = scale_config();
  traced.obs.trace = &sink;
  const SimResult untraced_result =
      run_simulation(in.workload, in.trace, scale_config());
  const SimResult traced_result = run_simulation(in.workload, in.trace, traced);
  EXPECT_EQ(sim_result_checksum(untraced_result), 0x28bff0ee758df777ull);
  EXPECT_EQ(sim_result_checksum(traced_result), 0x28bff0ee758df777ull);
  EXPECT_EQ(untraced_result.jobs_completed, in.workload.jobs.size());
}

TEST(ScaleTrace, SimBeginAnnouncesNonDefaultEngineConfig) {
  const Inputs in = make_inputs(40, 16 * 16 * 16, 7);

  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config = scale_config();
    config.obs.trace = &sink;
    run_simulation(in.workload, in.trace, config);
  }
  std::istringstream stream(text.str());
  obs::TraceReader reader(stream);
  obs::TraceRecord record;
  ASSERT_TRUE(reader.next(record));
  const obs::SimBeginEvent begin = obs::SimBeginEvent::from(record);
  EXPECT_EQ(begin.catalog, "blocks");
  EXPECT_EQ(begin.min_block, 16);
}

TEST(ScaleTrace, SimBeginOmitsDefaultEngineConfig) {
  // Default engine (boxes catalog) at paper scale: the new fields must be
  // absent so pre-existing traces stay byte-identical.
  const Inputs in = make_inputs(40, 128, 7);
  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config;
    config.obs.trace = &sink;
    run_simulation(in.workload, in.trace, config);
  }
  const std::string first = text.str().substr(0, text.str().find('\n'));
  EXPECT_EQ(first.find("\"catalog\""), std::string::npos);
  std::istringstream stream2(text.str());
  obs::TraceReader reader(stream2);
  obs::TraceRecord record;
  ASSERT_TRUE(reader.next(record));
  const obs::SimBeginEvent begin = obs::SimBeginEvent::from(record);
  EXPECT_EQ(begin.catalog, "");
  EXPECT_EQ(begin.min_block, 0);
}

TEST(ScaleAudit, BlockCatalogTracePassesStrictAudit) {
  // The auditor reconstructs a block catalog of any volume (the node cap
  // applies to boxes mode only), so a full-scale trace stays fully
  // checkable: lifecycle, partition overlap, metric re-derivation.
  const Inputs in = make_inputs(120, 16 * 16 * 16, 99);
  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config = scale_config();
    config.obs.trace = &sink;
    config.snapshot_interval = 43200.0;
    run_simulation(in.workload, in.trace, config);
  }
  obs::AuditOptions options;
  options.strict = true;
  std::istringstream stream(text.str());
  const obs::AuditReport report = obs::audit_trace(stream, options);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations.front().message);
  EXPECT_GT(report.events, 0u);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace bgl
