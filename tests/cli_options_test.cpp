// Regression tests for simulate_cli's option parsing
// (examples/cli_options.hpp): every malformed flag is a hard ConfigError —
// the parser must never fall back to a silent default (the old
// parse_int(...).value_or(default) behaviour turned "--jobs banana" into a
// 0-job run).
#include "../examples/cli_options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bgl_cli {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"simulate_cli"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_cli_options(static_cast<int>(argv.size()), argv.data());
}

std::string error_of(std::initializer_list<const char*> args) {
  try {
    parse(args);
  } catch (const bgl::ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ConfigError";
  return {};
}

TEST(CliOptions, DefaultsAndFullParse) {
  const Options defaults = parse({});
  EXPECT_EQ(defaults.workload, "sdsc");
  EXPECT_EQ(defaults.jobs, 2000);
  EXPECT_EQ(defaults.seed, 42u);
  EXPECT_TRUE(defaults.migration);

  const Options o = parse({"--workload", "nasa", "--jobs", "500", "--load",
                           "1.2", "--failures", "100", "--scheduler",
                           "tiebreak", "--algorithm", "easy", "--alpha",
                           "0.25", "--no-migration", "--ckpt-interval",
                           "3600", "--downtime", "14400", "--seed", "7",
                           "--trace-out", "t.jsonl", "--stats-out", "s.json",
                           "--snapshot-interval", "60", "--no-backfill"});
  EXPECT_EQ(o.workload, "nasa");
  EXPECT_EQ(o.jobs, 500);
  EXPECT_DOUBLE_EQ(o.load, 1.2);
  ASSERT_TRUE(o.failures.has_value());
  EXPECT_EQ(*o.failures, 100u);
  EXPECT_EQ(o.scheduler, "tiebreak");
  EXPECT_EQ(o.algorithm, "easy");
  EXPECT_DOUBLE_EQ(o.alpha, 0.25);
  EXPECT_FALSE(o.migration);
  EXPECT_DOUBLE_EQ(o.ckpt_interval, 3600.0);
  EXPECT_DOUBLE_EQ(o.downtime, 14400.0);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_EQ(o.trace_out.value(), "t.jsonl");
  EXPECT_EQ(o.stats_out.value(), "s.json");
  EXPECT_DOUBLE_EQ(o.snapshot_interval, 60.0);
  EXPECT_EQ(o.backfill, bgl::BackfillMode::kNone);
  EXPECT_EQ(parse({"--conservative-backfill"}).backfill,
            bgl::BackfillMode::kConservative);
}

TEST(CliOptions, ConservativeBackfillNeedsTheKrevatAlgorithm) {
  for (const char* algorithm : {"easy", "easy-holdback", "conservative"}) {
    const std::string e =
        error_of({"--algorithm", algorithm, "--conservative-backfill"});
    EXPECT_NE(e.find("--conservative-backfill"), std::string::npos) << e;
    EXPECT_NE(e.find("--algorithm " + std::string(algorithm)),
              std::string::npos)
        << e;
  }
  EXPECT_EQ(parse({"--algorithm", "krevat", "--conservative-backfill"}).backfill,
            bgl::BackfillMode::kConservative);
}

TEST(CliOptions, MalformedNumbersAreHardErrorsNamingTheFlag) {
  EXPECT_NE(error_of({"--jobs", "banana"}).find("--jobs"), std::string::npos);
  EXPECT_NE(error_of({"--jobs", "banana"}).find("banana"), std::string::npos);
  EXPECT_NE(error_of({"--load", "fast"}).find("--load"), std::string::npos);
  EXPECT_NE(error_of({"--alpha", "x"}).find("--alpha"), std::string::npos);
  EXPECT_NE(error_of({"--seed", "0x"}).find("--seed"), std::string::npos);
  EXPECT_NE(error_of({"--failures", "3.5"}).find("--failures"),
            std::string::npos);
  EXPECT_NE(error_of({"--ckpt-interval", ""}).find("--ckpt-interval"),
            std::string::npos);
  EXPECT_NE(error_of({"--downtime", "soon"}).find("--downtime"),
            std::string::npos);
  EXPECT_NE(error_of({"--snapshot-interval", "?"}).find("--snapshot-interval"),
            std::string::npos);
}

TEST(CliOptions, MissingValuesAndUnknownFlagsAreHardErrors) {
  EXPECT_NE(error_of({"--jobs"}).find("requires a value"), std::string::npos);
  EXPECT_NE(error_of({"--workload"}).find("requires a value"),
            std::string::npos);
  EXPECT_NE(error_of({"--frobnicate"}).find("unknown option"),
            std::string::npos);
  EXPECT_NE(error_of({"--frobnicate"}).find("--frobnicate"),
            std::string::npos);
}

TEST(CliOptions, DomainChecks) {
  EXPECT_NE(error_of({"--jobs", "0"}).find("--jobs"), std::string::npos);
  // Past 2^32 the value would wrap to 1 if narrowed before the check.
  EXPECT_NE(error_of({"--jobs", "4294967297"}).find("--jobs"),
            std::string::npos);
  EXPECT_NE(error_of({"--load", "-1"}).find("--load"), std::string::npos);
  EXPECT_NE(error_of({"--alpha", "1.5"}).find("--alpha"), std::string::npos);
  EXPECT_NE(error_of({"--failures", "-2"}).find("--failures"),
            std::string::npos);
  EXPECT_NE(error_of({"--ckpt-interval", "0"}).find("--ckpt-interval"),
            std::string::npos);
  // Non-finite values would pass every range check (NaN compares false).
  EXPECT_NE(error_of({"--alpha", "nan"}).find("--alpha"), std::string::npos);
  EXPECT_NE(error_of({"--load", "inf"}).find("--load"), std::string::npos);
  EXPECT_NE(error_of({"--snapshot-interval", "nan"}).find("--snapshot-interval"),
            std::string::npos);
}

}  // namespace
}  // namespace bgl_cli
