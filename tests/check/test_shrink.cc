// The shrinker: injected faults are found within a bounded seed window and
// minimize to small reproducers that still trip the SAME oracle; replay
// files round-trip plans exactly.
#include "check/shrink.h"

#include <gtest/gtest.h>

#include <sstream>

#include "check/replay.h"

namespace evo::check {
namespace {

/// Scan seeds until `breakage` produces a violation (bounded; these are
/// the same windows the CLI self-test uses, so exhaustion is a regression
/// in the breakage itself, not flakiness).
std::pair<ScenarioPlan, RunReport> first_violation(Breakage breakage,
                                                   std::uint64_t budget) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ScenarioPlan plan = generate_plan(seed);
    plan.breakage = breakage;
    plan.convergence_budget = budget;
    RunReport report = run_plan(plan);
    if (!report.invalid.empty()) continue;
    if (!report.violations.empty()) return {std::move(plan), std::move(report)};
  }
  ADD_FAILURE() << "breakage " << to_string(breakage)
                << " produced no violation in 40 seeds";
  return {};
}

void expect_shrunk(Breakage breakage, std::uint64_t budget,
                   std::size_t max_events) {
  const auto [plan, report] = first_violation(breakage, budget);
  ASSERT_FALSE(report.violations.empty());
  const OracleKind kind = report.violations.front().oracle;

  const ShrinkResult result = shrink(plan, report);
  ASSERT_FALSE(result.report.violations.empty());
  EXPECT_EQ(result.report.violations.front().oracle, kind)
      << "shrink traded " << to_string(kind) << " for "
      << to_string(result.report.violations.front().oracle);
  EXPECT_LE(result.plan.events.size(), plan.events.size());
  EXPECT_LE(result.plan.events.size(), max_events)
      << "reproducer for " << to_string(breakage) << " did not get small";
  EXPECT_LE(result.plan.initial_deployment.size(),
            plan.initial_deployment.size());

  // The minimized plan is itself a deterministic reproducer.
  const RunReport replayed = run_plan(result.plan);
  ASSERT_FALSE(replayed.violations.empty());
  EXPECT_EQ(replayed.violations.front().oracle, kind);
  EXPECT_EQ(replayed.digest, result.report.digest);
}

TEST(Shrink, SilentLinkDownShrinksSmall) {
  expect_shrunk(Breakage::kSilentLinkDown, 250'000, 10);
}

TEST(Shrink, DropRouteShrinksSmall) {
  expect_shrunk(Breakage::kDropRoute, 250'000, 10);
}

TEST(Shrink, SplitHorizonShrinksSmall) {
  expect_shrunk(Breakage::kSplitHorizon, 20'000, 10);
}

TEST(Replay, RoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ScenarioPlan plan = generate_plan(seed);
    plan.breakage = static_cast<Breakage>(seed % 4);
    const std::string text = format_replay(plan);
    const ParsedReplay parsed = parse_replay(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(format_replay(parsed.plan), text) << "seed " << seed;
  }
}

TEST(Replay, RejectsCorruptedInput) {
  const std::string text = format_replay(generate_plan(1));
  EXPECT_FALSE(parse_replay(text + "unknown-key 42\n").ok());
  EXPECT_FALSE(parse_replay("").ok());
  EXPECT_FALSE(parse_replay("seed zzz\n").ok());
}

TEST(Replay, RejectsTopologiesTheAddressPlanCannotNumber) {
  // A domain numbers routers 0..254 (255's /24 holds anycast addresses)
  // and domain d owns /16 number d + 1.
  const std::string text = format_replay(generate_plan(1));
  const auto with_topology = [&](const std::string& line) {
    std::string edited;
    std::istringstream in(text);
    std::size_t number = 0;
    std::size_t topology_line = 0;
    for (std::string l; std::getline(in, l);) {
      ++number;
      if (l.rfind("topology ", 0) == 0) {
        l = line;
        topology_line = number;
      }
      edited += l + "\n";
    }
    return std::make_pair(parse_replay(edited), topology_line);
  };
  for (const char* bad : {"topology transit_routers=258", "topology stub_routers=0",
                          "topology transit_routers=256",
                          "topology transit=256 stubs=256"}) {
    const auto [parsed, line] = with_topology(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error.rfind("line " + std::to_string(line) + ": ", 0), 0u)
        << bad << ": " << parsed.error;
  }
  for (const char* good : {"topology transit_routers=255 stub_routers=1",
                           "topology transit=255 stubs=256"}) {
    const auto [parsed, line] = with_topology(good);
    EXPECT_TRUE(parsed.ok()) << good << ": " << parsed.error;
  }
}

}  // namespace
}  // namespace evo::check
