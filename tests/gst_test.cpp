// The partial-synchrony backend's contracts:
//
//  1. Stall codec — stall ops round-trip through the ScheduleTrace text
//     form, and malformed stall entries are rejected.
//  2. Termination bounds — over a (setting x gst x gst-seed) grid of
//     solvable cells, every run terminates with all properties intact and
//     rounds_to_termination <= deadline + gst; the verdicts are
//     thread-count independent.
//  3. GST = 0 is synchrony — an EventualSynchronyPolicy with gst 0
//     reproduces the synchronous transcript byte for byte.
//  4. Record/replay — recorded() returns a canonical trace whose
//     ScriptedPolicy replay reproduces the run bit for bit; a
//     beyond-envelope violation shrinks to a 1-minimal trace that still
//     replays deterministically.
//  5. Round-limit guard — a never-delivering schedule returns a structured
//     round_limit_hit outcome instead of hanging, under run_bsm and
//     run_sweep at multiple thread counts.
#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "sched/policy.hpp"
#include "sched/trace.hpp"

namespace bsm {
namespace {

using core::Battery;
using core::ScenarioSpec;
using sched::PolicyDesc;
using sched::ScheduleOp;
using sched::ScheduleTrace;

[[nodiscard]] ScenarioSpec base_scenario(std::uint32_t k, std::uint32_t tl, std::uint32_t tr,
                                         Battery battery, std::uint64_t seed = 1) {
  ScenarioSpec scenario;
  scenario.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, k, tl, tr};
  scenario.input_seed = seed;
  scenario.pki_seed = seed + 1;
  core::apply_battery(scenario, battery, seed);
  return scenario;
}

/// Drive a scenario to its deadline through core::drive() (every policy
/// here has a bounded stall budget, so the default guard never fires).
/// Unlike run_bsm() this keeps the engine alive long enough to read the
/// installed policy, so callers can also harvest recorded() traces.
[[nodiscard]] core::RunOutcome run_to_deadline(const ScenarioSpec& scenario,
                                               ScheduleTrace* recorded = nullptr) {
  auto run = core::assemble_run(core::to_run_spec(scenario));
  const auto* policy =
      dynamic_cast<const sched::EventualSynchronyPolicy*>(run.engine.delivery_policy());
  auto out = core::drive(run);
  if (recorded != nullptr && policy != nullptr) *recorded = policy->recorded();
  return out;
}

[[nodiscard]] core::RunOutcome run_scripted(ScenarioSpec scenario, const ScheduleTrace& trace) {
  scenario.sched = PolicyDesc{};
  scenario.sched.kind = PolicyDesc::Kind::Scripted;
  scenario.sched.trace = trace;
  return run_to_deadline(scenario);
}

// ------------------------------------------------------------- stall codec

TEST(StallTrace, SerializeParseRoundTrips) {
  ScheduleTrace trace;
  trace.ops.push_back({ScheduleOp::Kind::Stall, 2, 0, 0, 3});
  trace.ops.push_back({ScheduleOp::Kind::Drop, 3, 0, 2, 1});

  const std::string text = trace.serialize();
  EXPECT_EQ(text, "stall@2:0>0*3;drop@3:0>2");
  const auto parsed = ScheduleTrace::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, trace);
  EXPECT_EQ(parsed->digest(), trace.digest());
}

TEST(StallTrace, ParseRejectsJunkStalls) {
  for (const char* junk : {"stall@1:0>0", "stall@1:0>0*0", "stall@1:0>0*", "stall@:0>0*1",
                           "stall@1:0>0*99999999999"}) {
    EXPECT_FALSE(ScheduleTrace::parse(junk).has_value()) << junk;
  }
}

TEST(StallTrace, ScriptedPolicySumsStallBudgets) {
  const auto trace = ScheduleTrace::parse("stall@0:0>0*2;stall@1:0>0*3");
  ASSERT_TRUE(trace.has_value());
  const sched::ScriptedPolicy policy(*trace);
  EXPECT_EQ(policy.stall_budget(), 5U);
}

// ------------------------------------------------- termination-bound battery

/// The (setting x gst x gst-seed) grid the termination battery sweeps:
/// 16 solvable-or-not settings times 4 gst values times 2 gst seeds =
/// 128 cells.
[[nodiscard]] std::vector<ScenarioSpec> gst_grid() {
  core::SweepGrid grid;
  grid.ks = {2};
  grid.tls = {0, 1};
  grid.trs = {0, 1};
  grid.seeds = {1, 2};
  grid.batteries = {Battery::Silent, Battery::Liars};
  PolicyDesc base;
  base.max_delay = 2;
  grid.scheds = core::gst_axis(base, {0, 1, 2, 4}, 2);
  return grid.cells();
}

TEST(GstBattery, SolvableCellsTerminateWithinDeadlinePlusGst) {
  const auto cells = gst_grid();
  ASSERT_GE(cells.size(), 64U);

  const auto results = core::run_sweep(cells, {.threads = 1});
  std::size_t ran = 0;
  for (const auto& cell : results) {
    if (!cell.outcome.has_value()) continue;
    ++ran;
    const auto& out = *cell.outcome;
    const Round gst = cell.scenario.sched.gst;
    EXPECT_TRUE(out.terminated)
        << "gst " << gst << " cell failed to terminate at " << cell.scenario.config.describe();
    EXPECT_FALSE(out.round_limit_hit);
    EXPECT_TRUE(out.report.all())
        << "in-envelope GST schedule broke properties at " << cell.scenario.config.describe();
    EXPECT_LE(out.rounds_to_termination, out.rounds + gst)
        << "termination bound exceeded at " << cell.scenario.config.describe() << " gst " << gst;
  }
  EXPECT_GE(ran, 64U) << "the battery must actually exercise >= 64 solvable cells";
}

TEST(GstBattery, VerdictsAreThreadCountIndependent) {
  const auto cells = gst_grid();
  const auto serial = core::run_sweep(cells, {.threads = 1});
  const auto parallel = core::run_sweep(cells, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].outcome.has_value(), parallel[i].outcome.has_value());
    if (!serial[i].outcome.has_value()) continue;
    EXPECT_TRUE(*serial[i].outcome == *parallel[i].outcome)
        << "thread count changed a GST outcome at " << cells[i].config.describe();
  }
}

TEST(GstBattery, GstZeroReproducesTheSynchronousTranscript) {
  for (const Battery battery : {Battery::Silent, Battery::Liars}) {
    const auto scenario = base_scenario(2, 1, 0, battery);
    const auto sync = core::run_scenario(scenario);
    ASSERT_TRUE(sync.outcome.has_value());

    ScenarioSpec eventual = scenario;
    eventual.sched.kind = PolicyDesc::Kind::EventualSynchrony;
    eventual.sched.gst = 0;
    eventual.sched.seed = 99;
    eventual.sched.max_delay = 2;
    const auto es = core::run_scenario(eventual);
    ASSERT_TRUE(es.outcome.has_value());
    EXPECT_TRUE(*sync.outcome == *es.outcome)
        << "gst = 0 must be the synchronous schedule, byte for byte";
  }
}

// ------------------------------------------------------------ record/replay

TEST(GstPolicy, RecordedTraceReplaysBitForBit) {
  auto scenario = base_scenario(3, 1, 1, Battery::Liars);
  scenario.sched.kind = PolicyDesc::Kind::EventualSynchrony;
  scenario.sched.gst = 4;
  scenario.sched.seed = 7;
  scenario.sched.max_delay = 3;

  ScheduleTrace recorded;
  const auto original = run_to_deadline(scenario, &recorded);
  ASSERT_TRUE(original.terminated);

  // Round-trip through the text form — the path a trace takes through
  // JSON reports and `bsm_cli run --trace`.
  const auto parsed = ScheduleTrace::parse(recorded.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(*parsed == recorded);

  const auto replayed = run_scripted(scenario, *parsed);
  EXPECT_TRUE(original == replayed)
      << "ScriptedPolicy replay of recorded() diverged from the GST run";
}

TEST(GstPolicy, DistinctSeedsPerturbDifferently) {
  auto scenario = base_scenario(3, 1, 1, Battery::Liars);
  scenario.sched.kind = PolicyDesc::Kind::EventualSynchrony;
  scenario.sched.gst = 4;
  scenario.sched.max_delay = 3;

  bool any_difference = false;
  std::optional<core::RunOutcome> prev;
  for (std::uint64_t seed = 1; seed <= 8 && !any_difference; ++seed) {
    scenario.sched.seed = seed;
    auto out = run_to_deadline(scenario);
    if (prev.has_value() && prev->view_hashes != out.view_hashes) any_difference = true;
    prev = std::move(out);
  }
  EXPECT_TRUE(any_difference) << "every GST seed produced the identical transcript";
}

// --------------------------------------------- beyond-envelope violations

/// The engineered beyond-envelope scenario: a zero-tolerance setting with
/// the GST adversary unleashed on every channel (Scope::AllChannels) and a
/// delay bound deep enough to push messages past the horizon — delays the
/// setting is NOT required to tolerate.
[[nodiscard]] ScenarioSpec beyond_envelope_scenario(std::uint64_t sched_seed) {
  auto scenario = base_scenario(2, 0, 0, Battery::Silent);
  scenario.sched.kind = PolicyDesc::Kind::EventualSynchrony;
  scenario.sched.scope = PolicyDesc::Scope::AllChannels;
  scenario.sched.gst = 4;
  scenario.sched.max_delay = 8;
  scenario.sched.seed = sched_seed;
  return scenario;
}

/// The first schedule seed whose beyond-envelope run violates a property,
/// plus its recorded trace. The search is deterministic, so the battery
/// pins down one reproducible counterexample.
[[nodiscard]] std::optional<std::pair<std::uint64_t, ScheduleTrace>> find_violation() {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ScheduleTrace recorded;
    const auto out = run_to_deadline(beyond_envelope_scenario(seed), &recorded);
    if (!out.report.all()) return std::make_pair(seed, recorded);
  }
  return std::nullopt;
}

TEST(GstPolicy, BeyondEnvelopeViolationShrinksToOneMinimalAndReplays) {
  const auto found = find_violation();
  ASSERT_TRUE(found.has_value())
      << "no beyond-envelope GST seed in 1..200 violated a property";
  const auto& [seed, recorded] = *found;
  const auto scenario = beyond_envelope_scenario(seed);

  // The full recorded trace replays the violating run bit for bit.
  const auto original = run_to_deadline(scenario);
  const auto full_replay = run_scripted(scenario, recorded);
  ASSERT_FALSE(full_replay.report.all());
  EXPECT_TRUE(original == full_replay);

  // Greedy shrink, re-verifying after every removal: drop any op whose
  // removal keeps the violation alive, until no single op is removable.
  ScheduleTrace minimal = recorded;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < minimal.ops.size(); ++i) {
      ScheduleTrace candidate = minimal;
      candidate.ops.erase(candidate.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (!run_scripted(scenario, candidate).report.all()) {
        minimal = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  ASSERT_FALSE(minimal.empty());
  ASSERT_LT(minimal.ops.size(), recorded.ops.size())
      << "the raw recorded trace should not already be 1-minimal";

  // 1-minimality: deleting any single remaining op kills the violation.
  for (std::size_t i = 0; i < minimal.ops.size(); ++i) {
    ScheduleTrace weakened = minimal;
    weakened.ops.erase(weakened.ops.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_TRUE(run_scripted(scenario, weakened).report.all())
        << "op " << i << " of the minimized trace is redundant: " << minimal.serialize();
  }

  // The minimal trace survives the text form and replays deterministically.
  const auto parsed = ScheduleTrace::parse(minimal.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(*parsed == minimal);
  const auto first = run_scripted(scenario, *parsed);
  const auto second = run_scripted(scenario, *parsed);
  EXPECT_FALSE(first.report.all()) << "the minimized schedule must still violate";
  EXPECT_TRUE(first == second) << "minimal-trace replay is not deterministic";
}

// --------------------------------------------------------- round-limit guard

TEST(RoundLimit, NeverDeliverScheduleReportsRoundLimitHit) {
  auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  scenario.sched.kind = PolicyDesc::Kind::Scripted;
  const auto stalls = ScheduleTrace::parse("stall@0:0>0*100000");
  ASSERT_TRUE(stalls.has_value());
  scenario.sched.trace = *stalls;
  scenario.max_rounds = 20;

  const auto cell = core::run_scenario(scenario);
  ASSERT_TRUE(cell.outcome.has_value());
  EXPECT_TRUE(cell.outcome->round_limit_hit);
  EXPECT_FALSE(cell.outcome->terminated);
  EXPECT_EQ(cell.outcome->rounds_to_termination, 0U);
  EXPECT_EQ(cell.outcome->rounds, 0U) << "a round-0 stall wall must freeze the protocol clock";
}

TEST(RoundLimit, NeverDeliverSweepIsStructuredAtEveryThreadCount) {
  std::vector<ScenarioSpec> cells;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto scenario = base_scenario(2, 1, 0, Battery::Silent, seed);
    scenario.sched.kind = PolicyDesc::Kind::Scripted;
    scenario.sched.trace = *ScheduleTrace::parse("stall@0:0>0*100000");
    scenario.max_rounds = 16;
    cells.push_back(std::move(scenario));
  }

  const auto serial = core::run_sweep(cells, {.threads = 1});
  const auto parallel = core::run_sweep(cells, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].outcome.has_value());
    EXPECT_TRUE(serial[i].outcome->round_limit_hit);
    EXPECT_FALSE(serial[i].outcome->terminated);
    ASSERT_TRUE(parallel[i].outcome.has_value());
    EXPECT_TRUE(*serial[i].outcome == *parallel[i].outcome)
        << "thread count changed a round-limit outcome";
  }
}

TEST(RoundLimit, GuardIsInertWhenGenerous) {
  // An explicit cap no schedule can reach must not move a byte relative to
  // the default (deadline + stall budget) guard.
  const auto scenario = base_scenario(2, 1, 0, Battery::Liars);
  const auto baseline = core::run_scenario(scenario);
  ScenarioSpec capped = scenario;
  capped.max_rounds = 100000;
  const auto guarded = core::run_scenario(capped);
  ASSERT_TRUE(baseline.outcome.has_value());
  ASSERT_TRUE(guarded.outcome.has_value());
  EXPECT_TRUE(*baseline.outcome == *guarded.outcome);
}

TEST(RoundLimit, TightCapCutsOffASynchronousRun) {
  auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  scenario.max_rounds = 2;  // below the protocol deadline
  const auto cell = core::run_scenario(scenario);
  ASSERT_TRUE(cell.outcome.has_value());
  EXPECT_TRUE(cell.outcome->round_limit_hit);
  EXPECT_FALSE(cell.outcome->terminated);
  EXPECT_EQ(cell.outcome->rounds, 2U);
}

}  // namespace
}  // namespace bsm
