// Shared schedule-evaluation kernel for the search harnesses (the
// iterative-deepening explorer and the greybox fuzzer).
//
// One eval = one full simulation of a ScenarioSpec under one
// ScheduleTrace: install the trace as a ScriptedPolicy, step the engine
// through core::drive(), fold every party's view_hash into a per-round state
// digest, and chain those digests into a trail. Two schedules with equal
// trails are indistinguishable to every party at every round — the
// explorer prunes on the final trail fold, the fuzzer treats each
// *prefix* of the chain as a coverage point (reaching a prefix nobody
// reached before means the schedule drove the system into a genuinely
// new state at that round).
//
// The fold is exactly the explorer's historical one (seeded at
// 0x5eed0f0dd, per-round state keyed by splitmix64(round)), so the
// refactor is digest-transparent: explorer reports — and the sched/*
// bench digests built from them — are unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "sched/trace.hpp"

namespace bsm::sched::detail {

/// One channel-round delivery group observed in a run: a point a
/// schedule could perturb.
struct Slot {
  Round round = 0;
  PartyId from = 0;
  PartyId to = 0;

  [[nodiscard]] bool operator<(const Slot& o) const {
    if (round != o.round) return round < o.round;
    if (from != o.from) return from < o.from;
    return to < o.to;
  }
  bool operator==(const Slot&) const = default;
};

/// What one schedule run reports back to a search.
struct Eval {
  std::uint64_t trail = 0;  ///< fold of per-round state digests
  int violated = 0;
  std::vector<Slot> menu;  ///< observed delivery groups, sorted unique
  std::vector<std::uint64_t> views;
  /// The run's liveness triple, as core::drive() reports it.
  bool terminated = false;
  Round rounds_to_termination = 0;
  bool round_limit_hit = false;
  /// The trail value after each simulated round (the coverage points the
  /// fuzzer feeds on); empty unless requested.
  std::vector<std::uint64_t> prefixes;
};

/// Run `base` under `trace` for `horizon` rounds (0 = the protocol
/// deadline) through core::drive(), guarded by `base.max_rounds`,
/// recording the trail, optionally the delivery-group menu and the
/// per-round trail prefixes. Pure per call: every run owns its
/// engine, so eval_schedule is safe to fan out over run_cells().
[[nodiscard]] Eval eval_schedule(const core::ScenarioSpec& base,
                                 const std::optional<core::ProtocolSpec>& resolved,
                                 const ScheduleTrace& trace, Round horizon, bool collect_menu,
                                 bool collect_prefixes = false);

}  // namespace bsm::sched::detail
