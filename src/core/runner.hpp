// One-call experiment driver: assemble an engine, install honest protocol
// processes and adversarial strategies, run to the protocol's deadline, and
// verify the bSM properties on the honest outputs. drive() is the single
// engine-stepping loop behind every entry point (run_bsm, the sweep layer,
// the schedule explorer/fuzzer, and `bsm_cli --replay`), and validate() the
// single input check the CLI runs before building anything.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/problem.hpp"
#include "core/properties.hpp"
#include "net/engine.hpp"
#include "sched/trace.hpp"

namespace bsm::core {

/// One corrupted party: strategy installed at round `when` (0 = from the
/// start; later = adaptive corruption).
struct AdversaryAssignment {
  PartyId id = kNobody;
  Round when = 0;
  std::unique_ptr<net::Process> strategy;
};

struct RunSpec {
  BsmConfig config;
  matching::PreferenceProfile inputs;  ///< complete; byzantine entries unused
  std::vector<AdversaryAssignment> adversaries;
  std::uint64_t pki_seed = 1;
  Round extra_rounds = 2;  ///< slack after the protocol deadline

  /// Attack experiments force a construction outside its validity region.
  std::optional<ProtocolSpec> forced_spec;

  /// The construction the caller already resolved for `config` (e.g. served
  /// from the sweep layer's OracleCache), so run_bsm() skips re-deriving
  /// it. Must equal resolve_protocol(config); ignored when `forced_spec`
  /// is set.
  std::optional<ProtocolSpec> resolved_spec;

  /// Delivery schedule installed into the engine before round 0 (see
  /// net/delivery.hpp); nullptr = the synchronous fast path. Materialized
  /// from ScenarioSpec::sched by to_run_spec().
  std::unique_ptr<net::DeliveryPolicy> policy;

  /// Per-channel stats representation for the engine (see net::StatsMode).
  /// Dense (the historical default) keeps TrafficStats byte-identical;
  /// Sparse is the big-n mode that avoids the O(n^2) channel matrices.
  net::StatsMode stats_mode = net::StatsMode::Dense;

  /// Hard engine-round guard for run_bsm(): a schedule that stalls the
  /// engine past this many engine rounds is cut off and reported as
  /// round_limit_hit instead of hanging. 0 (the default) resolves to the
  /// protocol deadline plus the installed policy's stall_budget() — a cap
  /// no well-formed schedule can hit, so synchronous and bounded-
  /// perturbation runs behave exactly as before.
  Round max_rounds = 0;
};

struct RunOutcome {
  std::vector<std::optional<PartyId>> decisions;
  std::vector<bool> corrupt;
  PropertyReport report;
  net::TrafficStats traffic;
  Round rounds = 0;
  std::vector<std::uint64_t> view_hashes;
  ProtocolSpec spec;

  /// Round-complexity verdict. `terminated` = every honest party decided;
  /// `rounds_to_termination` = engine rounds (protocol rounds + stalled
  /// rounds) consumed up to the first round boundary where they all had —
  /// the partial-synchrony liveness measure the GST batteries bound by
  /// deadline + gst. `round_limit_hit` = the run was cut off by the
  /// max_rounds guard (which forces terminated == false: someone was
  /// still undecided when the guard fired).
  bool terminated = false;
  Round rounds_to_termination = 0;
  bool round_limit_hit = false;

  /// Byte-for-byte run equality — the sweep layer's serial-vs-parallel
  /// determinism guarantee is asserted with this.
  bool operator==(const RunOutcome&) const = default;
};

/// An experiment assembled but not yet run: the engine with honest
/// processes, adversaries, and the delivery policy installed, plus the
/// deadline run_bsm() would run to. drive() steps it; harnesses that
/// inspect per-round state (the schedule explorer reads view hashes
/// between rounds) do so through drive()'s per-step hook.
struct AssembledRun {
  BsmConfig config;
  matching::PreferenceProfile inputs;
  ProtocolSpec spec;
  Round rounds = 0;  ///< protocol deadline + the spec's extra slack
  net::Engine engine;
};

/// Build the engine for `spec` (requires a solvable configuration unless
/// `spec.forced_spec` is set). Consumes the spec (process objects move
/// into the engine).
[[nodiscard]] AssembledRun assemble_run(RunSpec spec);

/// Snapshot outcome + property verdicts at the engine's current round.
[[nodiscard]] RunOutcome collect_outcome(const AssembledRun& run);

/// How drive() steps an assembled run.
struct DriveOptions {
  /// Protocol rounds to step; 0 = the run's deadline (AssembledRun::rounds).
  Round horizon = 0;
  /// Engine-round guard (see RunSpec::max_rounds); 0 = the horizon plus the
  /// installed policy's stall_budget().
  Round max_rounds = 0;
  /// Called after every step, the one the guard cuts off included, with
  /// the step's 0-based index and what it did.
  std::function<void(Round step, const net::Engine::RunProgress&)> on_step;
};

/// The one engine-stepping loop: run `run` one protocol round at a time
/// under the engine-round guard, record the first round boundary at which
/// every honest party has decided (RunOutcome::rounds_to_termination, in
/// engine rounds, stalls included), and snapshot the outcome. A guard
/// cutoff is a round_limit_hit verdict only while someone is undecided.
[[nodiscard]] RunOutcome drive(AssembledRun& run, const DriveOptions& opts = {});

/// Run the setting's own protocol (requires a solvable configuration unless
/// `spec.forced_spec` is set) and check properties: assemble_run, then
/// drive() to the deadline under `spec.max_rounds`.
[[nodiscard]] RunOutcome run_bsm(RunSpec spec);

/// The input check every CLI entry point runs before assembling anything;
/// nullopt = runnable, otherwise a one-line reason. `cfg` must have k >= 1
/// and tL, tR <= k, and — with `need_solvable`, i.e. everywhere but a
/// sweep grid, which maps the impossible region too — be solvable per the
/// paper. Every op of `trace` must name parties < n, and every
/// drop/delay/rank op a delivery round in 1..horizon (0 = the protocol
/// deadline plus RunSpec's default slack): a message sent in round r
/// delivers at r + 1 (net/delivery.hpp), so round 0 perturbs nothing.
/// Stall ops may name round 0.
[[nodiscard]] std::optional<std::string> validate(const BsmConfig& cfg, bool need_solvable = true,
                                                  const sched::ScheduleTrace* trace = nullptr,
                                                  Round horizon = 0);

/// Convenience: build the honest process a party would run, for adversary
/// strategies that wrap honest code (lying inputs, split-brain simulation).
[[nodiscard]] std::unique_ptr<BsmProcess> honest_process_for(const RunSpec& spec, PartyId id,
                                                             matching::PreferenceList input);

}  // namespace bsm::core
