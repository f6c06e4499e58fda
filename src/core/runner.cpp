#include "core/runner.hpp"

#include "core/oracle.hpp"

namespace bsm::core {

namespace {

[[nodiscard]] ProtocolSpec spec_for(const RunSpec& spec) {
  if (spec.forced_spec.has_value()) return *spec.forced_spec;
  if (spec.resolved_spec.has_value()) return *spec.resolved_spec;
  auto resolved = resolve_protocol(spec.config);
  require(resolved.has_value(), "run_bsm: configuration is unsolvable (per the paper); "
                                "use forced_spec for attack experiments");
  return *resolved;
}

}  // namespace

std::unique_ptr<BsmProcess> honest_process_for(const RunSpec& spec, PartyId id,
                                               matching::PreferenceList input) {
  return make_bsm_process(spec.config, spec_for(spec), id, std::move(input));
}

AssembledRun assemble_run(RunSpec spec) {
  const BsmConfig& cfg = spec.config;
  require(spec.inputs.k() == cfg.k, "run_bsm: inputs sized for a different market");
  const ProtocolSpec proto = spec_for(spec);

  net::Engine engine(net::Topology(cfg.topology, cfg.k), spec.pki_seed, spec.stats_mode);
  if (spec.policy != nullptr) engine.set_delivery_policy(std::move(spec.policy));

  for (PartyId id = 0; id < cfg.n(); ++id) {
    engine.set_process(id, make_bsm_process(cfg, proto, id, spec.inputs.list(id)));
  }
  for (auto& adv : spec.adversaries) {
    require(adv.id < cfg.n(), "run_bsm: adversary id out of range");
    require(adv.strategy != nullptr, "run_bsm: adversary strategy missing");
    if (adv.when == 0) {
      engine.set_corrupt(adv.id, std::move(adv.strategy));
    } else {
      engine.schedule_corruption(adv.id, adv.when, std::move(adv.strategy));
    }
  }

  return AssembledRun{cfg, std::move(spec.inputs), proto, proto.total_rounds + spec.extra_rounds,
                      std::move(engine)};
}

RunOutcome collect_outcome(const AssembledRun& run) {
  const BsmConfig& cfg = run.config;
  const net::Engine& engine = run.engine;
  RunOutcome out;
  out.spec = run.spec;
  out.rounds = engine.current_round();
  out.corrupt = engine.corrupt_mask();
  out.traffic = engine.stats();
  out.decisions.resize(cfg.n());
  out.view_hashes.resize(cfg.n());
  bool all_decided = true;
  for (PartyId id = 0; id < cfg.n(); ++id) {
    out.view_hashes[id] = engine.view_hash(id);
    if (out.corrupt[id]) continue;
    const auto& process = dynamic_cast<const BsmProcess&>(engine.process(id));
    if (process.decided()) {
      out.decisions[id] = process.decision();
    } else {
      all_decided = false;
    }
  }
  out.terminated = all_decided;
  // Snapshot liveness measure: the engine rounds consumed so far. drive()
  // overwrites this with the exact first-all-decided watermark.
  out.rounds_to_termination = all_decided ? engine.engine_rounds() : 0;
  out.report = check_bsm(cfg.k, out.corrupt, run.inputs, out.decisions);
  return out;
}

namespace {

[[nodiscard]] bool all_honest_decided(const AssembledRun& run) {
  for (PartyId id = 0; id < run.config.n(); ++id) {
    if (run.engine.is_corrupt(id)) continue;
    if (!dynamic_cast<const BsmProcess&>(run.engine.process(id)).decided()) return false;
  }
  return true;
}

}  // namespace

RunOutcome drive(AssembledRun& run, const DriveOptions& opts) {
  const Round steps = opts.horizon != 0 ? opts.horizon : run.rounds;
  const net::DeliveryPolicy* policy = run.engine.delivery_policy();
  const Round budget = policy != nullptr ? policy->stall_budget() : 0;
  const Round cap = opts.max_rounds != 0
                        ? opts.max_rounds
                        : (steps > UINT32_MAX - budget ? UINT32_MAX : steps + budget);

  bool decided_seen = false;
  Round decided_at = 0;
  bool limit_hit = false;
  for (Round step = 0; step < steps && !limit_hit; ++step) {
    const auto prog = run.engine.run_guarded(1, cap);
    limit_hit = prog.limit_hit;
    if (!decided_seen && all_honest_decided(run)) {
      decided_seen = true;
      decided_at = run.engine.engine_rounds();
    }
    if (opts.on_step) opts.on_step(step, prog);
  }

  RunOutcome out = collect_outcome(run);
  out.rounds_to_termination = decided_seen ? decided_at : 0;
  // A guard cutoff after every honest party decided merely truncated the
  // post-deadline slack; only an undecided cutoff is a liveness verdict.
  out.round_limit_hit = limit_hit && !out.terminated;
  return out;
}

RunOutcome run_bsm(RunSpec spec) {
  const Round max_rounds = spec.max_rounds;
  AssembledRun run = assemble_run(std::move(spec));
  return drive(run, {0, max_rounds, nullptr});
}

std::optional<std::string> validate(const BsmConfig& cfg, bool need_solvable,
                                    const sched::ScheduleTrace* trace, Round horizon) {
  if (cfg.k == 0) return "invalid setting: k must be >= 1";
  if (cfg.tl > cfg.k || cfg.tr > cfg.k) {
    return "invalid setting: tL and tR must not exceed k=" + std::to_string(cfg.k);
  }
  if (need_solvable && !solvable(cfg)) {
    return "unsolvable setting: " + solvability_reason(cfg) +
           " (`bsm_cli bench --filter attack_lemma` runs the impossibility proofs)";
  }
  if (trace == nullptr) return std::nullopt;

  if (horizon == 0) {
    const auto proto = resolve_protocol(cfg);
    horizon = (proto ? proto->total_rounds : 0) + RunSpec{}.extra_rounds;
  }
  for (const auto& op : trace->ops) {
    const std::string where = "trace op " + sched::ScheduleTrace{{op}}.serialize() + ": ";
    if (op.from >= cfg.n() || op.to >= cfg.n()) {
      return where + "party out of range 0.." + std::to_string(cfg.n() - 1);
    }
    if (op.kind != sched::ScheduleOp::Kind::Stall && (op.round == 0 || op.round > horizon)) {
      return where + "delivery round outside 1.." + std::to_string(horizon);
    }
  }
  return std::nullopt;
}

}  // namespace bsm::core
