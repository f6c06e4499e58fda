// The repository benchmark: one process, one named workload, end-to-end
// metrics from untraced runs or a per-layer breakdown from traced ones.
//
//   bsm_perfbench --workload grid_sync|grid_gst_jsonl|fuzz_envelope
//                 --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Every workload is a closed batch run at hardware-concurrency workers. An
// op is one grid cell (grid workloads) or one schedule execution
// (fuzz_envelope). The seed derives every input the library sees: grid
// seeds (and through them input, PKI and adversary seeds), schedule seeds,
// and the fuzz seed.
//
// --trace 0 repeats setup + run for S seconds and reports setup_s,
// ops_per_s, cpu_ms_per_op and peak_rss_mb (medians over repetitions).
// --trace 1 alternates an untraced run with a traced one for S seconds
// and reports the per-layer metrics (medians over traced passes). The
// traced passes time each call into a layer from this file and read the
// library's own obs::Recorder spans; nothing inside src/ is changed.
//
// Both modes check outputs: a run fails on a thrown cell, a solvable cell
// that misses a property, or an in-envelope fuzz violation, and the result
// digest must be identical across repetitions, between untraced and
// traced runs, and between the worker count and one thread (checked once,
// untimed). The last stdout line is the JSON result; exit 1 on any failed
// check, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "core/sweep.hpp"
#include "obs/recorder.hpp"
#include "sched/fuzz.hpp"

namespace bsm::perfbench {
namespace {

// ------------------------------------------------------------ measurement

[[nodiscard]] std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[nodiscard]] double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Process user + system CPU seconds, all threads (joined workers included).
[[nodiscard]] double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile (p in (0, 100]) of exact samples.
[[nodiscard]] double percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----------------------------------------------------------------- inputs

/// Independent 64-bit stream `stream` of the workload seed.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ splitmix64(0x9e11b0cULL + stream));
}

/// A small positive seed value from stream `stream` (the library's seed
/// arithmetic is linear in these, so keep them far from overflow).
[[nodiscard]] std::uint64_t small_seed(std::uint64_t seed, std::uint64_t stream) {
  return 1 + derive(seed, stream) % 1'000'000;
}

/// `bsm_cli sweep`'s default axes: every topology, auth on and off, every
/// (tL, tR) budget pair, two workload seeds, the silent / noise / liars /
/// adaptive batteries.
[[nodiscard]] core::SweepGrid default_grid(std::uint64_t seed, std::vector<std::uint32_t> ks) {
  core::SweepGrid grid;
  grid.topologies = {net::TopologyKind::FullyConnected, net::TopologyKind::OneSided,
                     net::TopologyKind::Bipartite};
  grid.auths = {false, true};
  grid.ks = std::move(ks);
  const std::uint64_t base = small_seed(seed, 1);
  grid.seeds = {base, base + 1};
  grid.batteries = {core::Battery::Silent, core::Battery::Noise, core::Battery::Liars,
                    core::Battery::AdaptiveCrash};
  return grid;
}

[[nodiscard]] core::SweepGrid grid_sync_grid(std::uint64_t seed) {
  return default_grid(seed, {3, 4, 5});
}

/// k in {3, 4} under EventualSynchrony: gst in {0, 2, 4} x 2 schedule seeds.
[[nodiscard]] core::SweepGrid grid_gst_grid(std::uint64_t seed) {
  core::SweepGrid grid = default_grid(seed, {3, 4});
  sched::PolicyDesc base;
  base.kind = sched::PolicyDesc::Kind::EventualSynchrony;
  base.seed = small_seed(seed, 2);
  grid.scheds = core::gst_axis(base, {0, 2, 4}, 2);
  return grid;
}

/// k=3, tL=tR=1, liars, fully connected, authenticated.
[[nodiscard]] core::ScenarioSpec fuzz_scenario(std::uint64_t seed) {
  core::ScenarioSpec s;
  s.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 3, 1, 1};
  s.input_seed = small_seed(seed, 3);
  s.pki_seed = small_seed(seed, 4);
  core::apply_battery(s, core::Battery::Liars, small_seed(seed, 5));
  return s;
}

constexpr std::size_t kFuzzExecs = 8192;
constexpr std::size_t kFuzzBatch = 32;
constexpr std::size_t kFuzzChainExecs = 2048;  ///< traced per-exec decomposition sample
constexpr std::size_t kCheckpointEvery = 64;

/// `bsm_cli fuzz`'s defaults (drop + delay ops, corrupt-adjacent envelope)
/// with a fixed exec budget.
[[nodiscard]] sched::FuzzerOptions fuzz_options(std::uint64_t seed, unsigned threads) {
  sched::FuzzerOptions o;
  o.seed = small_seed(seed, 6);
  o.max_execs = kFuzzExecs;
  o.batch = kFuzzBatch;
  o.allow_reorder = false;
  o.threads = threads;
  return o;
}

// ---------------------------------------------------------------- digests

[[nodiscard]] std::uint64_t outcome_digest(const core::RunOutcome& o) {
  std::uint64_t h = splitmix64(o.rounds);
  for (const auto& d : o.decisions) h = hash_combine(h, d.has_value() ? *d : 0xdeadULL);
  for (const std::uint64_t v : o.view_hashes) h = hash_combine(h, v);
  h = hash_combine(h, o.traffic.messages);
  h = hash_combine(h, o.traffic.bytes);
  h = hash_combine(h, o.traffic.delivered_messages);
  h = hash_combine(h, o.traffic.dropped_messages);
  h = hash_combine(h, o.rounds_to_termination);
  h = hash_combine(h, (o.terminated ? 1U : 0U) | (o.round_limit_hit ? 2U : 0U) |
                          (o.report.all() ? 4U : 0U));
  return h;
}

[[nodiscard]] std::uint64_t line_digest(const std::string& line) {
  return fnv1a64(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(line.data()),
                                               line.size()));
}

// ------------------------------------------------------------ run records

/// One untraced run of a workload (the timed call only).
struct RunRecord {
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::string error;  ///< non-empty = a check failed
};

using Metrics = std::map<std::string, double>;

/// One traced pass: its wall time, the digest of what it produced, and
/// the per-layer metrics it measured.
struct TracedRecord {
  double wall_s = 0;
  std::uint64_t digest = 0;
  Metrics metrics;
  std::string error;
};

/// Count a grid's failures: a solvable cell must run and hold all four
/// properties; an unsolvable one must not run; the verdict must match the
/// closed-form oracle.
[[nodiscard]] std::size_t grid_failures(const std::vector<core::CellResult>& results) {
  std::size_t failed = 0;
  for (const auto& r : results) {
    const bool expected = core::solvable(r.scenario.config);
    if (r.solvable != expected || r.outcome.has_value() != expected || (expected && !r.ok())) {
      ++failed;
    }
  }
  return failed;
}

[[nodiscard]] std::uint64_t results_digest(std::uint64_t grid,
                                           const std::vector<core::CellResult>& results) {
  std::uint64_t h = grid;
  for (const auto& r : results) {
    h = hash_combine(h, r.solvable ? 1 : 2);
    if (r.outcome.has_value()) h = hash_combine(h, outcome_digest(*r.outcome));
  }
  return h;
}

// ------------------------------------------------------ traced decomposition

/// Nanoseconds one cell spent in each layer call of the chain.
struct CellTiming {
  std::uint64_t lookup = 0;       ///< core/oracle: OracleCache::lookup
  std::uint64_t materialize = 0;  ///< core/scenario: to_run_spec
  std::uint64_t assemble = 0;     ///< core/runner: assemble_run
  std::uint64_t step = 0;         ///< net: every Engine::run_guarded
  std::uint64_t watermark = 0;    ///< core/runner: first-all-decided scan
  std::uint64_t check = 0;        ///< core/properties: collect_outcome
  std::uint64_t teardown = 0;     ///< core/runner: engine + processes freed
  std::uint64_t total = 0;        ///< the whole cell
  bool ran = false;
};

[[nodiscard]] bool all_honest_decided(const core::AssembledRun& run) {
  for (PartyId id = 0; id < run.config.n(); ++id) {
    if (run.engine.is_corrupt(id)) continue;
    if (!dynamic_cast<const core::BsmProcess&>(run.engine.process(id)).decided()) return false;
  }
  return true;
}

/// run_scenario() + run_bsm() spelled out call by call, each call timed:
/// oracle lookup -> to_run_spec -> assemble_run -> run_guarded per round
/// (with run_bsm's first-all-decided watermark) -> collect_outcome. With
/// `oracle` null the verdict is the closed-form oracle and `fixed` is the
/// resolved protocol (the fuzzer's per-exec path). Must produce exactly
/// run_scenario()'s CellResult; the traced passes assert that.
[[nodiscard]] core::CellResult chain_cell(const core::ScenarioSpec& scenario,
                                          core::OracleCache* oracle,
                                          const std::optional<core::ProtocolSpec>& fixed,
                                          core::SweepArena* arena,
                                          core::OracleCacheStats* counters, CellTiming& t,
                                          std::vector<std::uint64_t>& round_ns) {
  const std::uint64_t c0 = now_ns();
  core::CellResult result;
  result.scenario = scenario;
  std::optional<core::ProtocolSpec> resolved;
  const std::uint64_t l0 = now_ns();
  if (oracle != nullptr) {
    auto verdict = oracle->lookup(core::oracle_key(scenario), scenario.config, counters);
    result.solvable = verdict.solvable;
    resolved = std::move(verdict.protocol);
  } else {
    result.solvable = core::solvable(scenario.config);
    resolved = fixed;
  }
  const std::uint64_t l1 = now_ns();
  t.lookup = l1 - l0;
  if (!result.solvable && !scenario.forced_spec.has_value()) {
    t.total = now_ns() - c0;
    return result;
  }
  t.ran = true;
  std::uint64_t check_end = 0;
  {
    core::RunSpec spec = core::to_run_spec(scenario, arena, resolved);
    const std::uint64_t m1 = now_ns();
    t.materialize = m1 - l1;
    const Round max_rounds = spec.max_rounds;
    core::AssembledRun run = core::assemble_run(std::move(spec));
    const std::uint64_t a1 = now_ns();
    t.assemble = a1 - m1;

    const net::DeliveryPolicy* policy = run.engine.delivery_policy();
    const Round budget = policy != nullptr ? policy->stall_budget() : 0;
    const Round cap = max_rounds != 0
                          ? max_rounds
                          : (run.rounds > UINT32_MAX - budget ? UINT32_MAX : run.rounds + budget);
    bool decided_seen = false;
    Round decided_at = 0;
    bool limit_hit = false;
    for (Round done = 0; done < run.rounds;) {
      const std::uint64_t r0 = now_ns();
      const auto prog = run.engine.run_guarded(1, cap);
      const std::uint64_t r1 = now_ns();
      t.step += r1 - r0;
      round_ns.push_back(r1 - r0);
      if (prog.limit_hit) {
        limit_hit = true;
        break;
      }
      done += prog.protocol_rounds;
      if (!decided_seen && all_honest_decided(run)) {
        decided_seen = true;
        decided_at = run.engine.engine_rounds();
      }
      t.watermark += now_ns() - r1;
    }

    const std::uint64_t k0 = now_ns();
    core::RunOutcome out = core::collect_outcome(run);
    out.rounds_to_termination = decided_seen ? decided_at : 0;
    out.round_limit_hit = limit_hit && !out.terminated;
    result.outcome = std::move(out);
    check_end = now_ns();
    t.check = check_end - k0;
  }  // `run` (engine, PKI, processes) is torn down here
  const std::uint64_t end = now_ns();
  t.teardown = end - check_end;
  t.total = end - c0;
  return result;
}

/// The chain over `cells` on the sweep scheduler run_sweep() uses
/// (work-stealing chunks, one arena and one set of cache counters per
/// worker), so the traced pass has run_sweep()'s shape.
struct ChainPass {
  std::vector<core::CellResult> results;
  std::vector<CellTiming> timing;
  std::vector<std::uint64_t> round_ns;
  core::OracleCacheStats oracle;
  double wall_s = 0;
};

[[nodiscard]] ChainPass run_chain(const std::vector<core::ScenarioSpec>& cells,
                                  core::OracleCache* oracle,
                                  const std::optional<core::ProtocolSpec>& fixed,
                                  unsigned threads) {
  ChainPass pass;
  pass.results.resize(cells.size());
  pass.timing.resize(cells.size());
  const unsigned workers = core::detail::resolve_threads(cells.size(), threads);
  std::vector<core::SweepArena> arenas(workers);
  std::vector<core::OracleCacheStats> counters(workers);
  std::vector<std::vector<std::uint64_t>> rounds(workers);
  const std::uint64_t t0 = now_ns();
  (void)core::detail::parallel_for_workers(
      cells.size(), {threads, core::Schedule::WorkStealing, 0, 0},
      [&](std::size_t i, unsigned w) {
        pass.results[i] = chain_cell(cells[i], oracle, fixed, &arenas[w], &counters[w],
                                     pass.timing[i], rounds[w]);
      });
  pass.wall_s = seconds_since(t0);
  for (const auto& c : counters) pass.oracle += c;
  for (auto& r : rounds) pass.round_ns.insert(pass.round_ns.end(), r.begin(), r.end());
  return pass;
}

// ------------------------------------------------------------ span parsing

/// One captured span as the Chrome trace export renders it.
struct SpanRec {
  std::uint32_t tid = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// What the traced passes read back from the recorder's span capture.
struct SpanTable {
  std::map<std::string, std::uint64_t> total_ns;  ///< Σ duration per span name
  std::vector<SpanRec> chunks;  ///< sweep/chunk
  std::vector<SpanRec> evals;   ///< sched/eval

  [[nodiscard]] double sum(const std::string& name) const {
    const auto it = total_ns.find(name);
    return it == total_ns.end() ? 0.0 : static_cast<double>(it->second);
  }
};

/// Parse "<us>.<3 digits>" after `key` in `line` into nanoseconds.
[[nodiscard]] std::optional<std::uint64_t> field_ns(std::string_view line, std::string_view key) {
  const auto p = line.find(key);
  if (p == std::string_view::npos) return std::nullopt;
  const char* first = line.data() + p + key.size();
  const char* last = line.data() + line.size();
  std::uint64_t us = 0;
  auto r = std::from_chars(first, last, us);
  if (r.ec != std::errc{} || r.ptr == last || *r.ptr != '.') return std::nullopt;
  unsigned frac = 0;
  const char* fstart = r.ptr + 1;
  r = std::from_chars(fstart, last, frac);
  if (r.ec != std::errc{} || r.ptr - fstart != 3) return std::nullopt;
  return us * 1000 + frac;
}

/// Read every "X" event of a Recorder::chrome_trace_json() document. The
/// export writes one event per line in a fixed field order.
[[nodiscard]] SpanTable parse_spans(const obs::Recorder& rec) {
  if (rec.spans_dropped() != 0) throw std::runtime_error("recorder dropped spans");
  SpanTable table;
  const std::string json = rec.chrome_trace_json();
  constexpr std::string_view kName = "\"name\": \"";
  constexpr std::string_view kTid = "\"tid\": ";
  for (std::size_t at = 0; at < json.size();) {
    const std::size_t eol = std::min(json.find('\n', at), json.size());
    const std::string_view line(json.data() + at, eol - at);
    at = eol + 1;
    if (line.find("\"ph\": \"X\"") == std::string_view::npos) continue;
    const auto name_at = line.find(kName);
    const auto tid_at = line.find(kTid);
    const auto ts = field_ns(line, "\"ts\": ");
    const auto dur = field_ns(line, "\"dur\": ");
    std::uint32_t tid = 0;
    if (name_at == std::string_view::npos || tid_at == std::string_view::npos || !ts || !dur ||
        std::from_chars(line.data() + tid_at + kTid.size(), line.data() + line.size(), tid).ec !=
            std::errc{}) {
      throw std::runtime_error("unparseable trace event: " + std::string(line));
    }
    const auto name_begin = name_at + kName.size();
    const std::string name(line.substr(name_begin, line.find('"', name_begin) - name_begin));
    table.total_ns[name] += *dur;
    if (name == "sweep/chunk") table.chunks.push_back({tid, *ts, *ts + *dur});
    if (name == "sched/eval") table.evals.push_back({tid, *ts, *ts + *dur});
  }
  return table;
}

/// Σ over parallel phases of (phase end - first worker idle). A phase is a
/// maximal set of overlapping chunk spans: one run_sweep() call, one
/// stream_sweep() checkpoint block, or one fuzzer wave.
[[nodiscard]] double tail_ns(std::vector<SpanRec> chunks) {
  std::sort(chunks.begin(), chunks.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.start < b.start; });
  double total = 0;
  std::size_t i = 0;
  while (i < chunks.size()) {
    std::uint64_t phase_end = chunks[i].end;
    std::map<std::uint32_t, std::uint64_t> last_end;
    std::size_t j = i;
    for (; j < chunks.size() && chunks[j].start <= phase_end; ++j) {
      phase_end = std::max(phase_end, chunks[j].end);
      auto& e = last_end[chunks[j].tid];
      e = std::max(e, chunks[j].end);
    }
    std::uint64_t first_idle = phase_end;
    for (const auto& [tid, e] : last_end) first_idle = std::min(first_idle, e);
    total += static_cast<double>(phase_end - first_idle);
    i = j;
  }
  return total;
}

/// Length of the union of `spans` (time with at least one in flight).
[[nodiscard]] double union_ns(std::vector<SpanRec> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.start < b.start; });
  double total = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& s : spans) {
    if (open && s.start <= cur_end) {
      cur_end = std::max(cur_end, s.end);
      continue;
    }
    if (open) total += static_cast<double>(cur_end - cur_start);
    cur_start = s.start;
    cur_end = s.end;
    open = true;
  }
  if (open) total += static_cast<double>(cur_end - cur_start);
  return total;
}

/// RAII: a span-capturing recorder installed for one traced pass.
class TraceCapture {
 public:
  TraceCapture() : rec_(obs::Recorder::Options{true, std::size_t{1} << 24}) {
    obs::install(&rec_);
  }
  ~TraceCapture() { obs::install(nullptr); }
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// Uninstall and read back the capture.
  [[nodiscard]] SpanTable finish() {
    obs::install(nullptr);
    return parse_spans(rec_);
  }
  [[nodiscard]] std::uint64_t counter(obs::Counter c) const { return rec_.counter_total(c); }

 private:
  obs::Recorder rec_;
};

/// Per-layer metrics a chain pass measures: the layer shares of Σ cell
/// time, per-call percentiles, exact traffic counts, and the engine
/// spans' split of step time.
void chain_metrics(const ChainPass& pass, const SpanTable& spans, Metrics& m) {
  double lookup = 0, materialize = 0, assemble = 0, step = 0, watermark = 0, check = 0,
         teardown = 0, total = 0;
  std::vector<std::uint64_t> cell_ns, lookup_ns, assemble_ns;
  double rounds = 0, messages = 0, bytes = 0;
  for (std::size_t i = 0; i < pass.timing.size(); ++i) {
    const CellTiming& t = pass.timing[i];
    lookup += static_cast<double>(t.lookup);
    materialize += static_cast<double>(t.materialize);
    assemble += static_cast<double>(t.assemble);
    step += static_cast<double>(t.step);
    watermark += static_cast<double>(t.watermark);
    check += static_cast<double>(t.check);
    teardown += static_cast<double>(t.teardown);
    total += static_cast<double>(t.total);
    cell_ns.push_back(t.total);
    lookup_ns.push_back(t.lookup);
    if (t.ran) assemble_ns.push_back(t.assemble);
    if (const auto& o = pass.results[i].outcome) {
      rounds += static_cast<double>(o->rounds);
      messages += static_cast<double>(o->traffic.messages);
      bytes += static_cast<double>(o->traffic.bytes);
    }
  }
  const double ops = static_cast<double>(pass.timing.size());
  m["oracle.lookup_ns_p50"] = percentile(lookup_ns, 50);
  m["oracle.share"] = ratio(lookup, total);
  m["scenario.materialize_share"] = ratio(materialize, total);
  m["runner.assemble_share"] = ratio(assemble, total);
  m["runner.assemble_us_p50"] = percentile(assemble_ns, 50) / 1e3;
  m["runner.watermark_share"] = ratio(watermark, total);
  m["runner.teardown_share"] = ratio(teardown, total);
  m["net.step_share"] = ratio(step, total);
  m["net.round_us_p50"] = percentile(pass.round_ns, 50) / 1e3;
  m["net.round_us_p99"] = percentile(pass.round_ns, 99) / 1e3;
  m["net.round_samples"] = static_cast<double>(pass.round_ns.size());
  m["net.rounds_per_op"] = ratio(rounds, ops);
  m["net.messages_per_op"] = ratio(messages, ops);
  m["net.bytes_per_op"] = ratio(bytes, ops);
  m["net.assemble_share"] = ratio(spans.sum("engine/assemble"), step);
  m["net.policy_share"] = ratio(spans.sum("engine/policy"), step);
  m["net.deliver_share"] = ratio(spans.sum("engine/deliver"), step);
  m["net.on_round_share"] = ratio(spans.sum("engine/on_round"), step);
  m["properties.check_share"] = ratio(check, total);
  m["cell.ms_p50"] = percentile(cell_ns, 50) / 1e6;
  m["cell.ms_p99"] = percentile(cell_ns, 99) / 1e6;
  m["cell.samples"] = ops;
  m["cell.unattributed_share"] =
      1.0 - ratio(lookup + materialize + assemble + step + watermark + check + teardown, total);
}

/// The chain must reproduce run_scenario() exactly, cell by cell. The
/// reference is an untraced run_sweep() with a fresh cache, computed once
/// per input into `reference` (the comparison is per input, not per run).
[[nodiscard]] std::string check_chain(const std::vector<core::ScenarioSpec>& cells,
                                      unsigned threads,
                                      const std::vector<core::CellResult>& chain,
                                      std::vector<core::CellResult>& reference) {
  if (reference.empty()) {
    core::OracleCache cache;
    core::SweepOptions opts;
    opts.threads = threads;
    opts.oracle = &cache;
    reference = core::run_sweep(cells, opts);
  }
  if (grid_failures(chain) != 0) return "traced chain: failing cells";
  if (chain.size() != reference.size()) return "traced chain: cell count differs";
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].solvable != reference[i].solvable || chain[i].outcome != reference[i].outcome) {
      return "traced chain: cell " + std::to_string(i) + " differs from run_scenario";
    }
  }
  return {};
}

// -------------------------------------------------------------- workloads

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build fresh state for the next run, as a new process would see it;
  /// returns the seconds it took (the setup_s sample).
  virtual double setup(unsigned threads) = 0;
  /// The untraced, timed call on the state setup() built.
  [[nodiscard]] virtual RunRecord run() = 0;
  /// One traced pass on the state setup() built.
  [[nodiscard]] virtual TracedRecord traced() = 0;
};

/// The characterization grid through run_sweep(), synchronous schedule.
class GridSync final : public Workload {
 public:
  explicit GridSync(std::uint64_t seed) : grid_(grid_sync_grid(seed)) {}

  double setup(unsigned threads) override {
    const std::uint64_t t0 = now_ns();
    threads_ = threads;
    cells_ = grid_.cells();
    cache_ = std::make_unique<core::OracleCache>();
    return seconds_since(t0);
  }

  RunRecord run() override {
    RunRecord r;
    core::SweepOptions opts;
    opts.threads = threads_;
    opts.oracle = cache_.get();
    const double c0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    std::vector<core::CellResult> results;
    try {
      results = core::run_sweep(cells_, opts);
    } catch (const std::exception& e) {
      r.error = std::string("run_sweep threw: ") + e.what();
    }
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    r.ops = cells_.size();
    if (!r.error.empty()) {
      r.failed = r.ops;
      return r;
    }
    r.failed = grid_failures(results);
    r.digest = results_digest(core::grid_digest(cells_), results);
    return r;
  }

  TracedRecord traced() override {
    TracedRecord tr;
    TraceCapture capture;
    ChainPass pass = run_chain(cells_, cache_.get(), std::nullopt, threads_);
    const SpanTable spans = capture.finish();
    tr.wall_s = pass.wall_s;
    tr.digest = results_digest(core::grid_digest(cells_), pass.results);
    tr.error = check_chain(cells_, threads_, pass.results, reference_);

    Metrics& m = tr.metrics;
    chain_metrics(pass, spans, m);
    double cell_total = 0;
    for (const auto& t : pass.timing) cell_total += static_cast<double>(t.total);
    m["sweep.busy_share"] = ratio(cell_total * 1e-9, threads_used() * pass.wall_s);
    m["sweep.tail_ms"] = tail_ns(spans.chunks) / 1e6;
    m["sweep.chunks"] = static_cast<double>(capture.counter(obs::Counter::Chunks));
    m["sweep.steals"] = static_cast<double>(capture.counter(obs::Counter::Steals));
    m["oracle.lookups"] = static_cast<double>(pass.oracle.lookups());
    m["oracle.hit_ratio"] = pass.oracle.hit_rate();
    return tr;
  }

 private:
  [[nodiscard]] double threads_used() const {
    return core::detail::resolve_threads(cells_.size(), threads_);
  }

  core::SweepGrid grid_;
  unsigned threads_ = 0;
  std::vector<core::ScenarioSpec> cells_;
  std::unique_ptr<core::OracleCache> cache_;
  std::vector<core::CellResult> reference_;
};

/// Partial-synchrony settings streamed as one 1/1 JSONL shard to a file.
class GridGstJsonl final : public Workload {
 public:
  GridGstJsonl(std::uint64_t seed, std::filesystem::path out_path)
      : grid_(grid_gst_grid(seed)), path_(std::move(out_path)) {}

  double setup(unsigned threads) override {
    const std::uint64_t t0 = now_ns();
    threads_ = threads;
    cells_ = grid_.cells();
    cache_ = std::make_unique<core::OracleCache>();
    out_.reset();
    std::filesystem::remove(path_);
    out_ = std::make_unique<std::ofstream>(path_, std::ios::binary | std::ios::trunc);
    if (!*out_) throw std::runtime_error("cannot open " + path_.string());
    return seconds_since(t0);
  }

  RunRecord run() override {
    RunRecord r;
    const double c0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    core::StreamStats st;
    try {
      st = core::stream_sweep(cells_, stream_options(), *out_);
      out_->close();
    } catch (const std::exception& e) {
      r.error = std::string("stream_sweep threw: ") + e.what();
    }
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    r.ops = cells_.size();
    if (r.error.empty()) r.error = check_file(st, r.failed);
    if (!r.error.empty() && r.failed == 0) r.failed = r.ops;
    r.digest = hash_combine(core::grid_digest(cells_), st.digest);
    return r;
  }

  TracedRecord traced() override {
    TracedRecord tr;
    Metrics& m = tr.metrics;
    {
      // Pass 1: stream_sweep itself, for the scheduler and writer layers.
      TraceCapture capture;
      const std::uint64_t t0 = now_ns();
      core::StreamStats st = core::stream_sweep(cells_, stream_options(), *out_);
      out_->close();
      tr.wall_s = seconds_since(t0);
      const SpanTable spans = capture.finish();
      std::size_t failed = 0;
      tr.error = check_file(st, failed);
      tr.digest = hash_combine(core::grid_digest(cells_), st.digest);
      const double wall_ns = tr.wall_s * 1e9;
      m["shard.emit_share"] =
          ratio(spans.sum("shard/emit") + spans.sum("shard/flush"), wall_ns);
      m["shard.blocks"] = static_cast<double>(capture.counter(obs::Counter::Flushes));
      m["shard.bytes_written"] = static_cast<double>(std::filesystem::file_size(path_));
      m["sweep.busy_share"] = ratio(spans.sum("sweep/cell"), threads_used() * wall_ns);
      m["sweep.tail_ms"] = tail_ns(spans.chunks) / 1e6;
      m["sweep.chunks"] = static_cast<double>(capture.counter(obs::Counter::Chunks));
      m["sweep.steals"] = static_cast<double>(capture.counter(obs::Counter::Steals));
      m["oracle.lookups"] = static_cast<double>(st.sweep.oracle.lookups());
      m["oracle.hit_ratio"] = st.sweep.oracle.hit_rate();
    }
    {
      // Pass 2: the per-cell chain over the same cells with a fresh cache,
      // for the layers below the scheduler.
      core::OracleCache cache;
      TraceCapture capture;
      ChainPass pass = run_chain(cells_, &cache, std::nullopt, threads_);
      const SpanTable spans = capture.finish();
      chain_metrics(pass, spans, m);
      if (tr.error.empty()) tr.error = check_chain(cells_, threads_, pass.results, reference_);
    }
    return tr;
  }

 private:
  [[nodiscard]] core::StreamOptions stream_options() const {
    core::StreamOptions o;
    o.checkpoint_every = kCheckpointEvery;
    o.sweep.threads = threads_;
    o.sweep.oracle = cache_.get();
    return o;
  }

  [[nodiscard]] double threads_used() const {
    return core::detail::resolve_threads(kCheckpointEvery, threads_);
  }

  /// Read the written shard back: header, one line per cell in grid order
  /// with the oracle's verdict, checkpoints every 64 cells, the summary,
  /// and the stream's own digest of the cell lines. `failed` counts cells
  /// whose properties did not all hold.
  [[nodiscard]] std::string check_file(const core::StreamStats& st, std::size_t& failed) {
    std::ifstream in(path_, std::ios::binary);
    std::string line;
    if (!std::getline(in, line) || line.rfind("{\"type\": \"header\"", 0) != 0) {
      return "jsonl: missing header";
    }
    std::uint64_t digest = 0;
    std::size_t cell = 0, ran = 0, checkpoints = 0;
    bool summary = false;
    while (std::getline(in, line)) {
      if (summary) return "jsonl: line after summary";
      if (line.rfind("{\"type\": \"cell\", \"cell\": " + std::to_string(cell) + ",", 0) == 0) {
        if (cell >= cells_.size()) return "jsonl: too many cells";
        const bool solvable = core::solvable(cells_[cell].config);
        const bool says = line.find("\"solvable\": true") != std::string::npos;
        const bool has_run = line.find("\"all_properties\": ") != std::string::npos;
        if (says != solvable || has_run != solvable) {
          return "jsonl: cell " + std::to_string(cell) + " verdict";
        }
        if (has_run) {
          ++ran;
          if (line.find("\"all_properties\": true") == std::string::npos) ++failed;
        }
        digest = hash_combine(digest, line_digest(line));
        ++cell;
      } else if (line == core::jsonl_checkpoint_line(cell)) {
        ++checkpoints;
      } else if (line == core::jsonl_summary_line(cells_.size(), ran, failed == 0)) {
        summary = true;
      } else {
        return "jsonl: unexpected line before cell " + std::to_string(cell);
      }
    }
    if (!summary || cell != cells_.size()) return "jsonl: incomplete document";
    if (checkpoints != (cells_.size() - 1) / kCheckpointEvery) return "jsonl: checkpoint count";
    if (digest != st.digest || ran != st.ran) return "jsonl: file disagrees with stream stats";
    return {};
  }

  core::SweepGrid grid_;
  std::filesystem::path path_;
  unsigned threads_ = 0;
  std::vector<core::ScenarioSpec> cells_;
  std::unique_ptr<core::OracleCache> cache_;
  std::unique_ptr<std::ofstream> out_;
  std::vector<core::CellResult> reference_;
};

/// The greybox schedule fuzzer on one in-envelope setting.
class FuzzEnvelope final : public Workload {
 public:
  explicit FuzzEnvelope(std::uint64_t seed) : seed_(seed), scenario_(fuzz_scenario(seed)) {}

  double setup(unsigned threads) override {
    threads_ = threads;
    fuzzer_.reset();
    const std::uint64_t t0 = now_ns();
    fuzzer_.emplace(scenario_, fuzz_options(seed_, threads));
    return seconds_since(t0);
  }

  RunRecord run() override {
    RunRecord r;
    const double c0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    sched::FuzzReport report;
    try {
      report = fuzzer_->run();
    } catch (const std::exception& e) {
      r.error = std::string("Fuzzer::run threw: ") + e.what();
    }
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    r.ops = r.error.empty() ? report.execs : kFuzzExecs;
    r.failed = r.error.empty() ? report.violations : r.ops;
    if (r.error.empty()) r.error = check_report(report);
    r.digest = report_digest(report);
    return r;
  }

  TracedRecord traced() override {
    TracedRecord tr;
    Metrics& m = tr.metrics;
    double eval_p50_us = 0;
    {
      // Pass 1: Fuzzer::run itself, for the sched and scheduler layers.
      TraceCapture capture;
      const std::uint64_t t0 = now_ns();
      const sched::FuzzReport report = fuzzer_->run();
      tr.wall_s = seconds_since(t0);
      const SpanTable spans = capture.finish();
      tr.error = check_report(report);
      tr.digest = report_digest(report);
      std::vector<std::uint64_t> eval_ns;
      for (const auto& e : spans.evals) eval_ns.push_back(e.end - e.start);
      const double wall_ns = tr.wall_s * 1e9;
      const double threads = core::detail::resolve_threads(kFuzzBatch, threads_);
      eval_p50_us = percentile(eval_ns, 50) / 1e3;
      m["sched.eval_us_p50"] = eval_p50_us;
      m["sched.eval_us_p99"] = percentile(eval_ns, 99) / 1e3;
      m["sched.eval_samples"] = static_cast<double>(eval_ns.size());
      m["sched.fuzz_busy_share"] = ratio(spans.sum("sched/eval"), threads * wall_ns);
      m["sched.fuzz_serial_share"] = ratio(wall_ns - union_ns(spans.evals), wall_ns);
      m["sched.fuzz_coverage"] = static_cast<double>(report.coverage);
      m["sched.fuzz_corpus_size"] = static_cast<double>(report.corpus_size);
      m["sweep.busy_share"] = m["sched.fuzz_busy_share"];
      m["sweep.tail_ms"] = tail_ns(spans.chunks) / 1e6;
      m["sweep.chunks"] = static_cast<double>(capture.counter(obs::Counter::Chunks));
      m["sweep.steals"] = static_cast<double>(capture.counter(obs::Counter::Steals));
    }
    {
      // Pass 2: the per-exec chain over mutated in-envelope schedules.
      std::vector<core::ScenarioSpec> execs = chain_execs();
      const auto resolved = core::resolve_protocol(scenario_.config);
      TraceCapture capture;
      ChainPass pass = run_chain(execs, nullptr, resolved, threads_);
      const SpanTable spans = capture.finish();
      chain_metrics(pass, spans, m);
      for (const auto& r : pass.results) {
        if (!r.ok() && tr.error.empty()) tr.error = "traced chain: in-envelope violation";
      }
      // The issue's per-exec measure: assemble time against a whole eval.
      m["runner.assemble_share"] = ratio(m["runner.assemble_us_p50"], eval_p50_us);
      m["oracle.lookups"] = 0;
      m["oracle.hit_ratio"] = 0;
      m["oracle.lookup_ns_p50"] = 0;
      m["oracle.share"] = 0;
    }
    return tr;
  }

 private:
  [[nodiscard]] std::string check_report(const sched::FuzzReport& report) const {
    if (report.violations != 0) return "fuzz: in-envelope violation";
    if (report.execs != kFuzzExecs) return "fuzz: exec budget not spent";
    return {};
  }

  [[nodiscard]] static std::uint64_t report_digest(const sched::FuzzReport& r) {
    std::uint64_t h = splitmix64(r.execs);
    for (const std::size_t v : {r.corpus_size, r.corpus_loaded, r.coverage, r.interesting,
                                r.violations, r.shrink_runs}) {
      h = hash_combine(h, v);
    }
    if (r.counterexample) h = hash_combine(h, r.counterexample->digest());
    return h;
  }

  /// kFuzzChainExecs in-envelope schedules from the fuzzer's own mutation
  /// operator (each mutating a random earlier one), as Scripted cells.
  [[nodiscard]] std::vector<core::ScenarioSpec> chain_execs() const {
    Rng rng(derive(seed_, 7));
    std::vector<sched::ScheduleTrace> traces{sched::ScheduleTrace{}};
    while (traces.size() < kFuzzChainExecs) {
      const sched::ScheduleTrace& parent = traces[rng.next() % traces.size()];
      traces.push_back(fuzzer_->mutate(parent, nullptr, rng));
    }
    std::vector<core::ScenarioSpec> cells;
    cells.reserve(traces.size());
    for (auto& t : traces) {
      core::ScenarioSpec s = scenario_;
      s.sched.kind = sched::PolicyDesc::Kind::Scripted;
      s.sched.trace = std::move(t);
      cells.push_back(std::move(s));
    }
    return cells;
  }

  std::uint64_t seed_;
  core::ScenarioSpec scenario_;
  unsigned threads_ = 0;
  std::optional<sched::Fuzzer> fuzzer_;
};

// ---------------------------------------------------------------- report

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MB"}};

constexpr MetricSpec kPerLayer[] = {
    {"sweep.busy_share", "ratio"},
    {"sweep.tail_ms", "ms"},
    {"sweep.chunks", "count"},
    {"sweep.steals", "count"},
    {"oracle.lookups", "count"},
    {"oracle.hit_ratio", "ratio"},
    {"oracle.lookup_ns_p50", "ns"},
    {"oracle.share", "ratio"},
    {"scenario.materialize_share", "ratio"},
    {"runner.assemble_share", "ratio"},
    {"runner.assemble_us_p50", "us"},
    {"runner.watermark_share", "ratio"},
    {"runner.teardown_share", "ratio"},
    {"net.step_share", "ratio"},
    {"net.round_us_p50", "us"},
    {"net.round_us_p99", "us"},
    {"net.round_samples", "count"},
    {"net.rounds_per_op", "count"},
    {"net.messages_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.assemble_share", "ratio"},
    {"net.deliver_share", "ratio"},
    {"net.on_round_share", "ratio"},
    {"net.policy_share", "ratio"},
    {"properties.check_share", "ratio"},
    {"cell.ms_p50", "ms"},
    {"cell.ms_p99", "ms"},
    {"cell.samples", "count"},
    {"cell.unattributed_share", "ratio"},
    {"shard.emit_share", "ratio"},
    {"shard.blocks", "count"},
    {"shard.bytes_written", "B"},
    {"sched.eval_us_p50", "us"},
    {"sched.eval_us_p99", "us"},
    {"sched.eval_samples", "count"},
    {"sched.fuzz_busy_share", "ratio"},
    {"sched.fuzz_serial_share", "ratio"},
    {"sched.fuzz_coverage", "count"},
    {"sched.fuzz_corpus_size", "count"},
    {"obs.trace_overhead", "ratio"},
};

[[nodiscard]] std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

template <std::size_t N>
void print_result(const MetricSpec (&specs)[N], const Metrics& values, bool correct,
                  std::size_t attempted, std::size_t failed) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-28s %14.6g %s\n", s.name, v, s.unit);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + s.name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
            s.unit + "\"}";
  }
  json += "}}";
  std::printf("%-28s %14.6g %s\n", "fail_ratio",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 0;
  std::string out_dir = ".";
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 != 1 || !have_workload || !(a.seconds > 0)) return std::nullopt;
  a.threads = std::max(1U, std::thread::hardware_concurrency());
  return a;
}

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "grid_sync") return std::make_unique<GridSync>(a.seed);
  if (a.workload == "grid_gst_jsonl") {
    std::filesystem::create_directories(a.out_dir);
    return std::make_unique<GridGstJsonl>(a.seed,
                                          std::filesystem::path(a.out_dir) / "grid_gst.jsonl");
  }
  if (a.workload == "fuzz_envelope") return std::make_unique<FuzzEnvelope>(a.seed);
  return nullptr;
}

/// Fold one run's checks into the invocation's verdict.
struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<std::uint64_t> digest;

  void note(const RunRecord& r, const char* what) {
    attempted += r.ops;
    failed += r.failed;
    if (!r.error.empty()) fail(std::string(what) + ": " + r.error);
    if (r.failed != 0) fail(std::string(what) + ": " + std::to_string(r.failed) + " failed ops");
    match(r.digest, what);
  }

  void match(std::uint64_t d, const std::string& what) {
    if (!digest) digest = d;
    if (*digest != d) fail(what + ": result digest differs");
  }

  void fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct = false;
  }
};

int run_main(const Args& a) {
  auto workload = make_workload(a);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  Verdict verdict;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
  Metrics values;

  // Warm-up run (fills the allocator, gives the reference digest).
  (void)workload->setup(a.threads);
  verdict.note(workload->run(), "warm-up");

  if (!a.trace) {
    std::vector<double> setup_s, ops_per_s, cpu_ms;
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < budget_ns || ops_per_s.size() < 3) {
      setup_s.push_back(workload->setup(a.threads));
      const RunRecord r = workload->run();
      verdict.note(r, "timed run");
      ops_per_s.push_back(ratio(static_cast<double>(r.ops), r.wall_s));
      cpu_ms.push_back(ratio(r.cpu_s * 1e3, static_cast<double>(r.ops)));
      std::fprintf(stderr, "run %zu: setup %.6f s, %zu ops in %.4f s wall, %.4f s cpu\n",
                   ops_per_s.size(), setup_s.back(), r.ops, r.wall_s, r.cpu_s);
    }
    while (setup_s.size() < 51) setup_s.push_back(workload->setup(a.threads));
    values["setup_s"] = median(setup_s);
    values["ops_per_s"] = median(ops_per_s);
    values["cpu_ms_per_op"] = median(cpu_ms);
    values["peak_rss_mb"] = peak_rss_mb();
    std::printf("workload %s seed %llu threads %u: %zu timed runs\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.threads, ops_per_s.size());
  } else {
    std::vector<double> untraced_s, traced_s;
    std::map<std::string, std::vector<double>> samples;
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < budget_ns || traced_s.empty()) {
      (void)workload->setup(a.threads);
      const RunRecord r = workload->run();
      verdict.note(r, "untraced run");
      untraced_s.push_back(r.wall_s);
      (void)workload->setup(a.threads);
      const TracedRecord t = workload->traced();
      if (!t.error.empty()) verdict.fail("traced run: " + t.error);
      verdict.match(t.digest, "traced run");
      traced_s.push_back(t.wall_s);
      for (const auto& [k, v] : t.metrics) samples[k].push_back(v);
    }
    for (const auto& [k, v] : samples) values[k] = median(v);
    values["obs.trace_overhead"] = median(traced_s) / median(untraced_s) - 1.0;
    std::printf("workload %s seed %llu threads %u: %zu traced passes, peak rss %.1f MB\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.threads,
                traced_s.size(), peak_rss_mb());
  }

  // Thread-count invariance, once, untimed.
  (void)workload->setup(1);
  const RunRecord serial = workload->run();
  if (!serial.error.empty() || serial.failed != 0) verdict.fail("1-thread run: " + serial.error);
  verdict.match(serial.digest, "1-thread run");

  if (a.trace) {
    print_result(kPerLayer, values, verdict.correct, verdict.attempted, verdict.failed);
  } else {
    print_result(kEndToEnd, values, verdict.correct, verdict.attempted, verdict.failed);
  }
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace bsm::perfbench

int main(int argc, char** argv) {
  const auto args = bsm::perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: bsm_perfbench --workload grid_sync|grid_gst_jsonl|fuzz_envelope "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    return bsm::perfbench::run_main(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
