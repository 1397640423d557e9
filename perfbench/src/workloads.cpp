#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench_circuits/generator.hpp"
#include "cell/characterize.hpp"
#include "cell/multibit_latch.hpp"
#include "cell/standard_latch.hpp"
#include "core/flow.hpp"
#include "core/reports.hpp"
#include "faults/powerfail.hpp"
#include "pairing/pairing.hpp"
#include "physdes/placement.hpp"
#include "reliability/montecarlo.hpp"
#include "runtime/supervisor.hpp"
#include "tracer.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace nvff;

namespace {

// --- shared -----------------------------------------------------------------

constexpr int kMcPinnedTrials = 32;    ///< the pinned mc campaign (seed 1)
constexpr int kMcRoundTrials = 4;      ///< 1-thread trials per mc round
constexpr int kMcParTrialsPerThread = 8; ///< N-thread trials per thread per round
constexpr double kTable2Step = 2e-12;  ///< Table II transient step [s]
constexpr int kTable2Rows = 6;         ///< 3 corners x 2 designs
constexpr const char* kPowerfailBench = "s38584";
constexpr int kPowerfailTrials = 32;   ///< trials of the pinned powerfail campaign
constexpr int kPowerfailPassTrials = 16; ///< trials per timed powerfail pass
constexpr int kSetupRepeats = 3;
constexpr double kSetupBudgetS = 0.05;

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

/// A seed for pass `index` > 0 of a run, derived from the run's seed.
std::uint64_t pass_seed(std::uint64_t seed, int index) {
  return index == 0 ? seed : seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index);
}

/// Runs `pass` at least once, then again while another pass of the last
/// one's length still fits in `seconds`.
template <typename Pass>
void timed_loop(double seconds, Pass pass) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (int i = 0;; ++i) {
    const Clock::time_point t0 = Clock::now();
    pass(i);
    last = seconds_since(t0);
    if (seconds_since(start) + last > seconds) break;
  }
}

/// Median time of `setup` [s] over at least kSetupRepeats runs, and more
/// (up to 200) while they add up to under kSetupBudgetS, so that a set-up
/// of microseconds is timed as steadily as one of seconds.
template <typename Setup>
double timed_setup(Setup setup) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < static_cast<std::size_t>(kSetupRepeats) ||
         (total < kSetupBudgetS && times.size() < 200)) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
    total += times.back();
  }
  return median(times);
}

/// Self-test hook: the first output checked against a pin is corrupted.
bool gCorruptPending = false;

/// Byte-compares `rendered` with the pinned output of `key` via its digest.
/// A mismatch fails all `ops` ops that produced the output.
void check_pinned(const Options& o, Report& r, const std::string& key,
                  std::string rendered, long ops) {
  if (gCorruptPending && !rendered.empty()) {
    rendered[0] ^= 0x20;
    gCorruptPending = false;
  }
  const std::string got = digest(rendered);
  const auto pin = o.pins.digests.find(key);
  if (pin == o.pins.digests.end()) {
    r.fail(ops, "no pinned digest for " + key);
  } else if (pin->second != got) {
    r.fail(ops, key + " output digest " + got + " != pinned " + pin->second);
  }
}

/// The fastest of a run's timed passes (or trials). A pass is short, about
/// a second, and a run has ten or more: on a shared host the speed can shift
/// by tens of percent for seconds to a minute at a time, so a run's median
/// pass depends on how much of the run fell in a slow stretch, while its
/// fastest pass is the uncontended speed (README.md, "End-to-end metrics").
double best(const std::vector<double>& times) {
  return *std::min_element(times.begin(), times.end());
}

/// Records `seconds` for op `op` of a pass, keeping each op's fastest time
/// across the run's passes. Where every pass repeats the same ops (the rows
/// of Table II, the 13 benchmark flows), the sum of these is the run's
/// uncontended pass time, taken at the finer grain of single ops.
void keep_fastest(std::vector<double>& fastest, std::size_t op, double seconds) {
  if (fastest.size() <= op) fastest.resize(op + 1, seconds);
  fastest[op] = std::min(fastest[op], seconds);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

void set_e2e(Report& r, double opsPerS, double parOpsPerS, double setupS) {
  r.endToEnd["ops_per_s"] = opsPerS;
  r.endToEnd["par_ops_per_s"] = parOpsPerS;
  r.endToEnd["setup_s"] = setupS;
}

void overhead_note(Report& r, const char* what, double tracedS, double untracedS) {
  r.note(fmt("tracing overhead: %+.4f s (%+.2f%%) on a %.3f s ", tracedS - untracedS,
             100.0 * (tracedS / untracedS - 1.0), untracedS) +
         what + fmt(" (traced %.3f s)", tracedS));
}

/// Spans of `name`, durations [ms].
std::vector<double> span_ms(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord* s : Tracer::active()->named(name)) out.push_back(s->ms());
  return out;
}

// --- mc ---------------------------------------------------------------------

reliability::CampaignConfig mc_config(std::uint64_t seed, int trials, int threads) {
  reliability::CampaignConfig c;
  c.seed = seed;
  c.trials = trials;
  c.threads = threads;
  return c;
}

/// The first `n` trials of `full` as a campaign of their own (trial t only
/// depends on (seed, t), so this is what an n-trial campaign computes).
reliability::CampaignResult mc_prefix(const reliability::CampaignResult& full, int n) {
  reliability::CampaignResult out;
  out.config = full.config;
  out.config.trials = n;
  out.config.threads = 1;
  out.trials.assign(full.trials.begin(), full.trials.begin() + n);
  return out;
}

/// Unclassified outcomes are bugs by the engine's own contract.
void mc_invariants(const reliability::CampaignResult& result, Report& r) {
  for (const reliability::TrialResult& t : result.trials) {
    if (t.standard.outcome == reliability::TrialOutcome::Unclassified ||
        t.proposed.outcome == reliability::TrialOutcome::Unclassified)
      r.fail(1, "mc trial " + std::to_string(t.trialId) + " unclassified: " +
                    t.standard.note + t.proposed.note);
  }
}

double mc_margin_p50(const reliability::CampaignResult& result) {
  return result.summarize(reliability::Design::Proposed2Bit).margins.median();
}

/// The pinned campaign (32 trials of the default seed, at N threads): its
/// report must match the pin (the determinism golden for these inputs), and
/// |median 2-bit margin - 1 ps reference| over the reference's trials must
/// be within the stated accuracy. Runs outside every timed loop.
void mc_pinned_checks(const Options& o, Report& r) {
  const reliability::CampaignResult pinned = reliability::run_campaign(
      mc_config(o.pins.defaultSeed, kMcPinnedTrials, o.parThreads));
  r.attempted += kMcPinnedTrials;
  mc_invariants(pinned, r);
  check_pinned(o, r, "mc", reliability::render_report(pinned), kMcPinnedTrials);
  const int n = o.pins.mcReferenceTrials;
  const double err =
      std::fabs(mc_margin_p50(mc_prefix(pinned, n)) - o.pins.mcMarginP50Reference);
  r.note(fmt("mc_margin_p50_err %.6g (stated accuracy %.3g, 4 ps vs 1 ps reference)",
             err, o.pins.mcMarginTolerance));
  if (!(err <= o.pins.mcMarginTolerance))
    r.fail(n, fmt("mc margin p50 error %.6g exceeds %.3g", err, o.pins.mcMarginTolerance));
}

/// One worker's compile-once deck pool, as reliability::run_trial builds it.
void mc_setup() {
  const cell::Technology tech = cell::Technology::table1();
  const cell::TechCorner base = tech.read_corner(cell::Corner::Typical);
  const cell::PowerCycleTiming timing{};
  for (int d = 0; d < 2; ++d)
    cell::StandardPowerCycleDeck deck(tech, base, d == 1, timing);
  for (int v = 0; v < 4; ++v)
    cell::MultibitPowerCycleDeck deck(tech, base, (v & 1) != 0, (v & 2) != 0, timing);
}

/// reliability::run_campaign's supervised loop, with a span per run_trial.
reliability::CampaignResult traced_mc_campaign(const reliability::CampaignConfig& cfg,
                                               const char* spanName) {
  reliability::CampaignResult out;
  out.config = cfg;
  out.trials.resize(static_cast<std::size_t>(cfg.trials));
  Span campaign(spanName);
  runtime::SupervisorConfig sup;
  sup.trials = cfg.trials;
  sup.threads = cfg.threads;
  runtime::CampaignHooks hooks;
  hooks.runTrial = [&](int t, const CancelToken& cancel) {
    Span span("reliability.run_trial", t, campaign.id());
    out.trials[static_cast<std::size_t>(t)] = reliability::run_trial(cfg, t, &cancel);
    return runtime::TrialStatus::Ok;
  };
  runtime::run_supervised(sup, hooks);
  return out;
}

/// Traced 1-thread and N-thread campaigns; fills the reliability, runtime
/// and campaign-level spice metrics. Returns the 1-thread result.
reliability::CampaignResult mc_traced(const Options& o, Report& r, std::uint64_t seed,
                                      int trials1, int trialsPar) {
  const reliability::CampaignResult one =
      traced_mc_campaign(mc_config(seed, trials1, 1), "runtime.campaign_1t");
  const reliability::CampaignResult par =
      traced_mc_campaign(mc_config(seed, trialsPar, o.parThreads), "runtime.campaign_par");
  mc_invariants(one, r);
  mc_invariants(par, r);
  r.attempted += trials1 + trialsPar;
  const int common = std::min(trials1, trialsPar);
  if (reliability::render_report(mc_prefix(one, common)) !=
      reliability::render_report(mc_prefix(par, common)))
    r.fail(common, "traced mc differs between 1 and N threads");

  // The 1-thread campaign's trial spans: all of them ran in that campaign.
  std::vector<double> trialMs;
  const Tracer& tr = *Tracer::active();
  const SpanRecord* camp1 = tr.named("runtime.campaign_1t").back();
  const SpanRecord* campPar = tr.named("runtime.campaign_par").back();
  double parTrialMs = 0.0;
  for (const SpanRecord& s : tr.spans()) {
    if (s.name != "reliability.run_trial" || s.parent < 0) continue;
    const SpanRecord& parent = tr.spans()[static_cast<std::size_t>(s.parent)];
    if (&parent == camp1) trialMs.push_back(s.ms());
    if (&parent == campPar) parTrialMs += s.ms();
  }
  double sumMs = 0.0;
  for (double v : trialMs) sumMs += v;
  long iters = 0;
  long itersStd = 0;
  long subdivisions = 0;
  long retries = 0;
  long solverFailures = 0;
  for (const reliability::TrialResult& t : one.trials) {
    itersStd += t.standard.iterations;
    for (const reliability::DesignTrialResult* d : {&t.standard, &t.proposed}) {
      iters += d->iterations;
      subdivisions += d->subdivisions;
      retries += d->retriesUsed;
      solverFailures += d->outcome == reliability::TrialOutcome::SolverFailure;
    }
  }
  auto& L = r.perLayer;
  L["spice.newton_iters_per_trial"] = static_cast<double>(iters) / trials1;
  L["spice.newton_iters_per_trial.standard"] = static_cast<double>(itersStd) / trials1;
  L["spice.newton_iters_per_trial.proposed"] = static_cast<double>(iters - itersStd) / trials1;
  L["spice.subdivisions"] = static_cast<double>(subdivisions);
  L["spice.recovery_retries"] = static_cast<double>(retries);
  L["spice.solver_failures"] = static_cast<double>(solverFailures);
  L["spice.us_per_newton_iter"] = iters > 0 ? sumMs * 1e3 / iters : 0.0;
  L["reliability.trial_ms_p50"] = median(trialMs);
  L["reliability.trial_ms_p90"] = percentile(trialMs, 0.9);
  L["runtime.campaign_overhead_frac"] = 1.0 - sumMs / camp1->ms();
  const double rate1 = trials1 / camp1->ms();
  const double ratePar = trialsPar / campPar->ms();
  L["runtime.par_efficiency"] = ratePar / (o.parThreads * rate1);
  r.note(fmt("mc traced: %.0f trials at 1 thread in %.3f s; %.0f trials at N threads",
             trials1, camp1->ms() * 1e-3, trialsPar) +
         fmt(" in %.3f s (%.3f s inside run_trial)", campPar->ms() * 1e-3, parTrialMs * 1e-3));
  return one;
}

/// Rounds of a 1-thread campaign and an N-thread campaign of the same seed
/// (4 and 8 N trials), interleaved so both rates sample the same stretch of
/// host time; round r > 0 samples a derived seed. The 1-thread rate is taken
/// per trial: run_campaign's progress hook fires as each trial completes,
/// and at one thread the trials run back to back.
void run_mc(const Options& o, Report& r) {
  const int n = o.parThreads;
  const double setupS = timed_setup(mc_setup);
  std::vector<double> trialS;
  std::vector<double> parPassS;
  timed_loop(o.seconds, [&](int round) {
    const std::uint64_t seed = pass_seed(o.seed, round);
    Clock::time_point t0 = Clock::now();
    Clock::time_point last = t0;
    const reliability::CampaignResult one = reliability::run_campaign(
        mc_config(seed, kMcRoundTrials, 1), "", kMcRoundTrials, [&](int, int) {
          const Clock::time_point now = Clock::now();
          trialS.push_back(std::chrono::duration<double>(now - last).count());
          last = now;
        });
    t0 = Clock::now();
    const reliability::CampaignResult par =
        reliability::run_campaign(mc_config(seed, kMcParTrialsPerThread * n, n));
    parPassS.push_back(seconds_since(t0));
    r.attempted += kMcRoundTrials + kMcParTrialsPerThread * n;
    mc_invariants(one, r);
    mc_invariants(par, r);
    if (reliability::render_report(one) !=
        reliability::render_report(mc_prefix(par, kMcRoundTrials)))
      r.fail(kMcRoundTrials, "mc report differs between 1 and " +
                                 std::to_string(n) + " threads");
  });
  mc_pinned_checks(o, r);
  set_e2e(r, 1.0 / best(trialS), kMcParTrialsPerThread * n / best(parPassS), setupS);
  r.note(fmt("mc: %.0f rounds of %.0f trials at 1 thread", static_cast<double>(parPassS.size()),
             kMcRoundTrials) +
         fmt(" and %.0f at N = %.0f threads", kMcParTrialsPerThread * n, n));
}

/// Untraced 1-thread campaign, then the traced campaigns on the same seed.
void trace_mc(const Options& o, Report& r, Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  const reliability::CampaignResult untraced =
      reliability::run_campaign(mc_config(o.seed, kMcPinnedTrials, 1));
  const double untracedS = seconds_since(t0);
  mc_invariants(untraced, r);
  r.attempted += kMcPinnedTrials;
  mc_pinned_checks(o, r);
  Tracer::enable(&tracer);
  const reliability::CampaignResult traced =
      mc_traced(o, r, o.seed, kMcPinnedTrials, 8 * o.parThreads);
  if (reliability::render_report(traced) != reliability::render_report(untraced))
    r.fail(kMcPinnedTrials, "traced mc campaign differs from run_campaign");
  overhead_note(r, "1-thread mc campaign",
                tracer.named("runtime.campaign_1t").back()->ms() * 1e-3, untracedS);
}

/// Small traced campaigns on the pinned seed, for the other workloads.
void cover_mc(const Options& o, Report& r) {
  mc_traced(o, r, o.pins.defaultSeed, 4, 2 * o.parThreads);
}

// --- table2 -------------------------------------------------------------------

/// Rows must be functional; read energy within the stated accuracy of the
/// 1 ps reference. Returns the worst read-energy error [%].
double table2_checks(const Options& o, Report& r, const core::Table2Result& t) {
  double worstPct = 0.0;
  for (int design = 0; design < 2; ++design) {
    for (int c = 0; c < 3; ++c) {
      const cell::LatchMetrics& m = design == 0 ? t.standard[c] : t.proposed[c];
      if (!m.functional)
        r.fail(1, fmt("Table II row (design %.0f, corner %.0f) not functional", design, c));
      const double ref = o.pins.table2ReadEnergyFj[design][c];
      worstPct = std::max(worstPct, std::fabs(m.readEnergy * 1e15 - ref) / ref * 100.0);
    }
  }
  if (!(worstPct <= o.pins.table2EnergyTolerancePct))
    r.fail(kTable2Rows, fmt("Table II read energy error %.4g%% exceeds %.3g%%", worstPct,
                            o.pins.table2EnergyTolerancePct));
  check_pinned(o, r, "table2", core::render_table2(t), kTable2Rows);
  r.attempted += kTable2Rows;
  return worstPct;
}

void table2_accuracy_note(const Options& o, Report& r, double worstPct) {
  r.note(fmt("table2_energy_err_pct %.6g (stated accuracy %.3g%%, 2 ps vs 1 ps reference)",
             worstPct, o.pins.table2EnergyTolerancePct));
}

/// A Characterizer at the Table II step whose lazily compiled read decks
/// (one standard, four 2-bit) are built, by one restore on each.
std::unique_ptr<cell::Characterizer> table2_setup() {
  auto ch = std::make_unique<cell::Characterizer>();
  ch->timestep = kTable2Step;
  ch->standard_read(cell::Corner::Typical, false);
  for (int v = 0; v < 4; ++v) ch->proposed_read(cell::Corner::Typical, (v & 1) != 0, (v & 2) != 0);
  return ch;
}

/// The calls measure_table2 makes (Characterizer::standard_pair and
/// proposed_2bit per corner), each under a cell.read/write/leakage span.
/// Returns false when a scenario did not restore or switch.
bool table2_traced_pass(const cell::Characterizer& ch) {
  Span pass("core.measure_table2");
  bool ok = true;
  for (const cell::Corner c : {cell::Corner::Worst, cell::Corner::Typical, cell::Corner::Best}) {
    {
      Span s("cell.read");
      ok = ch.standard_read(c, false).correct && ok;
      ok = ch.standard_read(c, true).correct && ok;
    }
    {
      Span s("cell.write");
      ok = ch.standard_write(c, false).switched && ok;
      ok = ch.standard_write(c, true).switched && ok;
    }
    {
      Span s("cell.leakage");
      ch.standard_leakage(c);
    }
    for (int v = 0; v < 4; ++v) {
      Span s("cell.read");
      ok = ch.proposed_read(c, (v & 1) != 0, (v & 2) != 0).correct && ok;
    }
    for (int v = 0; v < 4; ++v) {
      Span s("cell.write");
      ok = ch.proposed_write(c, (v & 1) != 0, (v & 2) != 0).switched && ok;
    }
    {
      Span s("cell.leakage");
      ch.proposed_leakage(c);
    }
  }
  return ok;
}

/// Traced Table II pass; fills the cell layer metrics.
void table2_traced(Report& r, const cell::Characterizer& ch) {
  if (!table2_traced_pass(ch))
    r.fail(kTable2Rows, "traced Table II scenario did not restore or switch");
  r.attempted += kTable2Rows;
  const Tracer& tr = *Tracer::active();
  r.perLayer["cell.read_ms"] = tr.total_ms("cell.read");
  r.perLayer["cell.write_ms"] = tr.total_ms("cell.write");
  r.perLayer["cell.leakage_ms"] = tr.total_ms("cell.leakage");
}

void run_table2(const Options& o, Report& r) {
  // Table II has no random inputs: every seed measures the paper's corners,
  // so every run is checked against the pinned table.
  std::unique_ptr<cell::Characterizer> ch;
  const double setupS = timed_setup([&] { ch = table2_setup(); });
  std::vector<double> rowS;
  double worstPct = 0.0;
  timed_loop(o.seconds, [&](int) {
    // core::measure_table2's loop, timing each row.
    core::Table2Result t;
    const cell::Corner order[3] = {cell::Corner::Worst, cell::Corner::Typical,
                                   cell::Corner::Best};
    for (int i = 0; i < 3; ++i) {
      Clock::time_point t0 = Clock::now();
      t.standard[i] = ch->standard_pair(order[i]);
      keep_fastest(rowS, 2 * i, seconds_since(t0));
      t0 = Clock::now();
      t.proposed[i] = ch->proposed_2bit(order[i]);
      keep_fastest(rowS, 2 * i + 1, seconds_since(t0));
    }
    worstPct = std::max(worstPct, table2_checks(o, r, t));
  });
  table2_accuracy_note(o, r, worstPct);
  set_e2e(r, kTable2Rows / sum(rowS), kTable2Rows / sum(rowS), setupS);
}

void trace_table2(const Options& o, Report& r, Tracer& tracer) {
  const std::unique_ptr<cell::Characterizer> ch = table2_setup();
  const Clock::time_point t0 = Clock::now();
  const core::Table2Result t = core::measure_table2(*ch);
  const double untracedS = seconds_since(t0);
  table2_accuracy_note(o, r, table2_checks(o, r, t));
  Tracer::enable(&tracer);
  table2_traced(r, *ch);
  overhead_note(r, "Table II pass", tracer.total_ms("core.measure_table2") * 1e-3, untracedS);
}

/// Traced set-up and Table II pass, for the other workloads.
void cover_table2(const Options&, Report& r) {
  std::unique_ptr<cell::Characterizer> ch;
  {
    Span s("cell.characterizer_setup");
    ch = table2_setup();
  }
  table2_traced(r, *ch);
}

// --- flow -------------------------------------------------------------------

/// One benchmark's input: the spec and the circuit generated from it.
struct FlowInput {
  bench::BenchmarkSpec spec;
  bench::Netlist netlist;
};

/// The flow's inputs: the paper's 13 benchmarks, generated. A non-default
/// seed regenerates every circuit from another generator seed (same sizes,
/// register widths and locality).
std::vector<FlowInput> flow_inputs(const Options& o, std::uint64_t seed) {
  std::vector<FlowInput> out;
  for (bench::BenchmarkSpec spec : bench::paper_benchmarks()) {
    if (seed != o.pins.defaultSeed) spec.seed = pass_seed(spec.seed ^ seed, 1);
    Span s("bench_circuits.generate", static_cast<int>(out.size()));
    out.push_back({spec, bench::generate_benchmark(spec)});
  }
  return out;
}

/// The options core::run_flow derives from a spec.
core::FlowOptions flow_options(const bench::BenchmarkSpec& spec) {
  core::FlowOptions options;
  options.placer.utilization = spec.utilization;
  return options;
}

void flow_checks(Report& r, const std::vector<FlowInput>& inputs,
                 const std::vector<core::FlowReport>& reports) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::FlowReport& f = reports[i];
    const bench::BenchmarkSpec& spec = inputs[i].spec;
    if (f.totalFlipFlops != static_cast<std::size_t>(spec.flipFlops) ||
        2 * f.pairs > f.totalFlipFlops || f.benchmark != spec.name)
      r.fail(1, "flow " + spec.name + ": inconsistent flip-flop/pair counts");
  }
  r.attempted += static_cast<long>(inputs.size());
}

/// One untraced pass: core::run_flow_on_netlist per benchmark, each one's
/// time kept in `fastest` when given; returns the rendered Table III.
std::string flow_pass(Report& r, const std::vector<FlowInput>& inputs,
                      std::vector<double>* fastest = nullptr) {
  std::vector<core::FlowReport> reports;
  for (const FlowInput& in : inputs) {
    const Clock::time_point t0 = Clock::now();
    reports.push_back(core::run_flow_on_netlist(in.netlist, flow_options(in.spec)));
    if (fastest != nullptr) keep_fastest(*fastest, reports.size() - 1, seconds_since(t0));
  }
  flow_checks(r, inputs, reports);
  return core::render_table3(reports);
}

/// core::run_flow_on_netlist's pipeline with a span around each layer call.
core::FlowReport traced_flow(const FlowInput& in, int index) {
  Span op("core.run_flow", index);
  const core::FlowOptions options = flow_options(in.spec);
  const cell::CmosCellLibrary lib = cell::CmosCellLibrary::tsmc40_like();
  core::FlowReport r;
  r.benchmark = in.netlist.name();
  r.totalFlipFlops = in.netlist.num_flip_flops();
  {
    Span s("physdes.place");
    r.placement = physdes::place(in.netlist, lib, options.placer);
  }
  {
    Span s("core.ff_sites");
    r.ffSites = core::ff_sites_from_placement(r.placement, in.netlist);
  }
  {
    Span s("pairing.pair");
    r.pairing = pairing::pair_flip_flops(r.ffSites, options.pairing);
  }
  r.pairs = r.pairing.num_pairs();
  r.pairedFraction = r.pairing.paired_fraction(r.totalFlipFlops);
  const core::RollUp u = core::roll_up(r.totalFlipFlops, r.pairs, options.cells);
  r.areaStd = u.areaStd;
  r.energyStd = u.energyStd;
  r.areaProp = u.areaProp;
  r.energyProp = u.energyProp;
  r.areaImprovementPct = improvement_percent(u.areaStd, u.areaProp);
  r.energyImprovementPct = improvement_percent(u.energyStd, u.energyProp);
  return r;
}

/// Traced generation and pass; fills the flow layer metrics and returns the
/// rendered Table III.
std::string flow_traced(const Options& o, Report& r, std::uint64_t seed) {
  const std::vector<FlowInput> inputs = flow_inputs(o, seed);
  std::vector<core::FlowReport> reports;
  long pairs = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reports.push_back(traced_flow(inputs[i], static_cast<int>(i)));
    pairs += static_cast<long>(reports.back().pairs);
  }
  flow_checks(r, inputs, reports);
  const Tracer& tr = *Tracer::active();
  auto& L = r.perLayer;
  L["bench_circuits.generate_ms"] = tr.total_ms("bench_circuits.generate");
  L["physdes.place_ms"] = tr.total_ms("physdes.place");
  L["core.ff_sites_ms"] = tr.total_ms("core.ff_sites");
  L["pairing.pair_ms"] = tr.total_ms("pairing.pair");
  L["pairing.pairs"] = static_cast<double>(pairs);
  for (const SpanRecord* s : tr.named("physdes.place"))
    if (inputs[static_cast<std::size_t>(s->trial)].spec.name == "b19")
      L["physdes.place_ms.b19"] = s->ms();
  return core::render_table3(reports);
}

void run_flow(const Options& o, Report& r) {
  std::vector<FlowInput> inputs;
  const double setupS = timed_setup([&] { inputs = flow_inputs(o, o.seed); });
  const long ops = static_cast<long>(inputs.size());
  std::vector<double> flowS;
  timed_loop(o.seconds, [&](int i) {
    const std::string table = flow_pass(r, inputs, &flowS);
    if (i == 0 && o.seed == o.pins.defaultSeed) check_pinned(o, r, "flow", table, ops);
  });
  set_e2e(r, ops / sum(flowS), ops / sum(flowS), setupS);
}

void trace_flow(const Options& o, Report& r, Tracer& tracer) {
  const std::vector<FlowInput> inputs = flow_inputs(o, o.seed);
  const long ops = static_cast<long>(inputs.size());
  const Clock::time_point t0 = Clock::now();
  const std::string untraced = flow_pass(r, inputs);
  const double untracedS = seconds_since(t0);
  if (o.seed == o.pins.defaultSeed) check_pinned(o, r, "flow", untraced, ops);
  Tracer::enable(&tracer);
  const std::string traced = flow_traced(o, r, o.seed);
  overhead_note(r, "flow pass", tracer.total_ms("core.run_flow") * 1e-3, untracedS);
  if (traced != untraced) r.fail(ops, "traced flow differs from core::run_flow_on_netlist");
}

/// Traced generation and pass on the paper's benchmarks, for the other
/// workloads.
void cover_flow(const Options& o, Report& r) {
  const std::string table = flow_traced(o, r, o.pins.defaultSeed);
  check_pinned(o, r, "flow", table, static_cast<long>(bench::paper_benchmarks().size()));
}

// --- powerfail ----------------------------------------------------------------

faults::CampaignConfig powerfail_config(std::uint64_t seed) {
  faults::CampaignConfig c;
  c.benchmark = kPowerfailBench;
  c.trials = kPowerfailTrials;
  c.seed = seed;
  c.threads = 1;
  return c;
}

/// One supervised pass of trials [first, first + n) on a prebuilt context,
/// as faults::run_campaign runs them.
std::vector<faults::TrialResult> powerfail_pass(const faults::CampaignContext& ctx,
                                                int first, int n, int spanParent) {
  std::vector<faults::TrialResult> slots(static_cast<std::size_t>(n));
  runtime::SupervisorConfig sup;
  sup.trials = n;
  sup.threads = 1;
  runtime::CampaignHooks hooks;
  hooks.runTrial = [&](int t, const CancelToken& cancel) {
    Span span("faults.run_trial", first + t, spanParent);
    faults::TrialResult tr = faults::run_trial(ctx, first + t, &cancel);
    const bool timedOut = tr.timedOut;
    slots[static_cast<std::size_t>(t)] = std::move(tr);
    return timedOut ? runtime::TrialStatus::Timeout : runtime::TrialStatus::Ok;
  };
  runtime::run_supervised(sup, hooks);
  return slots;
}

/// Protected arms must never corrupt silently; no trial may time out.
void powerfail_invariants(const faults::CampaignContext& ctx,
                          const std::vector<faults::TrialResult>& trials, Report& r) {
  faults::CampaignResult one;
  one.config = ctx.config;
  for (const faults::TrialResult& t : trials) {
    one.trials.assign(1, t);
    if (t.timedOut || one.count_sdc(true) > 0)
      r.fail(1, "powerfail trial " + std::to_string(t.trialId) +
                    (t.timedOut ? " timed out" : " has a protected-arm SDC"));
  }
}

void powerfail_layer_metrics(Report& r, const faults::CampaignContext& ctx,
                             const std::vector<faults::TrialResult>& trials) {
  const std::vector<double> trialMs = span_ms("faults.run_trial");
  double ops = 0;
  double cycles = 0;
  for (const faults::TrialResult& t : trials) {
    for (const auto& design : t.arms) {
      for (const faults::ArmResult& arm : design) {
        ops += arm.opsAttempted;
        // run_arm simulates the check window unless the protocol flagged it.
        if (arm.present && arm.cls != faults::TrialClass::Detected)
          cycles += ctx.config.checkCycles;
      }
    }
  }
  auto& L = r.perLayer;
  L["faults.build_context_ms"] = Tracer::active()->total_ms("faults.build_context");
  L["faults.trial_ms_p50"] = median(trialMs);
  L["faults.trial_ms_p90"] = percentile(trialMs, 0.9);
  L["faults.ops_attempted"] = ops / trials.size();
  L["sim.cycles_per_trial"] = cycles / trials.size();
}

std::string powerfail_render(const faults::CampaignContext& ctx,
                             std::vector<faults::TrialResult> trials) {
  faults::CampaignResult result;
  result.config = ctx.config;
  result.trials = std::move(trials);
  return faults::render_report(result);
}

/// Passes of 16 trials on one context; pass p runs trials 16p .. 16p + 15 of
/// the run's seed, so the first two passes are the pinned 32-trial campaign.
void run_powerfail(const Options& o, Report& r) {
  const faults::CampaignConfig cfg = powerfail_config(o.seed);
  faults::CampaignContext ctx;
  const double setupS = timed_setup([&] { ctx = faults::build_context(cfg); });
  std::vector<double> passS;
  std::vector<faults::TrialResult> first;
  timed_loop(o.seconds, [&](int i) {
    const Clock::time_point t0 = Clock::now();
    std::vector<faults::TrialResult> pass =
        powerfail_pass(ctx, i * kPowerfailPassTrials, kPowerfailPassTrials, -1);
    passS.push_back(seconds_since(t0));
    r.attempted += kPowerfailPassTrials;
    powerfail_invariants(ctx, pass, r);
    if (first.size() < static_cast<std::size_t>(kPowerfailTrials))
      first.insert(first.end(), pass.begin(), pass.end());
  });
  if (o.seed == o.pins.defaultSeed) {
    if (first.size() < static_cast<std::size_t>(kPowerfailTrials)) {
      const std::vector<faults::TrialResult> rest = powerfail_pass(
          ctx, static_cast<int>(first.size()), kPowerfailTrials - static_cast<int>(first.size()), -1);
      first.insert(first.end(), rest.begin(), rest.end());
    }
    check_pinned(o, r, "powerfail", powerfail_render(ctx, first), kPowerfailTrials);
  }
  set_e2e(r, kPowerfailPassTrials / best(passS), kPowerfailPassTrials / best(passS), setupS);
}

/// Traced build_context and campaign of `trials` trials on `seed`.
std::vector<faults::TrialResult> powerfail_traced(Report& r, std::uint64_t seed, int trials,
                                                  faults::CampaignContext& ctx) {
  faults::CampaignConfig cfg = powerfail_config(seed);
  cfg.trials = trials;
  {
    Span s("faults.build_context");
    ctx = faults::build_context(cfg);
  }
  std::vector<faults::TrialResult> traced;
  {
    Span campaign("runtime.campaign_powerfail");
    traced = powerfail_pass(ctx, 0, trials, campaign.id());
  }
  powerfail_invariants(ctx, traced, r);
  r.attempted += trials;
  powerfail_layer_metrics(r, ctx, traced);
  return traced;
}

void trace_powerfail(const Options& o, Report& r, Tracer& tracer) {
  faults::CampaignContext ctx = faults::build_context(powerfail_config(o.seed));
  const Clock::time_point t0 = Clock::now();
  const std::vector<faults::TrialResult> untraced =
      powerfail_pass(ctx, 0, kPowerfailTrials, -1);
  const double untracedS = seconds_since(t0);
  powerfail_invariants(ctx, untraced, r);
  r.attempted += kPowerfailTrials;
  Tracer::enable(&tracer);
  const std::vector<faults::TrialResult> traced =
      powerfail_traced(r, o.seed, kPowerfailTrials, ctx);
  overhead_note(r, "powerfail pass",
                tracer.total_ms("runtime.campaign_powerfail") * 1e-3, untracedS);
  const std::string text = powerfail_render(ctx, traced);
  if (text != powerfail_render(ctx, untraced))
    r.fail(kPowerfailTrials, "traced powerfail campaign differs from untraced");
  if (o.seed == o.pins.defaultSeed) check_pinned(o, r, "powerfail", text, kPowerfailTrials);
}

/// Small traced campaign on the pinned seed, for the other workloads.
void cover_powerfail(const Options& o, Report& r) {
  faults::CampaignContext ctx;
  powerfail_traced(r, o.pins.defaultSeed, 8, ctx);
}

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
  void (*trace)(const Options&, Report&, Tracer&);
  void (*cover)(const Options&, Report&);
};
constexpr Workload kWorkloads[] = {
    {"mc", run_mc, trace_mc, cover_mc},
    {"table2", run_table2, trace_table2, cover_table2},
    {"flow", run_flow, trace_flow, cover_flow},
    {"powerfail", run_powerfail, trace_powerfail, cover_powerfail},
};

} // namespace

// --- public -----------------------------------------------------------------

std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Pins load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value v = json::parse(text.str(), path);
  Pins p;
  p.defaultSeed = static_cast<std::uint64_t>(v.at("default_seed").as_num());
  for (const auto& [key, value] : v.at("digests").fields) p.digests[key] = value.as_str();
  const json::Value& mc = v.at("reference").at("mc");
  p.mcReferenceTrials = static_cast<int>(mc.at("trials").as_num());
  p.mcMarginP50Reference = mc.at("margin_p50").as_num();
  p.mcMarginTolerance = mc.at("tolerance").as_num();
  const json::Value& t2 = v.at("reference").at("table2");
  for (int c = 0; c < 3; ++c) {
    p.table2ReadEnergyFj[0][c] = t2.at("standard_read_energy_fj").items.at(c).as_num();
    p.table2ReadEnergyFj[1][c] = t2.at("proposed_read_energy_fj").items.at(c).as_num();
  }
  p.table2EnergyTolerancePct = t2.at("tolerance_pct").as_num();
  return p;
}

std::string make_pins(const Options& o, const std::string& revision) {
  constexpr int kRefTrials = 16;
  constexpr double kRefStep = 1e-12;
  Report scratch;
  std::string out = "{\n  \"default_seed\": " + std::to_string(o.pins.defaultSeed) +
                    ",\n  \"digests\": {\n";
  const std::uint64_t seed = o.pins.defaultSeed;
  out += "    \"mc\": \"" +
         digest(reliability::render_report(
             reliability::run_campaign(mc_config(seed, kMcPinnedTrials, o.parThreads)))) +
         "\",\n";
  out += "    \"table2\": \"" + digest(core::render_table2(core::measure_table2(*table2_setup()))) + "\",\n";
  out += "    \"flow\": \"" + digest(flow_pass(scratch, flow_inputs(o, seed))) + "\",\n";
  const faults::CampaignContext ctx = faults::build_context(powerfail_config(seed));
  out += "    \"powerfail\": \"" +
         digest(powerfail_render(ctx, powerfail_pass(ctx, 0, kPowerfailTrials, -1))) +
         "\"\n  },\n";

  reliability::CampaignConfig mcRef = mc_config(seed, kRefTrials, o.parThreads);
  mcRef.timestep = kRefStep;
  const double marginRef = mc_margin_p50(reliability::run_campaign(mcRef));
  cell::Characterizer ch;
  ch.timestep = kRefStep;
  const core::Table2Result t2 = core::measure_table2(ch);
  const auto energies = [&](const cell::LatchMetrics (&rows)[3]) {
    return json::num(rows[0].readEnergy * 1e15) + ", " + json::num(rows[1].readEnergy * 1e15) +
           ", " + json::num(rows[2].readEnergy * 1e15);
  };
  out += "  \"reference\": {\n";
  out += "    \"command\": \"python3 perfbench/run.py --make-pins\",\n";
  out += "    \"revision\": \"" + revision + "\",\n";
  out += "    \"mc\": {\"seed\": " + std::to_string(seed) + ", \"trials\": " +
         std::to_string(kRefTrials) + ", \"timestep_s\": 1e-12, \"margin_p50\": " +
         json::num(marginRef) + ", \"tolerance\": " + json::num(o.pins.mcMarginTolerance) +
         "},\n";
  out += "    \"table2\": {\"timestep_s\": 1e-12, \"standard_read_energy_fj\": [" +
         energies(t2.standard) + "], \"proposed_read_energy_fj\": [" + energies(t2.proposed) +
         "], \"tolerance_pct\": " + json::num(o.pins.table2EnergyTolerancePct) + "}\n";
  out += "  }\n}\n";
  return out;
}

void run_workload(const Options& o, Report& r) {
  gCorruptPending = o.corruptOutput;
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (o.workload == k.name) w = &k;
  if (w == nullptr) throw std::runtime_error("unknown workload " + o.workload);
  if (!o.trace) {
    w->run(o, r);
    return;
  }
  // The traced run: the workload's own traced pass, then a small traced pass
  // of every other workload and the layer probes, so that every per-layer
  // metric is measured in every traced run.
  Tracer tracer;
  const Clock::time_point t0 = Clock::now();
  w->trace(o, r, tracer); // enables the tracer after its untraced pass
  for (const Workload& k : kWorkloads)
    if (&k != w) k.cover(o, r);
  run_layer_probes(o, r);
  Tracer::enable(nullptr);
  r.note(fmt("traced run: %.3f s, %.0f spans", seconds_since(t0),
             static_cast<double>(tracer.spans().size())));
  for (const auto& [layer, ms] : tracer.layer_self_ms())
    r.note("self time " + layer + fmt(" %.3f ms", ms));
  const std::string path = o.outDir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  if (!tracer.write_chrome_json(path)) throw std::runtime_error("cannot write " + path);
  r.note("trace file: " + path);
}

} // namespace perfbench
