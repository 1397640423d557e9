// Layer probes: fixed-input timings of single public calls. Every traced run
// makes them, whatever its workload, so the device-model, deck and solver
// metrics are measured the same way on every workload.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_circuits/generator.hpp"
#include "cell/multibit_latch.hpp"
#include "cell/standard_latch.hpp"
#include "mtj/model.hpp"
#include "reliability/montecarlo.hpp"
#include "sim/xlogic_sim.hpp"
#include "spice/analysis.hpp"
#include "spice/mosfet.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nvff;

namespace {

constexpr double kMcStep = 4e-12; ///< the Monte-Carlo campaign's default step

double elapsed_ns(Clock::time_point since, long calls) {
  return seconds_since(since) * 1e9 / static_cast<double>(calls);
}

/// Every MOSFET of a deck's circuit.
std::vector<const spice::Mosfet*> mosfets(const spice::Circuit& circuit) {
  std::vector<const spice::Mosfet*> out;
  for (const auto& d : circuit.devices())
    if (const auto* m = dynamic_cast<const spice::Mosfet*>(d.get())) out.push_back(m);
  return out;
}

struct SolveProbe {
  double ms = 0.0;
  long steps = 0;
  bool ok = false;
};

/// One power-cycle transient on a freshly patched deck, as a trial runs it.
template <typename Deck>
SolveProbe solve_power_cycle(Deck& deck, const cell::TechCorner& corner,
                             long& fastSolves, long& denseSolves) {
  deck.patch(corner);
  spice::Simulator sim(deck.compiled, deck.ws);
  spice::TransientOptions opt;
  opt.tStop = deck.inst.tEnd;
  opt.dt = kMcStep;
  SolveProbe p;
  const long fast0 = deck.ws.lu.fast_solve_count();
  const long dense0 = deck.ws.lu.dense_solve_count();
  const Clock::time_point t0 = Clock::now();
  spice::SolveReport report;
  {
    Span s("spice.run_transient");
    report = sim.run_transient(opt, [&](double, const spice::Solution&) { ++p.steps; });
  }
  p.ms = seconds_since(t0) * 1e3;
  p.steps -= 1; // the observer also sees the t = 0 operating point
  p.ok = report.ok();
  fastSolves += deck.ws.lu.fast_solve_count() - fast0;
  denseSolves += deck.ws.lu.dense_solve_count() - dense0;
  return p;
}

/// Median DC operating-point time over a few solves of a patched deck [ms].
template <typename Deck>
double dc_op_ms(Deck& deck, const cell::TechCorner& corner, bool& ok) {
  deck.patch(corner);
  spice::Simulator sim(deck.compiled, deck.ws);
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    spice::Solution x;
    const Clock::time_point t0 = Clock::now();
    Span s("spice.solve_dc");
    ok = sim.solve_dc(x).ok() && ok;
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

} // namespace

void run_layer_probes(const Options& o, Report& r) {
  auto& L = r.perLayer;
  const cell::Technology tech = cell::Technology::table1();
  const cell::TechCorner typical = tech.read_corner(cell::Corner::Typical);
  const cell::PowerCycleTiming timing{};

  // Deck compile: one campaign worker's pool (2 standard + 4 two-bit decks).
  std::vector<std::unique_ptr<cell::StandardPowerCycleDeck>> standard;
  std::vector<std::unique_ptr<cell::MultibitPowerCycleDeck>> proposed;
  std::vector<double> compileMs;
  for (int rep = 0; rep < 3; ++rep) {
    standard.clear();
    proposed.clear();
    const Clock::time_point t0 = Clock::now();
    Span s("cell.deck_compile");
    for (int d = 0; d < 2; ++d)
      standard.push_back(
          std::make_unique<cell::StandardPowerCycleDeck>(tech, typical, d == 1, timing));
    for (int v = 0; v < 4; ++v)
      proposed.push_back(std::make_unique<cell::MultibitPowerCycleDeck>(
          tech, typical, (v & 1) != 0, (v & 2) != 0, timing));
    compileMs.push_back(seconds_since(t0) * 1e3);
  }
  L["cell.deck_compile_ms"] = median(compileMs);

  // Deck patch with per-transistor mismatch draws, as every trial does.
  {
    Rng rng(o.seed);
    const int reps = 200;
    Span s("cell.deck_patch");
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      standard[static_cast<std::size_t>(i % 2)]->patch(typical, &rng, 0.015);
      proposed[static_cast<std::size_t>(i % 4)]->patch(typical, &rng, 0.015);
    }
    L["cell.deck_patch_us"] = elapsed_ns(t0, 2L * reps) * 1e-3;
  }

  // Power-cycle transients on every deck at the typical corner.
  long fast = 0;
  long dense = 0;
  bool ok = true;
  std::vector<double> stdMs;
  std::vector<double> propMs;
  std::vector<double> propSteps;
  for (auto& deck : standard) {
    const SolveProbe p = solve_power_cycle(*deck, typical, fast, dense);
    stdMs.push_back(p.ms);
    ok = ok && p.ok;
  }
  for (auto& deck : proposed) {
    const SolveProbe p = solve_power_cycle(*deck, typical, fast, dense);
    propMs.push_back(p.ms);
    propSteps.push_back(static_cast<double>(p.steps));
    ok = ok && p.ok;
  }
  L["spice.powercycle_solve_ms.standard"] = median(stdMs);
  L["spice.powercycle_solve_ms.proposed"] = median(propMs);
  L["spice.steps_per_cycle"] = median(propSteps);
  L["spice.lu_fast_frac"] =
      fast + dense > 0 ? static_cast<double>(fast) / static_cast<double>(fast + dense) : 0.0;

  // DC operating points of the idle decks (supply on, controls inactive).
  L["spice.dc_op_ms"] =
      0.5 * (dc_op_ms(*standard[0], typical, ok) + dc_op_ms(*proposed[0], typical, ok));
  if (!ok) r.fail(1, "a layer-probe solve did not converge");

  // Device models at a converged operating point.
  {
    cell::MultibitPowerCycleDeck& deck = *proposed[0];
    deck.patch(typical);
    spice::Simulator sim(deck.compiled, deck.ws);
    spice::Solution op;
    sim.solve_dc(op);
    const spice::SimState state = op.as_state();
    const std::vector<const spice::Mosfet*> mos = mosfets(deck.inst.circuit);
    const long reps = 20000;
    double sink = 0.0;
    Span s("spice.mos_ids");
    const Clock::time_point t0 = Clock::now();
    for (long i = 0; i < reps; ++i) sink += mos[static_cast<std::size_t>(i) % mos.size()]->ids(state);
    L["spice.mos_ids_ns"] = elapsed_ns(t0, reps);
    if (!(sink == sink)) r.fail(1, "Mosfet::ids returned NaN");
  }
  {
    const mtj::MtjModel model(typical.mtj);
    const long reps = 200000;
    double sink = 0.0;
    Span s("mtj.resistance");
    const Clock::time_point t0 = Clock::now();
    for (long i = 0; i < reps; ++i) {
      const double bias = -0.5 + static_cast<double>(i % 1000) * 1e-3;
      sink += model.resistance(i % 2 == 0 ? mtj::MtjOrientation::Parallel
                                          : mtj::MtjOrientation::AntiParallel,
                               bias);
    }
    L["mtj.resistance_ns"] = elapsed_ns(t0, reps);
    if (!(sink > 0.0)) r.fail(1, "MtjModel::resistance returned a non-positive sum");
  }

  // X-logic simulation of the powerfail netlist, one clock cycle per call.
  {
    bench::Netlist netlist;
    {
      Span s("bench_circuits.generate_s38584");
      netlist = bench::generate_benchmark(bench::find_benchmark("s38584"));
    }
    sim::XLogicSimulator xs(netlist);
    Rng rng(o.seed);
    std::vector<std::vector<sim::Trit>> inputs(64);
    for (auto& in : inputs)
      for (std::size_t i = 0; i < netlist.inputs().size(); ++i)
        in.push_back(sim::trit_from_bool(rng.chance(0.5)));
    const long reps = 256;
    Span s("sim.xlogic_cycle");
    const Clock::time_point t0 = Clock::now();
    for (long i = 0; i < reps; ++i) xs.cycle(inputs[static_cast<std::size_t>(i) % inputs.size()]);
    L["sim.xlogic_cycle_us"] = elapsed_ns(t0, reps) * 1e-3;
  }

  // Where a Monte-Carlo trial's time goes. Measured: a trial solves two
  // standard power cycles and one 2-bit cycle, so time reliability::run_trial
  // and, right after it on the same thread, Simulator::run_transient on the
  // decks for the same data bits (typical corner, no mismatch). Computed:
  // Mosfet::ids cost x MOSFETs per Newton iteration x iterations per trial.
  {
    reliability::CampaignConfig cfg;
    cfg.seed = o.pins.defaultSeed;
    double trialMs = 0.0;
    double solveMs = 0.0;
    long mosIters = 0;
    const double mosStd = static_cast<double>(mosfets(standard[0]->inst.circuit).size());
    const double mosProp = static_cast<double>(mosfets(proposed[0]->inst.circuit).size());
    for (int t = 0; t < 4; ++t) {
      const Clock::time_point t0 = Clock::now();
      reliability::TrialResult trial;
      {
        Span s("reliability.run_trial", t);
        trial = reliability::run_trial(cfg, t);
      }
      trialMs += seconds_since(t0) * 1e3;
      solveMs += solve_power_cycle(*standard[trial.d0 ? 1 : 0], typical, fast, dense).ms;
      solveMs += solve_power_cycle(*standard[trial.d1 ? 1 : 0], typical, fast, dense).ms;
      solveMs += solve_power_cycle(*proposed[(trial.d0 ? 1 : 0) | (trial.d1 ? 2 : 0)],
                                   typical, fast, dense).ms;
      mosIters += static_cast<long>(mosStd) * trial.standard.iterations +
                  static_cast<long>(mosProp) * trial.proposed.iterations;
    }
    const double mosMs = L["spice.mos_ids_ns"] * static_cast<double>(mosIters) * 1e-6;
    L["spice.transient_share"] = solveMs / trialMs;
    L["spice.mos_ids_share_computed"] = mosMs / trialMs;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "where a trial's time goes (4 trials, %.1f ms each): measured %.1f%% in "
                  "Simulator::run_transient; computed %.1f%% in Mosfet::ids (%.1f ns x "
                  "%.0f/%.0f MOSFETs per standard/2-bit iteration x Newton iterations)",
                  trialMs / 4, 100.0 * solveMs / trialMs, 100.0 * mosMs / trialMs,
                  L["spice.mos_ids_ns"], mosStd, mosProp);
    r.note(line);
  }
}

} // namespace perfbench
