// nvff_perfbench: runs one benchmark workload and prints its metrics.
//
//   nvff_perfbench --workload mc|table2|flow|powerfail --seed N --seconds S
//                  --trace 0|1 --pins FILE --out DIR [--corrupt-output]
//   nvff_perfbench --make-pins --pins FILE [--revision REV]
//
// Human-readable notes go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every op passed its checks. perfbench/run.py builds and runs it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/json.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;

/// Metric name -> unit; must match BENCHMARK.json.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"par_ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
const std::pair<const char*, const char*> kPerLayer[] = {
    {"spice.newton_iters_per_trial", "count"},
    {"spice.newton_iters_per_trial.standard", "count"},
    {"spice.newton_iters_per_trial.proposed", "count"},
    {"spice.subdivisions", "count"},
    {"spice.recovery_retries", "count"},
    {"spice.solver_failures", "count"},
    {"spice.us_per_newton_iter", "us"},
    {"spice.powercycle_solve_ms.proposed", "ms"},
    {"spice.powercycle_solve_ms.standard", "ms"},
    {"spice.steps_per_cycle", "count"},
    {"spice.lu_fast_frac", "frac"},
    {"spice.mos_ids_ns", "ns"},
    {"spice.dc_op_ms", "ms"},
    {"spice.transient_share", "frac"},
    {"spice.mos_ids_share_computed", "frac"},
    {"mtj.resistance_ns", "ns"},
    {"cell.read_ms", "ms"},
    {"cell.write_ms", "ms"},
    {"cell.leakage_ms", "ms"},
    {"cell.deck_compile_ms", "ms"},
    {"cell.deck_patch_us", "us"},
    {"reliability.trial_ms_p50", "ms"},
    {"reliability.trial_ms_p90", "ms"},
    {"runtime.campaign_overhead_frac", "frac"},
    {"runtime.par_efficiency", "frac"},
    {"bench_circuits.generate_ms", "ms"},
    {"physdes.place_ms", "ms"},
    {"physdes.place_ms.b19", "ms"},
    {"core.ff_sites_ms", "ms"},
    {"pairing.pair_ms", "ms"},
    {"pairing.pairs", "count"},
    {"faults.build_context_ms", "ms"},
    {"faults.trial_ms_p50", "ms"},
    {"faults.trial_ms_p90", "ms"},
    {"faults.ops_attempted", "count"},
    {"sim.xlogic_cycle_us", "us"},
    {"sim.cycles_per_trial", "count"},
};

/// Peak resident set of this process image [MB]: VmHWM, which (unlike
/// getrusage's ru_maxrss) does not carry over the launcher's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  if (!(kib > 0.0)) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

template <std::size_t N>
std::string metrics_json(const std::pair<const char*, const char*> (&table)[N],
                         const std::map<std::string, double>& values, Report& r) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(table[i].first);
    if (it == values.end()) r.fail(0, std::string("metric not measured: ") + table[i].first);
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", it == values.end() ? 0.0 : it->second);
    if (i > 0) out += ", ";
    out += "\"" + std::string(table[i].first) + "\": {\"value\": " + value +
           ", \"unit\": \"" + table[i].second + "\"}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: nvff_perfbench --workload mc|table2|flow|powerfail --seed N "
               "--seconds S --trace 0|1 --pins FILE --out DIR [--corrupt-output]\n"
               "       nvff_perfbench --make-pins --pins FILE [--revision REV]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string pinsPath;
  std::string revision = "unknown";
  bool makePins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = value() == "1";
      else if (arg == "--pins") pinsPath = value();
      else if (arg == "--out") o.outDir = value();
      else if (arg == "--corrupt-output") o.corruptOutput = true;
      else if (arg == "--make-pins") makePins = true;
      else if (arg == "--revision") revision = value();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nvff_perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (pinsPath.empty() || (!makePins && (o.workload.empty() || o.outDir.empty())))
    return usage();
  nvff::set_log_level(nvff::LogLevel::Warn);
  o.parThreads = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));

  Report r;
  try {
    o.pins = perfbench::load_pins(pinsPath);
    if (makePins) {
      std::fputs(perfbench::make_pins(o, revision).c_str(), stdout);
      return 0;
    }
    perfbench::run_workload(o, r);
    r.endToEnd["peak_rss_mb"] = peak_rss_mb();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nvff_perfbench: %s\n", e.what());
    return 1;
  }

  const std::string metrics = o.trace ? metrics_json(kPerLayer, r.perLayer, r)
                                      : metrics_json(kEndToEnd, r.endToEnd, r);
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const std::string& line : r.failures) std::printf("FAILED: %s\n", line.c_str());
  const bool correct = r.failed == 0 && r.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              correct ? "true" : "false", r.attempted, std::min(r.failed, r.attempted),
              metrics.c_str());
  return correct ? 0 : 1;
}
