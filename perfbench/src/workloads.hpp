// The benchmark's four workloads and the layer probes, over the library's
// public entry points. README.md says why each workload exists and which
// layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Pinned results (pins.json): default-seed output digests and the 1 ps
/// fixed-step accuracy references.
struct Pins {
  std::uint64_t defaultSeed = 1;
  std::map<std::string, std::string> digests; ///< workload -> FNV-1a 64 hex
  int mcReferenceTrials = 0;         ///< trials of the pinned-input campaign
  double mcMarginP50Reference = 0.0; ///< proposed 2-bit margin median at 1 ps
  double mcMarginTolerance = 0.0;    ///< stated accuracy, VDD-normalized
  /// Table II read energy at 1 ps [fJ]: [design: 0 std, 1 prop][corner].
  double table2ReadEnergyFj[2][3] = {};
  double table2EnergyTolerancePct = 0.0; ///< stated accuracy [%]
};

Pins load_pins(const std::string& path);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int parThreads = 1;     ///< min(4, hardware threads)
  std::string outDir;     ///< traces and run summaries go here only
  bool corruptOutput = false; ///< self-test: corrupt the first checked output
  Pins pins;
};

/// What one run produced: op accounting, metrics and human-readable notes.
struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;

  void fail(long ops, const std::string& why) {
    failed += ops;
    failures.push_back(why);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Runs `options.workload`; with options.trace also the traced passes and
/// the layer probes that fill every per-layer metric.
void run_workload(const Options& options, Report& report);

/// Recomputes the pins.json contents (digests at the default seed and the
/// 1 ps references; seed and tolerances from options.pins) as JSON text.
std::string make_pins(const Options& options, const std::string& revision);

// --- shared helpers (workloads.cpp) -----------------------------------------

/// FNV-1a 64-bit digest, as 16 lowercase hex digits.
std::string digest(const std::string& text);
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

// --- layer probes (probes.cpp) ----------------------------------------------

/// Fixed-input timings of single public calls: device models, deck
/// compile/patch, power-cycle solves, DC operating points and the X-logic
/// simulator. Fills the per-layer metrics they own.
void run_layer_probes(const Options& options, Report& report);

} // namespace perfbench
