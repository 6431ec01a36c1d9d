// Shared declarations of the end-to-end benchmark (hdtn_bench).
//
// hdtn_bench runs every repetition of a workload as a fresh child process of
// itself. The child executes one RepConfig and prints its RepReport on
// stdout; the parent reaps it with wait4 (peak RSS) and aggregates the
// repetitions into the end-to-end and per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.hpp"

namespace hdtn::bench {

/// Full size, or about a tenth of it (the smoke lane).
enum class Scale { kFull, kSmoke };

/// Set-ups per repetition; their median is reported, so one slow set-up (a
/// cold page cache, a scheduler hiccup) does not move setup_s.
inline constexpr int kSetupTrials = 3;

struct RepConfig {
  std::string workload;
  std::uint64_t seed = 1;
  Scale scale = Scale::kFull;
  /// Traced repetitions time the layer calls and keep spans; untraced ones
  /// run with no observer attached.
  bool traced = false;
  /// Directory of the hdtn_bench executable; hdtn_sim sits beside it and
  /// outputs go under it (out/, state/).
  std::string exeDir;
};

/// What one repetition reports back to the parent.
struct RepReport {
  /// Named scalars: times in seconds, counts, ratios.
  std::vector<std::pair<std::string, double>> values;
  /// Submit-to-done seconds of every grid job (service-grid only).
  std::vector<double> turnarounds;
  /// Digest of the repetition's full result (the correctness oracle).
  std::string digest;

  void set(const std::string& name, double value) {
    values.emplace_back(name, value);
  }
};

/// Runs one repetition in this process. Throws std::runtime_error when the
/// workload cannot run (unknown name, daemon failure, bad output).
RepReport runRepetition(const RepConfig& config);

RepReport runNusWorkload(const RepConfig& config);
RepReport runCityWorkload(const RepConfig& config);
RepReport runServiceGrid(const RepConfig& config);

/// SHA-1 prefix over every DeliveryReport and every EngineTotals field.
std::string resultDigest(const core::EngineResult& result);

/// Seconds on the steady clock since an arbitrary fixed origin.
double nowSeconds();

/// Resident set size of this process, MiB (/proc/self/status VmRSS).
double currentRssMib();

/// Value at percentile p (0..100), interpolating linearly between the
/// closest ranks; 0 for no samples.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// Creates the directory and its parents; throws on failure.
void makeDirs(const std::string& path);

/// The host stamp every result JSON carries: nproc, CPU, compiler, build
/// type, git commit, kernel, the state directory's filesystem, and the seed.
std::string environmentJson(const std::string& stateDir, std::uint64_t seed);

}  // namespace hdtn::bench
