#pragma once
/// \file workloads.hpp
/// \brief The four bench_e2e workloads and the run that measures one.
///
/// Each workload drives real `adept serve --listen` processes (spawned
/// through dist::ServeListener) from this one process with a request
/// stream derived from the seed alone — request i is the same whichever
/// client sends it. A run sets the workload up several times (set-up time
/// is a metric), measures one untraced window, checks the answers against
/// in-process replanning, and — when tracing — replays a fixed prefix of
/// the stream in process with every layer call timed.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "spans.hpp"

namespace adept::e2e {

/// One run's settings (the bench_e2e command line).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the untraced window: the workload sends this many seconds'
  /// worth of requests at its reference rate (BENCHMARK.json run_seconds).
  double seconds = 15.0;
  bool trace = false;     ///< Also replay the traced prefix.
  std::string spans_path; ///< Where the traced run writes its spans.
};

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
struct RunReport {
  std::vector<double> setup_s;  ///< One entry per set-up performed.
  WindowResult window;          ///< The untraced window.
  /// Window statistics; CPU is the serve process's (plus the bench's own
  /// for dist-socket, whose coordinator runs here).
  BlockMedians blocks;
  double peak_rss_mb = 0.0;     ///< Serve VmHWM after the window.
  std::size_t oracle_checked = 0;
  std::size_t mismatches = 0;   ///< Oracle + replay answers that differed.
  std::vector<Metric> layers;   ///< Per-layer metrics (traced runs only).
  LayerTimes layer_times;       ///< Replay spans by layer (traced runs only).
};

/// The minimum answered requests for a valid window: three p99 blocks,
/// so their median is a median.
inline constexpr std::size_t kMinP99Blocks = 3;
inline constexpr std::size_t kMinAnswered = kMinP99Blocks * kP99Block;

/// Runs one workload end to end (see the file comment). Throws
/// adept::Error on an unknown workload or a broken set-up.
RunReport run_workload(const RunConfig& config);

}  // namespace adept::e2e
