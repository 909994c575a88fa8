#pragma once
/// \file bench_util.hpp
/// \brief Shared setup for the experiment harnesses (bench_*): canonical
/// parameters, simulation configs, and printing helpers.
///
/// Every harness prints (a) the series/rows the corresponding paper table
/// or figure reports, (b) the paper's own headline numbers for visual
/// comparison, and (c) a one-line shape verdict. Absolute values are not
/// expected to match (our substrate is a simulator, not Grid'5000); the
/// orderings and ratios are.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "model/evaluate.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/planner.hpp"
#include "planner/registry.hpp"
#include "platform/generator.hpp"
#include "sim/simulator.hpp"

namespace adept::bench {

/// Table 3 parameters — all harnesses use the paper's measured values.
inline MiddlewareParams params() { return MiddlewareParams::diet_grid5000(); }

/// RNG seed for a harness's synthetic platforms: `--seed N` (or
/// `--seed=N`) overrides the harness default, so campaign reruns are
/// reproducible — and variable — across bench invocations, matching
/// `adept generate --seed`. A bad or unknown argument is a hard error
/// (exit 2): silently falling back would mislabel the campaign's
/// results.
inline std::uint64_t seed_from_args(int argc, char** argv,
                                    std::uint64_t fallback) {
  ArgParser parser(argv[0] ? argv[0] : "bench", "Experiment harness.");
  parser.add_option("seed", "RNG seed for synthetic platforms",
                    std::to_string(fallback));
  try {
    parser.parse(std::vector<std::string>(argv + 1, argv + argc));
    const long long seed = parser.get_int("seed");
    ADEPT_CHECK(seed >= 0, "--seed must be non-negative");
    return static_cast<std::uint64_t>(seed);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    std::exit(2);
  }
}

/// Plans through the registry — the harnesses exercise the same dispatch
/// path as the CLI and the PlanningService.
inline PlanResult run_planner(const std::string& name, const Platform& platform,
                              const MiddlewareParams& parameters,
                              const ServiceSpec& service,
                              PlanOptions options = {}) {
  return PlannerRegistry::instance().at(name).plan(
      {platform, parameters, service, options});
}

/// Simulation config for figure sweeps: long enough for a stable plateau,
/// short enough that a full figure regenerates in seconds.
inline sim::SimConfig sweep_config() {
  sim::SimConfig config;
  config.warmup = 1.5;
  config.measure = 4.0;
  return config;
}

/// Machine-readable perf-trajectory emitter: one `--json <path>` file per
/// harness run, one record per measured series×size. Future PRs regress
/// against the committed BENCH_*.json files, so the schema is flat and
/// stable: bench name at the top, then records carrying series name,
/// platform size, wall ms, model-evaluation count and predicted
/// throughput, plus free-form numeric extras (speedup ratios, ...).
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(std::string bench) : bench_(std::move(bench)) {}

  struct Record {
    std::string series;
    std::size_t platform_size = 0;
    double wall_ms = 0.0;
    std::uint64_t evaluations = 0;
    double throughput = 0.0;
    std::vector<std::pair<std::string, double>> extra;
  };

  void add(Record record) { records_.push_back(std::move(record)); }

  /// Writes the file; hard error (exit 2) on I/O failure so a missing
  /// trajectory point never passes silently.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write JSON to '" << path << "'\n";
      std::exit(2);
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"series\": \"" << r.series
          << "\", \"platform_size\": " << r.platform_size
          << ", \"wall_ms\": " << num(r.wall_ms)
          << ", \"evaluations\": " << r.evaluations
          << ", \"throughput\": " << num(r.throughput);
      for (const auto& [key, value] : r.extra)
        out << ", \"" << key << "\": " << num(value);
      out << '}' << (i + 1 < records_.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    if (!out.good()) {
      std::cerr << "error: short write to '" << path << "'\n";
      std::exit(2);
    }
    std::cout << "[json] wrote " << records_.size() << " record(s) to "
              << path << '\n';
  }

 private:
  static std::string num(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
  }

  std::string bench_;
  std::vector<Record> records_;
};

/// CPU time this process has used so far: every thread's user plus
/// system time (getrusage), in ms.
inline double process_cpu_ms() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const struct timeval& t) {
    return 1000.0 * static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Prints a section banner.
inline void banner(const std::string& title) {
  std::cout << '\n' << std::string(72, '=') << '\n'
            << title << '\n'
            << std::string(72, '=') << "\n\n";
}

/// Prints a throughput-vs-clients curve set as one aligned table.
inline void print_curves(const std::string& title,
                         const std::vector<std::string>& names,
                         const std::vector<std::vector<sim::LoadPoint>>& curves) {
  Table table(title);
  std::vector<std::string> header{"clients"};
  for (const auto& name : names) header.push_back(name + " (req/s)");
  table.set_header(header);
  for (std::size_t row = 0; row < curves.front().size(); ++row) {
    std::vector<std::string> cells{Table::num(
        static_cast<long long>(curves.front()[row].clients))};
    for (const auto& curve : curves)
      cells.push_back(Table::num(curve[row].throughput, 1));
    table.add_row(cells);
  }
  std::cout << table << '\n';
}

/// One-line PASS/DIVERGES verdict for a shape claim.
inline void verdict(const std::string& claim, bool holds) {
  std::cout << (holds ? "[shape OK]   " : "[shape MISS] ") << claim << '\n';
}

}  // namespace adept::bench
