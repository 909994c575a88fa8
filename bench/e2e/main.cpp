/// \file main.cpp
/// \brief bench_e2e: the end-to-end benchmark over `adept serve --listen`.
///
///   bench_e2e --workload W [--seed S] [--seconds T] [--trace 0|1]
///             [--spans FILE]
///   bench_e2e --self-test
///
/// Prints every metric by name with its unit (timings as medians over
/// blocks of answers, beside their whole-window values), then, as the
/// last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// With --trace 0 the metrics are the end-to-end ones, measured untraced;
/// with --trace 1 they are the per-layer ones from the traced replay and
/// the server's own counters. Exits non-zero when an answer was wrong
/// (the result line then reads "correct": false) or the window had too
/// few answers for its p99 (no result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace adept::e2e {
namespace {

/// Open-loop send lateness above which a run warns that the generator,
/// not only the server, is setting the latency.
constexpr double kMaxLagP99Ms = 1.0;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_e2e: " << message
            << "\nusage: bench_e2e --workload <serve-cold|serve-hot|"
               "serve-drift|dist-socket> [--seed N] [--seconds T] "
               "[--trace 0|1] [--spans FILE]\n       bench_e2e --self-test\n";
  std::exit(2);
}

// -------------------------------------------------------------- self-test --

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++failures;
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Percentile rule: p99 needs kMinTail samples beyond it.
  expect(!percentile_supported(999, 0.99), "p99 refused at 999 samples");
  expect(percentile_supported(1000, 0.99), "p99 allowed at 1000 samples");
  expect(percentile_supported(20, 0.5) && !percentile_supported(19, 0.5),
         "p50 needs 20 samples");

  // Quartiles agree with Python's statistics.quantiles(method="exclusive").
  std::vector<double> ten;
  for (int k = 10; k >= 1; --k) ten.push_back(k);
  expect(near(quantile(ten, 0.25), 2.75) && near(quantile(ten, 0.5), 5.5) &&
             near(quantile(ten, 0.75), 8.25),
         "quartiles of 1..10 are 2.75 / 5.5 / 8.25");
  expect(near(quantile({1, 2, 3}, 0.75), 3.0) &&
             near(quantile({1, 2}, 0.25), 0.75),
         "quantiles clamp and extrapolate like Python");

  // Open loop on a synthetic stall: a fake server answers every line
  // at once except line 10, before which it stalls 50 ms. Requests are
  // due every 1 ms, so the stall delays every request due during it; a
  // generator timing from its own send would charge only one request.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    expect(false, "socketpair");
    return 1;
  }
  constexpr std::size_t kCount = 200;
  constexpr double kStallMs = 50.0;
  std::thread server([fd = fds[1]] {
    LineConn conn(fd);
    std::string line;
    for (std::size_t k = 0; k < kCount && conn.read_line(line, 5000.0); ++k) {
      if (k == 10)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<int>(kStallMs)));
      conn.send({line, "\n"});
    }
  });
  WindowResult window;
  {
    LineConn client(fds[0]);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < kCount; ++i)
      lines.push_back(std::to_string(i) + "\n");
    window = run_open_loop(
        {&client}, 1000.0, kCount, 2000.0,
        [&](LineConn& conn, std::size_t i) { conn.send({lines[i]}); },
        [](std::size_t i, const std::string& response) {
          return response == std::to_string(i);
        });
    server.join();
  }
  // One lane answers in order, so completion order is request order.
  const std::vector<double> latency = window.latencies_ms();
  expect(latency.size() == kCount, "every stalled request is answered");
  bool charged = latency.size() == kCount;
  // Request j (due at j ms) waits for the stall that ends ~10+50 ms.
  for (std::size_t j = 10; charged && j < 55; ++j)
    charged = latency[j] >= (10.0 + kStallMs - j) - 1.0;
  expect(charged, "the stall is charged to every request due during it");
  expect(quantile(latency, 0.99) >= 0.8 * kStallMs,
         "p99 from the scheduled send reflects the stall");
  expect(quantile(latency, 0.5) < 0.5 * kStallMs,
         "the median is not the stall");

  // Block medians ignore a burst that slows a minority of blocks: here
  // the third of five p99 blocks is ten times slower.
  WindowResult bursty;
  bursty.start = Clock::now();
  for (std::size_t i = 0; i < 5 * kP99Block; ++i) {
    const bool burst = i / kP99Block == 2;
    bursty.samples.push_back(
        {bursty.start + std::chrono::milliseconds(static_cast<int>(i) * (burst ? 10 : 1)),
         burst ? 10.0 : 1.0 + 0.001 * static_cast<double>(i % 100)});
  }
  const BlockMedians medians = block_medians(
      bursty, [](Clock::time_point, Clock::time_point) { return 0.0; });
  expect(medians.p99_blocks == 5 && medians.blocks == 20,
         "blocks of 250 and 1000 requests");
  expect(medians.p99_ms < 1.2 && medians.p50_ms < 1.1 &&
             medians.throughput_rps > 900.0,
         "a burst in one block of five does not move the medians");
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ output --

void print_row(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
  std::printf("  %-36s %14.6g %-8s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

std::string note(const char* format, double a, double b = 0.0) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, format, a, b);
  return buffer;
}

int run(const RunConfig& config) {
  const RunReport report = run_workload(config);
  const WindowResult& window = report.window;
  const std::size_t failed = window.failed + report.mismatches;
  const bool correct = failed == 0;

  std::printf("workload %s  seed %llu  %s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced");
  const BlockMedians& blocks = report.blocks;
  const std::vector<double> latency = window.latencies_ms();
  std::printf("  window %.3f s  attempted %zu  answered %zu  failed %zu  "
              "oracle %zu checked, %zu mismatched\n"
              "  medians over %zu blocks of %zu answers (p99: %zu of %zu)\n",
              window.wall_s(), window.attempted, latency.size(), window.failed,
              report.oracle_checked, report.mismatches, blocks.blocks, kBlock,
              blocks.p99_blocks, kP99Block);

  json::Value metrics = json::Value::object();
  auto emit = [&metrics](const std::string& name, double value,
                         const std::string& unit, const std::string& detail = "") {
    print_row(name, value, unit, detail);
    json::Value entry = json::Value::object();
    entry.set("value", value);
    entry.set("unit", unit);
    metrics.set(name, std::move(entry));
  };

  if (config.trace) {
    std::printf("layer self time per request (ms), traced replay of %zu "
                "requests:\n",
                report.layer_times.requests);
    for (const auto& [name, self] : report.layer_times.self_ms)
      std::printf("  %-36s self %10.4f  total %10.4f\n", name.c_str(), self,
                  report.layer_times.total(name));
    std::printf("per-layer metrics:\n");
    for (const Metric& metric : report.layers)
      emit(metric.name, metric.value, metric.unit);
  } else {
    std::printf("end-to-end metrics:\n");
    emit("setup_s", quantile(report.setup_s, 0.5), "s",
         "median of " + std::to_string(report.setup_s.size()) + " set-ups");
    const double wall_s = window.wall_s();
    emit("throughput_rps", blocks.throughput_rps, "req/s",
         note("whole window %.6g",
              wall_s > 0.0 ? static_cast<double>(latency.size()) / wall_s : 0.0));
    emit("latency_p50_ms", blocks.p50_ms, "ms",
         note("whole window %.4g (n=%.0f)", quantile(latency, 0.5),
              static_cast<double>(latency.size())));
    emit("latency_p99_ms", blocks.p99_ms, "ms",
         note("whole window %.4g", quantile(latency, 0.99)));
    emit("cpu_ms_per_req", blocks.cpu_ms_per_req, "ms");
    emit("peak_rss_mb", report.peak_rss_mb, "MB");
  }

  // A window that cannot support its percentiles measured the wrong
  // thing: refuse it rather than report it — unless answers were wrong,
  // which the result line must show.
  if (correct && blocks.p99_blocks < kMinP99Blocks) {
    std::cerr << "bench_e2e: only " << latency.size()
              << " answered requests; the p99 median needs " << kMinAnswered
              << "\n";
    return 1;
  }
  // A late open-loop generator only warns: latency runs from the scheduled
  // send, so its lateness is already charged to the requests it delayed.
  if (!window.lag_ms.empty() && quantile(window.lag_ms, 0.99) > kMaxLagP99Ms)
    std::cerr << "bench_e2e: warning: open-loop generator ran late (lag p99 "
              << quantile(window.lag_ms, 0.99) << " ms > " << kMaxLagP99Ms
              << " ms); the host is busier than the load\n";

  json::Value result = json::Value::object();
  result.set("correct", correct);
  result.set("attempted", window.attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace adept::e2e

int main(int argc, char** argv) {
  using namespace adept::e2e;
  RunConfig config;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t k = 0; k < args.size(); ++k) {
    const std::string& arg = args[k];
    if (arg == "--self-test") return self_test();
    if (arg == "--trace" &&
        (k + 1 == args.size() || args[k + 1].rfind("--", 0) == 0)) {
      config.trace = true;  // bare flag
      continue;
    }
    if (k + 1 == args.size()) usage_error("missing value for " + arg);
    const std::string& value = args[++k];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        if (!(config.seconds > 0.0)) usage_error("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--spans") {
        config.spans_path = value;
      } else {
        usage_error("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value '" + value + "' for " + arg);
    }
  }
  if (config.workload.empty()) usage_error("--workload is required");
  try {
    return run(config);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n';
    return 1;
  }
}
