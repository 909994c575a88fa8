#pragma once
/// \file loadgen.hpp
/// \brief Load generation for bench_e2e: a JSON-lines TCP client, the
/// closed- and open-loop load loops, and the sample statistics the
/// benchmark reports.
///
/// Open-loop latency is timed from the *scheduled* send instant, not from
/// the moment the bytes left: a server stall then charges its delay to
/// every request that was due during it (Tene, "How NOT to Measure
/// Latency"). The load loops never build request text inside a timed
/// interval — callers hand them pre-built line fragments.

#include <chrono>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace adept::e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock instants.
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------- statistics --

/// Quantile with the same rule as Python's statistics.quantiles(...,
/// method="exclusive"): position p·(n+1), linear interpolation, clamped
/// to the sample range. compare.py summarises runs with that function,
/// so the C++ and Python sides agree on every percentile.
double quantile(std::vector<double> samples, double p);

/// The highest percentile a sample supports: p is reported only when at
/// least `kMinTail` samples lie beyond it (n·(1-p) >= kMinTail). False
/// means the percentile must not be reported.
inline constexpr std::size_t kMinTail = 10;
constexpr bool percentile_supported(std::size_t samples, double p) {
  return static_cast<double>(samples) * (1.0 - p) + 1e-9 >=
         static_cast<double>(kMinTail);
}

// ------------------------------------------------------------- connection --

/// One blocking JSON-lines connection (the serve wire framing: one
/// document per '\n'-terminated line). send() and read_line() touch
/// disjoint state, so one thread may send while another reads — the
/// open loop's sender/reader split relies on that.
class LineConn {
 public:
  /// Connects to "host:port"; throws adept::Error on failure.
  explicit LineConn(const std::string& endpoint);
  /// Adopts a connected socket (the self-test's socketpair).
  explicit LineConn(int fd);
  ~LineConn();

  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Writes the concatenation of `parts` with one writev loop; the last
  /// part must end the line with '\n'. Throws adept::Error on failure.
  void send(std::initializer_list<std::string_view> parts);
  /// Reads the next line (without '\n'), waiting at most `timeout_ms`.
  /// False on EOF, error or timeout.
  bool read_line(std::string& line, double timeout_ms);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ------------------------------------------------------------- load loops --

/// One answered request.
struct Sample {
  Clock::time_point done;  ///< When its answer arrived.
  double latency_ms = 0.0;
};

/// What one measured window produced.
struct WindowResult {
  Clock::time_point start;      ///< Window start (first send or due time).
  std::vector<Sample> samples;  ///< Answered requests, in completion order.
  std::vector<double> lag_ms;   ///< Open loop only: send lateness.
  std::size_t attempted = 0;    ///< Requests sent (or due).
  std::size_t failed = 0;       ///< Attempted but not answered and accepted.
  double wall_s() const;        ///< Window start to the last answer.
  std::vector<double> latencies_ms() const;
};

/// Robust window statistics. The answered requests, in completion order,
/// are cut into consecutive blocks; each statistic is computed per block
/// and the median over blocks is reported, so a burst of interference
/// from outside the program that slows a minority of blocks does not move
/// it. p99 uses blocks of kP99Block requests — the smallest block whose
/// p99 keeps kMinTail samples beyond it — and the other statistics blocks
/// of kBlock, to have more of them.
inline constexpr std::size_t kBlock = 250;
inline constexpr std::size_t kP99Block = 1000;
static_assert(percentile_supported(kBlock, 0.5) &&
                  percentile_supported(kP99Block, 0.99) &&
                  !percentile_supported(kP99Block - 1, 0.99),
              "p99 blocks are the smallest that support a p99");
struct BlockMedians {
  double throughput_rps = 0.0;  ///< Block size / block duration.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cpu_ms_per_req = 0.0;  ///< cpu_ms(block start, block end) / size.
  std::size_t blocks = 0;       ///< Blocks of kBlock.
  std::size_t p99_blocks = 0;   ///< Blocks of kP99Block.
};
BlockMedians block_medians(
    const WindowResult& window,
    const std::function<double(Clock::time_point, Clock::time_point)>& cpu_ms);

/// Closed loop: `clients` threads each send request i = next++ and wait
/// for its answer before sending the next, until all `count` requests
/// were sent. `exchange` performs one timed round trip on the client's
/// connection and returns the response; `check` validates it off the
/// clock. Both may throw: the request then counts as failed and that
/// client stops.
WindowResult run_closed_loop(
    std::size_t clients, std::size_t count,
    const std::function<std::string(std::size_t client, std::size_t i)>&
        exchange,
    const std::function<bool(std::size_t i, const std::string& response)>&
        check);

/// Open loop over `conns`: request i is due at start + i/rate and goes to
/// conns[i % conns.size()], sent by that connection's sender thread
/// whatever the state of earlier requests; a reader thread per connection
/// takes the in-order answers. Latency runs from the due instant to the
/// answer. After the last send, readers wait at most `drain_ms` for
/// outstanding answers (unanswered ones count as failed).
WindowResult run_open_loop(
    const std::vector<LineConn*>& conns, double rate, std::size_t count,
    double drain_ms,
    const std::function<void(LineConn&, std::size_t i)>& send,
    const std::function<bool(std::size_t i, const std::string& response)>&
        check);

}  // namespace adept::e2e
