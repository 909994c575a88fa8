#pragma once
/// \file spans.hpp
/// \brief Request-scoped spans for bench_e2e's traced replay.
///
/// The replay times its calls into each layer's public functions from the
/// benchmark's own code (no instrumentation inside src/): every call is a
/// span with a name, start, end, the span that caused it and the request
/// it belongs to (Dapper's model). Spans stay in memory and are written
/// out once, at exit. A layer's self time is its duration minus the part
/// of that interval its child spans cover, so parallel children (the
/// distributed tier's drain threads) are never double-counted.

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "loadgen.hpp"

namespace adept::e2e {

/// One timed call.
struct Span {
  const char* name = "";  ///< Layer call name; a string literal.
  Clock::time_point start;
  Clock::time_point end;
  std::size_t parent = 0;   ///< Index of the causing span, or kNoParent.
  std::size_t request = 0;  ///< Replayed request index.
};

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// Thread-safe in-memory span store. Ids are indices into the store.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Starts a span now; returns its id for close() and for children.
  std::size_t open(const char* name, std::size_t parent, std::size_t request);
  /// Ends span `id` now.
  void close(std::size_t id);
  /// Records an already-measured interval.
  std::size_t add(const char* name, Clock::time_point start,
                  Clock::time_point end, std::size_t parent,
                  std::size_t request);

  /// Runs `body` inside a span (closed on exceptions too) and returns its
  /// result.
  template <typename Body>
  decltype(auto) time(const char* name, std::size_t parent,
                      std::size_t request, Body&& body) {
    struct Closer {
      SpanRecorder& recorder;
      std::size_t id;
      ~Closer() { recorder.close(id); }
    } closer{*this, open(name, parent, request)};
    return body(closer.id);
  }

  std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-layer view of a replay: for every span name, the mean per request
/// of its summed duration and of its summed self time. Requests are the
/// root spans (parent == kNoParent).
struct LayerTimes {
  std::size_t requests = 0;
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;

  /// Mean per-request total of `name`; 0 when the layer never ran.
  double total(const std::string& name) const;
  /// Mean per-request self time of `name`; 0 when the layer never ran.
  double self(const std::string& name) const;
};
LayerTimes aggregate(const std::vector<Span>& spans);

/// Writes the spans as JSON ({"workload","seed","spans":[{"name","start_us",
/// "end_us","parent","request"}]}, times relative to the first span).
/// Throws adept::Error when the file cannot be written.
void write_spans_json(const std::string& path, const std::string& workload,
                      unsigned long long seed, const std::vector<Span>& spans);

}  // namespace adept::e2e
