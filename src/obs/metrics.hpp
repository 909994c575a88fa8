#pragma once
/// \file metrics.hpp
/// \brief Process-wide observability: counters, gauges and latency
/// histograms behind a hierarchically named registry.
///
/// Every tier of the serving stack (PlanningService, io::serve, dist,
/// ReplanOrchestrator) records into an obs::MetricsRegistry instead of
/// hand-rolled stats structs. The design goals, in order:
///
///   1. **Hot-path cheapness.** A Counter::inc() is one relaxed atomic
///      add; a Histogram::record() is a frexp, two shifts and three
///      relaxed atomic adds on a thread-striped shard. No locks, no
///      allocation, no syscalls. Registry lookups (name → metric) take a
///      mutex, so call sites resolve their metrics once and keep the
///      reference — metric references are stable for the registry's
///      lifetime.
///   2. **Accuracy where it matters.** Histograms use log-linear buckets
///      (8 linear sub-buckets per power-of-two octave, ~9% relative
///      error) over [2^-10 ms, 2^22 ms] — microseconds to ~70 minutes —
///      with explicit underflow/overflow buckets and exact count / sum /
///      min / max, so p50/p95/p99 and means are trustworthy across the
///      whole latency range the planners produce.
///   3. **Mergeable snapshots.** snapshot() produces plain-value
///      RegistrySnapshot objects that merge associatively, so a serve
///      session can combine its service-local registry with the
///      process-wide one (dist counters) into a single exposition.
///
/// A registry constructed disabled turns every recording operation into
/// a single predictable branch; bench_service uses this to prove the
/// metrics-on overhead stays within the release perf gate's floor.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adept::obs {

namespace detail {

/// Relaxed atomic add for doubles via CAS (std::atomic<double>::fetch_add
/// is C++20; the CAS loop is portable across the toolchains CI builds
/// with and compiles to the same LOCK CMPXCHG loop).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Relaxed atomic min/max update via CAS.
inline void atomic_min(std::atomic<double>& target, double candidate) {
  double current = target.load(std::memory_order_relaxed);
  while (candidate < current &&
         !target.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<double>& target, double candidate) {
  double current = target.load(std::memory_order_relaxed);
  while (candidate > current &&
         !target.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotone event counter. inc() is a single relaxed atomic add; the
/// operator forms exist so call sites migrated from plain integers
/// (`++counters().plans`, `counters().retried += n`) compile unchanged.
class Counter {
 public:
  /// `enabled` = false turns every increment into a no-op branch
  /// (constructed by a disabled MetricsRegistry).
  explicit Counter(bool enabled = true) : enabled_(enabled) {}

  /// Adds `n` (default 1).
  void inc(std::uint64_t n = 1) {
    if (enabled_) value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Pre-increment alias for inc(1) (drop-in for `++stats.plans`).
  Counter& operator++() {
    inc();
    return *this;
  }
  /// Add-assign alias for inc(n) (drop-in for `stats.retried += n`).
  Counter& operator+=(std::uint64_t n) {
    inc(n);
    return *this;
  }

  /// Current value (relaxed read).
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the counter (test isolation only; production counters are
  /// monotone).
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
  bool enabled_;
};

/// Last-write-wins instantaneous value (queue depth, fleet size).
class Gauge {
 public:
  /// `enabled` = false turns every write into a no-op branch.
  explicit Gauge(bool enabled = true) : enabled_(enabled) {}

  /// Sets the gauge to `v`.
  void set(double v) {
    if (enabled_) value_.store(v, std::memory_order_relaxed);
  }
  /// Adds `delta` (may be negative).
  void add(double delta) {
    if (enabled_) detail::atomic_add(value_, delta);
  }
  /// Current value (relaxed read).
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the gauge (test isolation).
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
  bool enabled_;
};

/// Point-in-time, plain-value view of one Histogram (see
/// Histogram::snapshot()). Mergeable: merge() of disjoint snapshots is
/// associative and commutative on counts/buckets/min/max (the `sum`
/// field is a floating-point total, associative only up to rounding).
struct HistogramSnapshot {
  std::uint64_t count = 0;  ///< Samples recorded.
  double sum = 0.0;         ///< Sum of recorded values.
  double min = 0.0;         ///< Smallest recorded value (0 when empty).
  double max = 0.0;         ///< Largest recorded value (0 when empty).
  /// Sparse non-empty buckets, sorted by bucket index (see
  /// Histogram::bucket_lower/bucket_upper for the index → range map).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Interpolated quantile: p in [0, 1] (clamped). Walks the cumulative
  /// bucket counts to the bucket containing rank ceil(p * count) and
  /// interpolates linearly inside it, then clamps into [min, max] — so a
  /// single-sample histogram reports that exact sample at every p, and
  /// the saturating overflow bucket reports at most `max`. Returns 0 on
  /// an empty snapshot.
  double quantile(double p) const;
  /// sum / count; 0 when empty.
  double mean() const;
  /// Accumulates `other` into this snapshot.
  void merge(const HistogramSnapshot& other);
};

/// Concurrent log-linear latency histogram (values in milliseconds by
/// convention, though the math is unit-agnostic).
///
/// Bucket layout: per power-of-two octave [2^(e-1), 2^e) there are
/// kSubBuckets equal-width linear sub-buckets, giving a worst-case
/// relative error of 1/(2*kSubBuckets) ≈ 6% within the covered range
/// [2^(kMinOctave-1), 2^kMaxOctave). Index 0 is the underflow bucket
/// (negatives, NaN and sub-microsecond values); the last index is a
/// saturating overflow bucket. Recording stripes across kShards
/// cache-line-aligned shards (thread-assigned round-robin) merged at
/// snapshot time, so concurrent recorders do not contend on one line.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;   ///< Linear buckets per octave.
  static constexpr int kMinOctave = -9;   ///< First octave: [2^-10, 2^-9) ms.
  static constexpr int kMaxOctave = 22;   ///< Last octave: [2^21, 2^22) ms.
  /// Total bucket count: underflow + octaves*sub-buckets + overflow.
  static constexpr std::uint32_t kBucketCount =
      2 + (kMaxOctave - kMinOctave + 1) * kSubBuckets;
  /// Index of the saturating overflow bucket.
  static constexpr std::uint32_t kOverflowIndex = kBucketCount - 1;
  static constexpr int kShards = 8;  ///< Concurrency stripes.

  /// `enabled` = false turns record() into a no-op branch.
  explicit Histogram(bool enabled = true) : enabled_(enabled) {}

  /// Maps a value to its bucket index (pure; exposed for tests).
  static std::uint32_t bucket_index(double value);
  /// Inclusive lower edge of bucket `index` (0 for the underflow bucket).
  static double bucket_lower(std::uint32_t index);
  /// Exclusive upper edge of bucket `index` (+inf for overflow).
  static double bucket_upper(std::uint32_t index);

  /// Records one sample. Lock-free: a relaxed atomic add to the
  /// bucket and a CAS add to the sum on this thread's shard, plus
  /// min/max CAS updates only when the sample is a new extreme. The
  /// count is not stored: snapshot() sums the buckets.
  void record(double value);

  /// Merges every shard into a plain-value snapshot. O(kBucketCount);
  /// concurrent record()s may or may not be included (relaxed reads) —
  /// each sample appears in every later snapshot exactly once.
  HistogramSnapshot snapshot() const;

  /// Zeroes all shards (test isolation; racy against concurrent
  /// recorders by design).
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<double> sum{0.0};
  };

  Shard& local_shard();

  std::array<Shard, kShards> shards_{};
  /// Histogram-level exact extremes (CAS-updated; +-inf when empty).
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  bool enabled_;
};

/// Plain-value snapshot of a whole registry: name → value maps, ordered
/// by name. Mergeable (merge() sums counters, last-writes gauges with
/// matching names overwritten by `other`, merges histograms), so the
/// serve tier can expose service-local + process-wide metrics as one.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;     ///< Counter values.
  std::map<std::string, double> gauges;              ///< Gauge values.
  std::map<std::string, HistogramSnapshot> histograms;  ///< Histogram views.

  /// Accumulates `other`: counters add, gauges overwrite (other wins),
  /// histograms merge.
  void merge(const RegistrySnapshot& other);
};

/// Named metric registry. Names are hierarchical dot-separated paths
/// (`service.plan.latency_ms`, `dist.worker.3.respawns`) restricted to
/// [A-Za-z0-9._-]; asking for an existing name with a different kind
/// throws. Metric references returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime — resolve once, record often.
class MetricsRegistry {
 public:
  /// `enabled` = false constructs metrics whose recording operations are
  /// no-op branches (used by bench_service's metrics-off arm).
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named counter.
  Counter& counter(std::string_view name);
  /// Finds or creates the named gauge.
  Gauge& gauge(std::string_view name);
  /// Finds or creates the named histogram.
  Histogram& histogram(std::string_view name);

  /// Plain-value snapshot of every registered metric.
  RegistrySnapshot snapshot() const;
  /// Zeroes every metric (test isolation; names stay registered).
  void reset();
  /// Whether metrics constructed by this registry record anything.
  bool enabled() const { return enabled_; }

  /// The process-wide registry (always enabled). Used by tiers whose
  /// state is process-global (dist fleet counters); service-scoped tiers
  /// own their own registry so tests stay isolated.
  static MetricsRegistry& process();

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    // Exactly one is non-null; unique_ptr keeps addresses stable across
    // map rehash/rebalance and lets Entry live in a node-based map.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& lookup(std::string_view name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  bool enabled_;
};

/// RAII latency span: records the elapsed wall time (ms) into a
/// histogram on destruction. stop_ms() records early and disarms;
/// dismiss() disarms without recording (e.g. a request that never became
/// a real job).
class ScopedTimer {
 public:
  /// Starts timing into `sink`.
  explicit ScopedTimer(Histogram& sink)
      : sink_(&sink), start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->record(elapsed_ms());
  }

  /// Records now, disarms the destructor, returns the elapsed ms.
  double stop_ms() {
    const double ms = elapsed_ms();
    if (sink_ != nullptr) sink_->record(ms);
    sink_ = nullptr;
    return ms;
  }

  /// Disarms without recording.
  void dismiss() { sink_ = nullptr; }

  /// Milliseconds since construction (does not disarm).
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace adept::obs
