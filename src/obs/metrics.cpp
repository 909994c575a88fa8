#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace adept::obs {

// ---------------------------------------------------------------- histogram --

std::uint32_t Histogram::bucket_index(double value) {
  // Underflow catches everything the log-linear range cannot represent:
  // negatives, NaN (the comparison is false) and sub-range values.
  if (!(value >= bucket_lower(1))) return 0;
  // Compare against the range top directly: frexp(inf) leaves the
  // exponent unspecified, so an exponent test alone would miss it.
  if (value >= std::ldexp(1.0, kMaxOctave)) return kOverflowIndex;
  int exponent = 0;
  // frexp: value = fraction * 2^exponent with fraction in [0.5, 1), so
  // `exponent` is the octave whose range [2^(e-1), 2^e) contains value.
  const double fraction = std::frexp(value, &exponent);
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((fraction - 0.5) * 2 * kSubBuckets));
  return 1 +
         static_cast<std::uint32_t>(exponent - kMinOctave) * kSubBuckets +
         static_cast<std::uint32_t>(sub);
}

double Histogram::bucket_lower(std::uint32_t index) {
  if (index == 0) return 0.0;
  if (index >= kOverflowIndex) return std::ldexp(1.0, kMaxOctave);
  const std::uint32_t linear = index - 1;
  const int octave = kMinOctave + static_cast<int>(linear / kSubBuckets);
  const int sub = static_cast<int>(linear % kSubBuckets);
  // Octave [2^(o-1), 2^o) split into kSubBuckets equal slices.
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave - 1);
}

double Histogram::bucket_upper(std::uint32_t index) {
  if (index >= kOverflowIndex) return std::numeric_limits<double>::infinity();
  return bucket_lower(index + 1);
}

Histogram::Shard& Histogram::local_shard() {
  // Threads are assigned shards round-robin on first record; the slot is
  // per-thread-per-process, not per-histogram — good enough to spread a
  // thread pool across stripes without a table per histogram.
  static std::atomic<unsigned> next_slot{0};
  thread_local const unsigned slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kShards);
  return shards_[slot];
}

void Histogram::record(double value) {
  if (!enabled_) return;
  Shard& shard = local_shard();
  shard.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(shard.sum, value);
  detail::atomic_min(min_, value);
  detail::atomic_max(max_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  std::array<std::uint64_t, kBucketCount> merged{};
  for (const Shard& shard : shards_) {
    out.sum += shard.sum.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kBucketCount; ++i)
      merged[i] += shard.buckets[i].load(std::memory_order_relaxed);
  }
  // The count is the bucket total, so it always matches the buckets.
  for (std::uint32_t i = 0; i < kBucketCount; ++i) {
    if (merged[i] == 0) continue;
    out.buckets.emplace_back(i, merged[i]);
    out.count += merged[i];
  }
  if (out.count != 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets)
      bucket.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ----------------------------------------------------- histogram snapshots --

double HistogramSnapshot::quantile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the sample the quantile falls on (1-based, nearest-rank with
  // interpolation inside the bucket).
  const double rank = std::max(1.0, p * static_cast<double>(count));
  std::uint64_t cumulative = 0;
  for (const auto& [index, n] : buckets) {
    const std::uint64_t before = cumulative;
    cumulative += n;
    if (static_cast<double>(cumulative) < rank) continue;
    const double lower = Histogram::bucket_lower(index);
    double upper = Histogram::bucket_upper(index);
    // The overflow bucket has no finite upper edge; the exact max is the
    // best (and an upper-bound-correct) estimate for everything in it.
    if (!std::isfinite(upper)) upper = max;
    const double within =
        (rank - static_cast<double>(before)) / static_cast<double>(n);
    const double estimate = lower + (upper - lower) * within;
    // Clamp into the exactly-tracked extremes: a single-sample histogram
    // reports that sample at every p, and no quantile can leave the
    // observed range.
    return std::clamp(estimate, min, max);
  }
  return max;
}

double HistogramSnapshot::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b == other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a == buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] = value;
  for (const auto& [name, histogram] : other.histograms)
    histograms[name].merge(histogram);
}

// ----------------------------------------------------------------- registry --

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::lookup(std::string_view name,
                                                Kind kind) {
  ADEPT_CHECK(valid_metric_name(name),
              "invalid metric name '" + std::string(name) +
                  "' (allowed: [A-Za-z0-9._-], non-empty)");
  std::lock_guard<std::mutex> lock(mutex_);
  auto found = entries_.find(name);
  if (found == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::Counter:
        entry.counter = std::make_unique<Counter>(enabled_);
        break;
      case Kind::Gauge:
        entry.gauge = std::make_unique<Gauge>(enabled_);
        break;
      case Kind::Histogram:
        entry.histogram = std::make_unique<Histogram>(enabled_);
        break;
    }
    found = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  ADEPT_CHECK(found->second.kind == kind,
              "metric '" + std::string(name) + "' already registered as a " +
                  kind_name(static_cast<int>(found->second.kind)) +
                  ", requested as a " + kind_name(static_cast<int>(kind)));
  return found->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *lookup(name, Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *lookup(name, Kind::Gauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *lookup(name, Kind::Histogram).histogram;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        out.counters.emplace(name, entry.counter->value());
        break;
      case Kind::Gauge:
        out.gauges.emplace(name, entry.gauge->value());
        break;
      case Kind::Histogram:
        out.histograms.emplace(name, entry.histogram->snapshot());
        break;
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    switch (entry.kind) {
      case Kind::Counter: entry.counter->reset(); break;
      case Kind::Gauge: entry.gauge->reset(); break;
      case Kind::Histogram: entry.histogram->reset(); break;
    }
  }
}

MetricsRegistry& MetricsRegistry::process() {
  // Leaked on purpose: metrics may be recorded from detached threads and
  // atexit-ordered destructors; a never-destroyed registry makes that
  // safe (the usual Meyers-singleton-with-leak pattern).
  static MetricsRegistry* instance = new MetricsRegistry(true);
  return *instance;
}

}  // namespace adept::obs
