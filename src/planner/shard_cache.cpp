#include "planner/shard_cache.hpp"

#include <algorithm>
#include <utility>

// The key is produced by the io layer's canonical writer — the same
// deliberate .cpp-local upward reference planning_service.cpp makes:
// planner and io ship as one static library (libadept), and a second
// hand-rolled canonical encoding down here would be a drift hazard.
#include "io/wire.hpp"
#include "obs/metrics.hpp"

namespace adept {

ShardPlanCache::ShardPlanCache(std::size_t capacity) : capacity_(capacity) {}

std::string ShardPlanCache::key(const Platform& shard_platform,
                                const MiddlewareParams& params,
                                const ServiceSpec& service,
                                const PlanOptions& options,
                                const std::string& leaf_planner) {
  // Only the wire-travelling leaf options enter the key — the exact
  // fields the distributed coordinator forwards to a worker, so the
  // local sharded planner and the coordinator address the same entries.
  PlanOptions leaf_options;
  leaf_options.demand = options.demand;
  leaf_options.verbose_trace = options.verbose_trace;
  const PlanRequest leaf(shard_platform, params, service,
                         std::move(leaf_options));
  return wire::request_key(leaf, leaf_planner);
}

std::optional<PlanResult> ShardPlanCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return std::nullopt;
  const auto found = map_.find(key);
  if (found == map_.end()) {
    ++stats_.misses;
    if (c_misses_ != nullptr) c_misses_->inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++stats_.hits;
  if (c_hits_ != nullptr) c_hits_->inc();
  return found->second->plan;
}

void ShardPlanCache::insert(const std::string& key,
                            const Platform& shard_platform,
                            const PlanResult& plan) {
  std::vector<std::string> names;
  names.reserve(shard_platform.size());
  for (NodeId id = 0; id < shard_platform.size(); ++id)
    names.push_back(shard_platform.node(id).name);
  std::sort(names.begin(), names.end());

  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0 || map_.find(key) != map_.end()) return;
    lru_.push_front(Entry{key, std::move(names), plan});
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
    evicted = evict_to_capacity_locked();
  }
  if (evicted != 0 && c_evictions_ != nullptr) c_evictions_->inc(evicted);
}

std::uint64_t ShardPlanCache::evict_to_capacity_locked() {
  std::uint64_t evicted = 0;
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evicted;
  }
  stats_.evictions += evicted;
  return evicted;
}

std::size_t ShardPlanCache::invalidate_node(const std::string& node_name) {
  std::size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (std::binary_search(it->names.begin(), it->names.end(), node_name)) {
        map_.erase(it->key);
        it = lru_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    stats_.invalidations += erased;
  }
  if (erased != 0 && c_invalidations_ != nullptr)
    c_invalidations_->inc(erased);
  return erased;
}

std::size_t ShardPlanCache::clear() {
  std::size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    erased = map_.size();
    lru_.clear();
    map_.clear();
    if (erased != 0) ++stats_.flushes;
  }
  if (erased != 0 && c_flushes_ != nullptr) c_flushes_->inc();
  return erased;
}

void ShardPlanCache::set_capacity(std::size_t capacity) {
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    evicted = evict_to_capacity_locked();
  }
  if (evicted != 0 && c_evictions_ != nullptr) c_evictions_->inc(evicted);
}

std::size_t ShardPlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::size_t ShardPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

ShardPlanCache::Stats ShardPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ShardPlanCache::bind_metrics(obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  c_hits_ = &registry.counter("service.shard_cache.hits");
  c_misses_ = &registry.counter("service.shard_cache.misses");
  c_evictions_ = &registry.counter("service.shard_cache.evictions");
  c_invalidations_ = &registry.counter("service.shard_cache.invalidations");
  c_flushes_ = &registry.counter("service.shard_cache.flushes");
}

}  // namespace adept
