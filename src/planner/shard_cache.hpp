#pragma once
/// \file shard_cache.hpp
/// \brief Shard-level plan cache: content-addressed memoization of the
/// sharded backends' per-shard leaf plans.
///
/// The whole-request plan cache (planning_service.hpp) is all-or-nothing:
/// a one-node edit to a 10k-node multi-cluster platform misses, and every
/// shard replans from scratch even though the partitioner leaves most
/// shards byte-identical. This cache closes that gap at shard
/// granularity. The paper derives per-cluster sub-deployments
/// independently — a shard's leaf plan is a pure function of the shard's
/// sub-platform content plus the effective planning options — which is
/// exactly what makes shard-granular memoization sound.
///
/// Keys reuse the wire format's canonical request fingerprint
/// (wire::request_fingerprint) over the *leaf* planning problem: the
/// shard sub-platform by content, the middleware parameters, the service,
/// the leaf planner's name, and the wire-travelling options the leaf path
/// actually forwards (demand, trace switch). Runtime-only knobs
/// (deadline, cancel token, pool — and this cache itself) are excluded,
/// so re-asking under a fresh budget hits. The key is the same
/// wire::request_key the plan cache uses: the fingerprint's writers walk
/// the request as bits into two keyed SipHash-2-4 streams, so no text is
/// formatted per probe and per-entry key storage is 16 bytes however
/// large the shard is.
///
/// Values are the leaf PlanResult in *sub-platform-local* node ids (the
/// form the leaf planner produces before the sharded core remaps to
/// global ids) — content addressing then survives node-id shifts: after
/// a crash elsewhere shrinks the platform, an untouched shard's subset
/// serializes to the same bytes and hits, whatever its nodes' global ids
/// now are.
///
/// Determinism contract (docs/ARCHITECTURE.md rule 8): the leaf planners
/// are bit-identical for any thread count, the key covers everything
/// they read, and a hit returns the stored result verbatim — so a cache
/// hit is bit-for-bit the plan a recompute would produce (hierarchy,
/// report and trace), and enabling the cache can never change a result.
///
/// Invalidation: correctness never needs it (a changed shard changes
/// content, changes key, misses); it exists for hygiene and memory. Each
/// entry carries its shard's sorted node names; invalidate_node(name)
/// erases every entry whose shard contains that node — the
/// ReplanOrchestrator calls it with the node a MutationEvent touched, so
/// only the touched shard's entries go while every other shard's stay
/// warm. clear() flushes everything (drift escalation does).
///
/// Thread-safe: one mutex guards the LRU; the sharded leaf batch probes
/// it from pool workers concurrently. Counters (hits/misses/evictions/
/// insertions/invalidations/flushes) are kept internally and mirrored
/// into `service.shard_cache.*` obs counters when bound to a registry.

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "planner/planner.hpp"
#include "platform/platform.hpp"

namespace adept {

namespace obs {
class MetricsRegistry;
class Counter;
}  // namespace obs

/// Bounded LRU of shard leaf plans (see the file comment for the full
/// contract). Owned by a PlanningService and handed to planners through
/// PlanOptions::shard_cache; usable standalone (tests, the CLI's
/// coordinator path) without a metrics registry.
class ShardPlanCache {
 public:
  /// Lifetime counters (monotone; snapshot via stats()).
  struct Stats {
    std::uint64_t hits = 0;           ///< Lookups answered from the cache.
    std::uint64_t misses = 0;         ///< Lookups that found nothing.
    std::uint64_t evictions = 0;      ///< LRU entries displaced.
    std::uint64_t insertions = 0;     ///< Entries stored.
    std::uint64_t invalidations = 0;  ///< Entries erased by invalidate_node.
    std::uint64_t flushes = 0;        ///< clear() calls that erased entries.
  };

  /// `capacity` bounds the LRU in entries; 0 disables the cache (lookup
  /// always misses without counting, insert is a no-op).
  explicit ShardPlanCache(std::size_t capacity = 0);

  ShardPlanCache(const ShardPlanCache&) = delete;             ///< Non-copyable.
  ShardPlanCache& operator=(const ShardPlanCache&) = delete;  ///< Non-copyable.

  /// Canonical key of one leaf shard problem: wire::request_key of
  /// {leaf_planner, shard sub-platform, params, service, leaf options}.
  /// Only the options the leaf path forwards enter the key — demand and
  /// the trace switch — exactly the fields Coordinator::dispatch_leaves
  /// puts on the wire; degree/shards/excluded are resolved above the
  /// leaves and runtime-only knobs never affect results.
  static std::string key(const Platform& shard_platform,
                         const MiddlewareParams& params,
                         const ServiceSpec& service,
                         const PlanOptions& options,
                         const std::string& leaf_planner);

  /// The stored plan for `key` (sub-platform-local ids), or nullopt.
  /// Counts a hit or a miss; a hit refreshes the entry's LRU position.
  std::optional<PlanResult> lookup(const std::string& key);

  /// Stores `plan` (sub-platform-local ids) for `key`. `shard_platform`
  /// supplies the node names indexed for invalidate_node. Overwrites
  /// nothing: an existing entry for the key is kept (it is the same plan
  /// by the determinism contract).
  void insert(const std::string& key, const Platform& shard_platform,
              const PlanResult& plan);

  /// Erases every entry whose shard contains `node_name`; returns the
  /// number erased. The churn-invalidation hook: one touched node takes
  /// out exactly its shard's entries, all content versions.
  std::size_t invalidate_node(const std::string& node_name);

  /// Erases everything; returns the number of entries dropped.
  std::size_t clear();

  /// Resizes the cache; shrinking evicts LRU entries, 0 disables+clears.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;  ///< Current bound (0 = disabled).
  std::size_t size() const;      ///< Entries currently stored.
  Stats stats() const;           ///< Snapshot of the lifetime counters.

  /// Mirrors the counters into `registry` as `service.shard_cache.*`
  /// (hits, misses, evictions, invalidations, flushes) from this call
  /// on. The PlanningService binds its registry at construction.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    std::string key;
    std::vector<std::string> names;  ///< Sorted node names (invalidation).
    PlanResult plan;
  };

  /// Evicts until size() <= cache capacity; caller holds mutex_.
  std::uint64_t evict_to_capacity_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_ = 0;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> map_;
  Stats stats_;

  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_invalidations_ = nullptr;
  obs::Counter* c_flushes_ = nullptr;
};

}  // namespace adept
