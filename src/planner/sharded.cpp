/// \file sharded.cpp
/// \brief Sharded planning: concurrent per-shard heuristics, a
/// deterministic stitch, and a bounded cross-shard repair pass.

#include "planner/sharded.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "model/evaluate.hpp"
#include "planner/shard_cache.hpp"

namespace adept {

namespace {

/// Appends the subtree of `src_index` (from `src`) under `dst_parent`,
/// preserving roles and the original child order.
void append_subtree(Hierarchy& dst, Hierarchy::Index dst_parent,
                    const Hierarchy& src, Hierarchy::Index src_index) {
  const auto& element = src.element(src_index);
  if (element.role == Role::Server) {
    dst.add_server(dst_parent, element.node);
    return;
  }
  const Hierarchy::Index agent = dst.add_agent(dst_parent, element.node);
  for (const Hierarchy::Index child : element.children)
    append_subtree(dst, agent, src, child);
}

/// Attaches one shard plan under `root` of `dst`. A shard root with two
/// or more children grafts as a non-root agent directly; a shard root
/// with a single child would violate the >= 2-children rule, so the pair
/// is flattened: the child subtree (or server) and the shard-root node
/// both join `root` directly.
void attach_shard(Hierarchy& dst, Hierarchy::Index root,
                  const Hierarchy& shard_plan) {
  const Hierarchy::Index shard_root = shard_plan.root();
  const auto& element = shard_plan.element(shard_root);
  if (element.children.size() >= 2) {
    append_subtree(dst, root, shard_plan, shard_root);
    return;
  }
  ADEPT_CHECK(!element.children.empty(),
              "shard plan root has no children to attach");
  const Hierarchy::Index only = element.children.front();
  if (shard_plan.is_agent(only)) {
    append_subtree(dst, root, shard_plan, only);
    dst.add_server(root, element.node);
  } else {
    dst.add_server(root, element.node);
    dst.add_server(root, shard_plan.element(only).node);
  }
}

/// Demand-clipped objective compared with the planner-wide tie rule
/// (plan_candidate_beats: higher throughput wins, near-ties go to the
/// smaller deployment).
struct Objective {
  RequestRate rho = 0.0;
  std::size_t nodes = 0;

  bool beats(const Objective& other) const {
    return plan_candidate_beats(rho, nodes, other.rho, other.nodes);
  }
};

Objective objective_of(const PlanResult& plan, RequestRate demand) {
  return {std::min(plan.report.overall, demand), plan.hierarchy.size()};
}

/// One stitch + repair over child plans that together cover `platform`
/// exactly (hierarchies in `platform` node ids). Used by the top level
/// of the sharded core and, through a sub-platform remap, by every
/// intermediate level of a recursive stitch. Consumes `plans`.
struct StitchOutcome {
  PlanResult result;            ///< The stitched-and-repaired (or floor) plan.
  Objective stitched_objective; ///< Best candidate before repair.
  std::string detail;           ///< Winning candidate description.
  std::size_t best_child = 0;   ///< Quality-floor child index.
  bool kept_stitched = false;   ///< False: the floor child won outright.
};

StitchOutcome stitch_children(const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service,
                              const PlanOptions& options,
                              std::vector<PlanResult>& plans) {
  // --- best child (the quality floor) ----------------------------------
  std::size_t best_child = 0;
  for (std::size_t s = 1; s < plans.size(); ++s)
    if (objective_of(plans[s], options.demand)
            .beats(objective_of(plans[best_child], options.demand)))
      best_child = s;

  // --- stitch candidates -----------------------------------------------
  // One candidate per child (that child's root becomes the global root,
  // every other child grafts under it, in canonical order), plus an
  // aggregator candidate rooted on the strongest node no child plan
  // uses. Each is evaluated under the homogeneous model — the same
  // belief every other registry planner reports — and the best one goes
  // into the repair pass.
  std::vector<bool> used(platform.size(), false);
  for (const PlanResult& plan : plans)
    for (const NodeId id : plan.hierarchy.used_nodes()) used[id] = true;
  NodeId aggregator = static_cast<NodeId>(-1);
  for (const NodeId id : platform.ids_by_power_desc())
    if (!used[id]) {
      aggregator = id;
      break;
    }

  Hierarchy stitched;
  Objective stitched_objective;
  std::string stitched_detail;
  bool have_stitched = false;
  auto offer_candidate = [&](Hierarchy candidate, const std::string& detail) {
    const model::ThroughputReport report =
        model::evaluate(candidate, platform, params, service);
    const Objective objective{std::min(report.overall, options.demand),
                              candidate.size()};
    if (!have_stitched || objective.beats(stitched_objective)) {
      have_stitched = true;
      stitched = std::move(candidate);
      stitched_objective = objective;
      stitched_detail = detail;
    }
  };

  for (std::size_t s = 0; s < plans.size(); ++s) {
    Hierarchy candidate = plans[s].hierarchy;
    const Hierarchy::Index root = candidate.root();
    for (std::size_t t = 0; t < plans.size(); ++t)
      if (t != s) attach_shard(candidate, root, plans[t].hierarchy);
    offer_candidate(std::move(candidate),
                    "root from shard " + std::to_string(s));
  }
  if (aggregator != static_cast<NodeId>(-1)) {
    Hierarchy candidate;
    const Hierarchy::Index root = candidate.add_root(aggregator);
    for (std::size_t t = 0; t < plans.size(); ++t)
      attach_shard(candidate, root, plans[t].hierarchy);
    offer_candidate(std::move(candidate),
                    "aggregator root on node " +
                        platform.node(aggregator).name);
  }
  ADEPT_ASSERT(have_stitched, "sharded stitch produced no candidate");

  // --- bounded cross-shard repair --------------------------------------
  // The improver recruits the strongest unused nodes (from any child)
  // and rebalances saturated agents across child boundaries; its rounds
  // poll the caller's StopGuard, so a deadline bounds the pass without
  // invalidating the plan. It only ever accepts improving edits, so the
  // repaired plan is at least as good as the stitched one. Its own
  // trace (folded into the caller's) honours the caller's trace switch,
  // so quiet batch runs never pay for log formatting.
  PlanResult repaired =
      improve_deployment(std::move(stitched), platform, params, service,
                         options);

  // --- the quality floor: never worse than the best child --------------
  const Objective repaired_objective = objective_of(repaired, options.demand);
  const Objective floor_objective =
      objective_of(plans[best_child], options.demand);
  const bool keep_stitched = !floor_objective.beats(repaired_objective);

  StitchOutcome out;
  out.result =
      keep_stitched ? std::move(repaired) : std::move(plans[best_child]);
  out.result.report = model::evaluate_unchecked(out.result.hierarchy, platform,
                                                params, service);
  out.stitched_objective = stitched_objective;
  out.detail = std::move(stitched_detail);
  out.best_child = best_child;
  out.kept_stitched = keep_stitched;
  return out;
}

/// The streaming stitch engine behind plan_sharded_streamed(). The whole
/// recursive stitch tree — which consecutive slots group at which level,
/// with which node-id region — is a pure function of (canonical
/// partition, fanout) computed up front, using the same balanced-group
/// arithmetic as the historical batch loop. Leaf plans are then routed
/// in as they arrive: the thread delivering a group's last child claims
/// that group's stitch (outside the lock — stitching is the expensive
/// part and owns only that group's children) and cascades the group plan
/// upward. Because every group stitch is a pure function of its child
/// plans, completion order cannot influence any result bit — only how
/// much stitch work overlaps the still-running leaf planners.
class StreamingStitch {
 public:
  StreamingStitch(const Platform& platform, const MiddlewareParams& params,
                  const ServiceSpec& service, const PlanOptions& options,
                  const std::vector<std::vector<NodeId>>& leaf_regions,
                  std::size_t fanout)
      : platform_(platform), params_(params), service_(service),
        options_(options), group_options_(options),
        leaf_count_(leaf_regions.size()), delivered_(leaf_regions.size()) {
    group_options_.verbose_trace = false;  // intermediate traces don't travel
    if (options_.verbose_trace) {
      std::string shape =
          "sharded: " + std::to_string(leaf_count_) + " shards (";
      for (std::size_t s = 0; s < leaf_count_; ++s)
        shape += (s > 0 ? "+" : "") + std::to_string(leaf_regions[s].size());
      shape += " nodes)";
      shape_line_ = std::move(shape);
      shard_lines_.resize(leaf_count_);
    }
    // Precompute the levels with the batch loop's exact arithmetic, so
    // the tree shape (and therefore every stitch input) is bit-for-bit
    // the historical one.
    std::vector<std::vector<NodeId>> regions = leaf_regions;
    std::size_t n = regions.size();
    std::size_t level_number = 1;
    while (n > fanout) {
      const std::size_t groups = (n + fanout - 1) / fanout;
      Level level;
      level.consumer_of.resize(n);
      level.nodes.reserve(groups);
      std::vector<std::vector<NodeId>> merged;
      merged.reserve(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        Node node;
        node.begin = g * n / groups;
        node.end = (g + 1) * n / groups;
        std::vector<NodeId> region;
        for (std::size_t s = node.begin; s < node.end; ++s)
          region.insert(region.end(), regions[s].begin(), regions[s].end());
        std::sort(region.begin(), region.end());
        node.region = region;
        node.children.resize(node.end - node.begin);
        node.missing = node.end - node.begin;
        for (std::size_t s = node.begin; s < node.end; ++s)
          level.consumer_of[s] = g;
        level.nodes.push_back(std::move(node));
        merged.push_back(std::move(region));
      }
      levels_.push_back(std::move(level));
      regions = std::move(merged);
      n = regions.size();
      ++level_number;
      if (options_.verbose_trace)
        level_lines_.push_back("stitch level " + std::to_string(level_number) +
                               ": " + std::to_string(n) + " groups of <= " +
                               std::to_string(fanout) + " children");
    }
    top_plans_.resize(n);
    top_missing_ = n;
  }

  /// The ShardResultSink: thread-safe, exactly-once per shard.
  void deliver(std::size_t shard, PlanResult plan) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ADEPT_CHECK(shard < leaf_count_, "leaf planner delivered shard " +
                                           std::to_string(shard) + " of " +
                                           std::to_string(leaf_count_));
      ADEPT_CHECK(!delivered_[shard], "leaf planner delivered shard " +
                                          std::to_string(shard) + " twice");
      delivered_[shard] = true;
      if (options_.verbose_trace)
        shard_lines_[shard] =
            "shard " + std::to_string(shard) + ": " +
            std::to_string(plan.hierarchy.size()) +
            " nodes deployed, predicted " +
            std::to_string(plan.report.overall) + " req/s";
    }
    route(0, shard, std::move(plan));
  }

  /// Top-level stitch + trace assembly; call on the coordinating thread
  /// after the leaf stream returned. Rethrows any group-stitch failure.
  PlanResult finalize() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (failure_ != nullptr) std::rethrow_exception(failure_);
      ADEPT_CHECK(top_missing_ == 0,
                  "leaf planner did not deliver every shard");
    }
    StitchOutcome top =
        stitch_children(platform_, params_, service_, options_, top_plans_);
    PlanResult result = std::move(top.result);
    std::vector<std::string> trace;
    if (options_.verbose_trace) {
      trace.push_back(std::move(shape_line_));
      for (std::string& line : shard_lines_)
        trace.push_back(std::move(line));
      for (std::string& line : level_lines_)
        trace.push_back(std::move(line));
      trace.push_back("stitch: " + top.detail + ", predicted " +
                      std::to_string(top.stitched_objective.rho) + " req/s");
      trace.push_back(
          top.kept_stitched
              ? "repair: accepted stitched plan at " +
                    std::to_string(result.report.overall) + " req/s"
              : "repair: stitched plan lost to shard " +
                    std::to_string(top.best_child) +
                    " alone; returning the shard plan");
      trace.insert(trace.end(),
                   std::make_move_iterator(result.trace.begin()),
                   std::make_move_iterator(result.trace.end()));
    }
    result.trace = std::move(trace);
    return result;
  }

 private:
  /// One stitch-tree node: a balanced run of consecutive slots of the
  /// level below.
  struct Node {
    std::size_t begin = 0;       ///< First child slot (inclusive).
    std::size_t end = 0;         ///< Last child slot (exclusive).
    std::vector<NodeId> region;  ///< Sorted platform ids it covers.
    std::vector<PlanResult> children;  ///< Filled as children complete.
    std::size_t missing = 0;     ///< Children not yet delivered.
  };
  struct Level {
    std::vector<Node> nodes;
    /// Which node of this level consumes each slot of the level below.
    std::vector<std::size_t> consumer_of;
  };

  /// Hands `plan` (the result for `slot` of slot-level `level`) to its
  /// consumer; when that completes a group, stitches it and climbs.
  void route(std::size_t level, std::size_t slot, PlanResult plan) {
    for (;;) {
      if (level == levels_.size()) {  // a child of the top-level stitch
        std::lock_guard<std::mutex> lock(mutex_);
        top_plans_[slot] = std::move(plan);
        --top_missing_;
        return;
      }
      Level& consumers = levels_[level];
      const std::size_t g = consumers.consumer_of[slot];
      Node& node = consumers.nodes[g];
      bool complete = false;
      bool poisoned = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        node.children[slot - node.begin] = std::move(plan);
        complete = (--node.missing == 0);
        poisoned = failure_ != nullptr;
      }
      if (!complete || poisoned) return;  // finalize() reports a failure
      try {
        plan = stitch_node(node);
      } catch (...) {
        // A group stitch failing (deadline mid-repair, cancellation) is
        // the request's failure, not a worker's: park it for finalize().
        std::lock_guard<std::mutex> lock(mutex_);
        if (failure_ == nullptr) failure_ = std::current_exception();
        return;
      }
      slot = g;
      ++level;
    }
  }

  /// The batch loop's group stitch, verbatim: single-child groups pass
  /// through; otherwise remap the children into the region sub-platform,
  /// stitch + repair there, remap back, drop the intermediate trace.
  PlanResult stitch_node(Node& node) {
    if (node.children.size() == 1) return std::move(node.children.front());
    const std::vector<NodeId>& region = node.region;
    const Platform sub = platform_.subset(region);
    auto local_of = [&region](NodeId id) {
      return static_cast<NodeId>(
          std::lower_bound(region.begin(), region.end(), id) -
          region.begin());
    };
    for (PlanResult& child : node.children)
      for (Hierarchy::Index e = 0; e < child.hierarchy.size(); ++e)
        child.hierarchy.replace_node(e,
                                     local_of(child.hierarchy.node_of(e)));
    StitchOutcome group =
        stitch_children(sub, params_, service_, group_options_,
                        node.children);
    for (Hierarchy::Index e = 0; e < group.result.hierarchy.size(); ++e)
      group.result.hierarchy.replace_node(
          e, region[group.result.hierarchy.node_of(e)]);
    group.result.trace.clear();
    return std::move(group.result);
  }

  const Platform& platform_;
  const MiddlewareParams& params_;
  const ServiceSpec& service_;
  const PlanOptions& options_;
  PlanOptions group_options_;
  std::size_t leaf_count_;
  std::mutex mutex_;  ///< Guards delivery bookkeeping (not the stitches).
  std::vector<bool> delivered_;
  std::vector<Level> levels_;
  std::vector<PlanResult> top_plans_;
  std::size_t top_missing_ = 0;
  std::exception_ptr failure_;
  std::string shape_line_;
  std::vector<std::string> shard_lines_;
  std::vector<std::string> level_lines_;
};

}  // namespace

PlanResult plan_sharded_with(const Platform& platform,
                             const MiddlewareParams& params,
                             const ServiceSpec& service,
                             const PlanOptions& options,
                             const plat::Partition& partition,
                             std::size_t stitch_fanout,
                             const ShardLeafBatchFn& plan_leaves) {
  ADEPT_CHECK(plan_leaves != nullptr, "plan_sharded_with needs a leaf planner");
  // Batch adapter over the streaming core: obtain the whole batch, then
  // deliver ascending. Identity with the streaming path is therefore by
  // construction — both feed the same engine, which does not care about
  // arrival order.
  return plan_sharded_streamed(
      platform, params, service, options, partition, stitch_fanout,
      [&plan_leaves](const std::vector<std::vector<NodeId>>& leaves,
                     const ShardResultSink& ready) {
        std::vector<PlanResult> plans = plan_leaves(leaves);
        ADEPT_CHECK(plans.size() == leaves.size(),
                    "leaf planner returned " + std::to_string(plans.size()) +
                        " plans for " + std::to_string(leaves.size()) +
                        (leaves.size() == 1 ? " shard" : " shards"));
        for (std::size_t s = 0; s < plans.size(); ++s)
          ready(s, std::move(plans[s]));
      });
}

PlanResult plan_sharded_streamed(const Platform& platform,
                                 const MiddlewareParams& params,
                                 const ServiceSpec& service,
                                 const PlanOptions& options,
                                 const plat::Partition& partition,
                                 std::size_t stitch_fanout,
                                 const ShardLeafStreamFn& plan_leaves) {
  ADEPT_CHECK(platform.size() >= 2, "a deployment needs at least two nodes");
  ADEPT_CHECK(options.demand > 0.0, "client demand must be positive");
  ADEPT_CHECK(options.excluded.empty(),
              "plan_sharded expects exclusion to be applied by the registry "
              "wrapper (plan on the surviving sub-platform)");
  ADEPT_CHECK(stitch_fanout >= 2, "stitch fanout must be at least 2");
  ADEPT_CHECK(plan_leaves != nullptr,
              "plan_sharded_streamed needs a leaf planner");
  params.validate();

  // Canonical shard order: the stitch tree merges results in this
  // order, so two partitions differing only in shard ordering produce
  // bit-identical plans.
  plat::Partition shards = partition;
  shards.canonicalize();
  ADEPT_CHECK(shards.node_count() == platform.size(),
              "partition must cover the platform exactly (" +
                  std::to_string(shards.node_count()) + " of " +
                  std::to_string(platform.size()) + " nodes)");
  (void)shards.shard_of(platform.size());  // throws on overlapping shards

  if (shards.size() <= 1) {
    std::optional<PlanResult> only;
    plan_leaves(shards.shards, [&only](std::size_t s, PlanResult plan) {
      ADEPT_CHECK(s == 0 && !only.has_value(),
                  "leaf planner delivered an unexpected shard");
      only = std::move(plan);
    });
    ADEPT_CHECK(only.has_value(), "leaf planner did not deliver the shard");
    PlanResult result = std::move(*only);
    if (options.verbose_trace)
      result.trace.insert(result.trace.begin(),
                          "sharded: single shard, planning monolithically");
    else
      result.trace.clear();
    return result;
  }
  for (const auto& shard : shards.shards)
    ADEPT_CHECK(shard.size() >= 2, "every shard needs at least two nodes (got "
                                       "one of " +
                                       std::to_string(shard.size()) + ")");

  // --- streamed per-shard plans, stitched as groups complete -----------
  // The engine holds the whole recursive-stitch state; the leaf stream
  // pushes shard plans in whatever order they finish (see the engine's
  // comment for why order cannot matter), and only the top-level stitch
  // waits for the stream to end.
  StreamingStitch engine(platform, params, service, options, shards.shards,
                         stitch_fanout);
  plan_leaves(shards.shards, [&engine](std::size_t shard, PlanResult plan) {
    engine.deliver(shard, std::move(plan));
  });
  return engine.finalize();
}

PlanResult plan_sharded(const Platform& platform,
                        const MiddlewareParams& params,
                        const ServiceSpec& service, const PlanOptions& options,
                        const plat::Partition& partition) {
  // The local leaf planner: each shard's sub-platform through the
  // paper's heuristic, fanned over the caller's pool when one is given —
  // bit-identical for any pool size. When a shard cache rides along
  // (PlanOptions::shard_cache) each leaf is consulted/stored by content
  // in sub-platform-local ids, *before* the remap to platform ids — a
  // hit returns the stored result verbatim, so plans are bit-identical
  // with or without the cache (ARCHITECTURE.md rule 8).
  auto plan_leaves = [&](const std::vector<std::vector<NodeId>>& leaves) {
    std::vector<PlanResult> plans(leaves.size());
    auto plan_one = [&](std::size_t s) {
      const std::vector<NodeId>& ids = leaves[s];
      ShardPlanCache* cache = options.shard_cache;
      std::string key;
      if (ids.size() == platform.size()) {
        // The single-shard degenerate case plans the platform as-is
        // (platform ids are the local ids, so no remap either way).
        if (cache != nullptr) {
          key = ShardPlanCache::key(platform, params, service, options,
                                    kShardLeafPlanner);
          if (std::optional<PlanResult> hit = cache->lookup(key)) {
            plans[s] = std::move(*hit);
            return;
          }
        }
        plans[s] = plan_heterogeneous(platform, params, service,
                                      options.demand, options.pool, &options);
        if (cache != nullptr) cache->insert(key, platform, plans[s]);
        return;
      }
      const Platform sub = platform.subset(ids);
      std::optional<PlanResult> hit;
      if (cache != nullptr) {
        key = ShardPlanCache::key(sub, params, service, options,
                                  kShardLeafPlanner);
        hit = cache->lookup(key);
      }
      PlanResult plan = hit.has_value()
                            ? std::move(*hit)
                            : plan_heterogeneous(sub, params, service,
                                                 options.demand, options.pool,
                                                 &options);
      if (cache != nullptr && !hit.has_value()) cache->insert(key, sub, plan);
      // Sub-platform ids are positions in `ids`; rewrite to platform ids.
      for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
        plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
      plans[s] = std::move(plan);
    };
    if (options.pool != nullptr && options.pool->thread_count() > 1 &&
        leaves.size() > 1) {
      options.pool->for_each(leaves.size(), plan_one);
    } else {
      for (std::size_t s = 0; s < leaves.size(); ++s) plan_one(s);
    }
    return plans;
  };
  return plan_sharded_with(platform, params, service, options, partition,
                           kDefaultStitchFanout, plan_leaves);
}

namespace {

class ShardedPlanner final : public IPlanner {
 public:
  ShardedPlanner()
      : info_{"sharded",
              "multi-cluster backend: per-shard Algorithm 1 in parallel, "
              "stitched + cross-shard repair; honours --demand and --shards",
              {.demand_aware = true, .shard_aware = true}} {}

  const PlannerInfo& info() const final { return info_; }

  PlanResult plan(const PlanRequest& request) const final {
    return detail::plan_excluding(
        request, [](const Platform& platform, const PlanRequest& r) {
          PlanOptions options = r.options;
          options.excluded.clear();  // applied by the registry wrapper
          const plat::Partition partition =
              plat::partition_platform(platform, options.shards);
          return plan_sharded(platform, r.params, r.service, options,
                              partition);
        });
  }

 private:
  PlannerInfo info_;
};

}  // namespace

std::unique_ptr<IPlanner> make_sharded_planner() {
  return std::make_unique<ShardedPlanner>();
}

}  // namespace adept
