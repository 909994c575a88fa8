/// \file coordinator.cpp
/// \brief Coordinator: partition → dispatch → shared stitch core.

#include "dist/coordinator.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "dist/stats.hpp"
#include "planner/shard_cache.hpp"
#include "platform/partition.hpp"

namespace adept::dist {

namespace {

WorkerPoolConfig pool_config(const CoordinatorConfig& config) {
  WorkerPoolConfig out;
  out.shard_timeout_ms = config.shard_timeout_ms;
  out.health_timeout_ms = config.health_timeout_ms;
  out.max_retries = config.max_retries;
  return out;
}

}  // namespace

Coordinator::Coordinator(Transport& transport, CoordinatorConfig config,
                         const PlannerRegistry& registry)
    : config_(std::move(config)), registry_(registry) {
  owned_pool_.emplace(transport, config_.workers, pool_config(config_));
}

Coordinator::Coordinator(std::vector<std::unique_ptr<Worker>> workers,
                         CoordinatorConfig config,
                         const PlannerRegistry& registry)
    : config_(std::move(config)), registry_(registry) {
  owned_pool_.emplace(std::move(workers), pool_config(config_));
}

Coordinator::Coordinator(FleetSupervisor& fleet, CoordinatorConfig config,
                         const PlannerRegistry& registry)
    : config_(std::move(config)), registry_(registry), fleet_(&fleet) {}

WorkerPool& Coordinator::pool() {
  ADEPT_CHECK(owned_pool_.has_value(),
              "a borrowed fleet is reached through its FleetSupervisor");
  return *owned_pool_;
}

const WorkerPool& Coordinator::pool() const {
  ADEPT_CHECK(owned_pool_.has_value(),
              "a borrowed fleet is reached through its FleetSupervisor");
  return *owned_pool_;
}

PlanResult Coordinator::plan(const PlanRequest& request) {
  ++detail::counters().plans;
  return adept::detail::plan_excluding(
      request, [this](const Platform& platform, const PlanRequest& r) {
        PlanOptions options = r.options;
        options.excluded.clear();  // applied by plan_excluding already
        const plat::Partition partition =
            plat::partition_platform(platform, options.shards);
        if (config_.streaming) {
          auto plan_leaves =
              [this, &platform, &r,
               &options](const std::vector<std::vector<NodeId>>& leaves,
                         const ShardResultSink& sink) {
                dispatch_leaves(platform, r, options, leaves, sink);
              };
          return plan_sharded_streamed(platform, r.params, r.service, options,
                                       partition, config_.stitch_fanout,
                                       plan_leaves);
        }
        // Batch mode: park every shard plan until the fleet is fully
        // drained (distinct indices — no lock needed), then stitch. A
        // true barrier, kept as the A/B baseline for the streaming path.
        auto plan_leaves =
            [this, &platform, &r,
             &options](const std::vector<std::vector<NodeId>>& leaves) {
              std::vector<PlanResult> plans(leaves.size());
              dispatch_leaves(platform, r, options, leaves,
                              [&plans](std::size_t s, PlanResult plan) {
                                plans[s] = std::move(plan);
                              });
              return plans;
            };
        return plan_sharded_with(platform, r.params, r.service, options,
                                 partition, config_.stitch_fanout,
                                 plan_leaves);
      });
}

void Coordinator::dispatch_leaves(
    const Platform& platform, const PlanRequest& request,
    const PlanOptions& options, const std::vector<std::vector<NodeId>>& leaves,
    const ShardResultSink& sink) {
  // Each leaf is a self-contained request on the leaf's sub-platform.
  // Only wire-travelling options go along (demand, trace switch); the
  // runtime-only deadline/cancel stay for the local fallback, and the
  // encoder turns a deadline into the remaining budget_ms for workers.
  std::vector<ShardJob> jobs;
  jobs.reserve(leaves.size());
  for (const std::vector<NodeId>& ids : leaves) {
    ShardJob job;
    job.planner = config_.leaf_planner;
    PlanOptions leaf_options;
    leaf_options.demand = options.demand;
    leaf_options.verbose_trace = options.verbose_trace;
    leaf_options.deadline = options.deadline;
    leaf_options.cancel = options.cancel;
    job.request = PlanRequest(
        std::make_shared<const Platform>(platform.subset(ids)),
        request.params, request.service, std::move(leaf_options));
    jobs.push_back(std::move(job));
  }

  // Consult the shard cache before anything touches the wire: a hit is
  // a shard whose content-identical leaf plan is already known, so the
  // shard is never dispatched at all — the worker fleet only sees the
  // misses. Keys use config_.leaf_planner, the same name the jobs carry,
  // so the local sharded planner (keyed on its own leaf planner) shares
  // entries with a coordinator configured for the same leaf planner.
  ShardPlanCache* cache = options.shard_cache;
  std::vector<std::optional<PlanResult>> cached(leaves.size());
  std::vector<std::string> keys(cache != nullptr ? leaves.size() : 0);
  std::vector<std::size_t> pending;
  pending.reserve(leaves.size());
  for (std::size_t s = 0; s < leaves.size(); ++s) {
    if (cache != nullptr) {
      keys[s] = ShardPlanCache::key(*jobs[s].request.platform, request.params,
                                    request.service, options,
                                    config_.leaf_planner);
      cached[s] = cache->lookup(keys[s]);
      if (cached[s].has_value()) continue;
    }
    pending.push_back(s);
  }

  // Cache hits never touch the wire: deliver them — remapped to platform
  // ids — ascending, before the fleet sees the misses, so the stitch can
  // fold them in while workers are still planning.
  for (std::size_t s = 0; s < leaves.size(); ++s) {
    if (!cached[s].has_value()) continue;
    PlanResult plan = std::move(*cached[s]);
    const std::vector<NodeId>& ids = leaves[s];
    for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
      plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
    sink(s, std::move(plan));
  }
  if (pending.empty()) return;

  // The in-process fallback: same registry planner, same (serial) path a
  // worker would run — so fallback plans are bit-identical to dispatched
  // ones and a worker loss is invisible in the result.
  auto local_fallback = [this](const ShardJob& job) {
    PlannerRun run;
    run.planner = job.planner;
    try {
      run.result = registry_.at(job.planner).plan(job.request);
      run.ok = true;
    } catch (const std::exception& e) {
      run.error = e.what();
      if (job.request.options.should_stop()) run.skipped = true;
    }
    return run;
  };

  std::vector<ShardJob> dispatch;
  dispatch.reserve(pending.size());
  for (const std::size_t s : pending) dispatch.push_back(std::move(jobs[s]));

  // Worker responses are handed onward straight off their drain threads:
  // validate, cache, remap to platform ids, sink. `dist.streamed` counts
  // only the deliveries that actually overlapped the batch — the ones
  // arriving on a thread other than the caller's (fallback results come
  // back on the calling thread after the dispatch rounds).
  const std::thread::id caller = std::this_thread::get_id();
  auto deliver = [&](std::size_t k, PlannerRun&& run) {
    const std::size_t s = pending[k];
    // A run that is still not ok went through the local fallback, so
    // this is a genuine planning error (or a cancelled/late request) —
    // exactly what the local sharded planner would have thrown.
    ADEPT_CHECK(run.ok, run.error.empty()
                            ? "shard " + std::to_string(s) + " failed"
                            : run.error);
    PlanResult plan = std::move(run.result);
    const std::vector<NodeId>& ids = leaves[s];
    // A worker's hierarchy is untrusted input: an out-of-range node id
    // would fault the remap below, a childless or server root would
    // fault the stitch, a reused node would poison every later request
    // through the cache. Reject any structurally invalid answer as the
    // malformed response it is — the throw fails the *worker*
    // (drain-thread path), the shard is re-dispatched or planned
    // in-process — before anything reaches the cache.
    try {
      plan.hierarchy.validate_or_throw(dispatch[k].request.platform.get());
    } catch (const Error& e) {
      throw Error("shard " + std::to_string(s) + " response: " + e.what());
    }
    // Store by content in sub-platform-local ids, pre-remap, like the
    // local leaf path — the two address identical entries. The cache is
    // internally synchronised, so concurrent drain threads may insert.
    if (cache != nullptr)
      cache->insert(keys[s], *dispatch[k].request.platform, plan);
    // Leaf hierarchies are in sub-platform ids (positions in `ids`);
    // rewrite to platform ids for the shared stitch core.
    for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
      plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
    // Batch mode parks results in a vector — nothing reached the stitch
    // early, so only streaming-mode drain-thread deliveries count.
    if (config_.streaming && std::this_thread::get_id() != caller)
      ++detail::counters().streamed;
    sink(s, std::move(plan));
  };

  if (fleet_ != nullptr) {
    // One lease per batch: the warm fleet is exclusively ours for the
    // dispatch (the heartbeat and other coordinators wait), and the
    // per-round respawn pass heals any losses from earlier requests.
    FleetSupervisor::Lease lease = fleet_->lease();
    lease.pool().run_streamed(dispatch, local_fallback, deliver);
  } else {
    owned_pool_->run_streamed(dispatch, local_fallback, deliver);
  }
}

namespace {

/// The eighth registry planner: a coordinator borrowing the process-wide
/// warm fleet (dist/supervisor.hpp) — repeated plan() calls reuse the
/// same supervised workers instead of building a fleet each time.
/// shard_aware keeps it out of portfolios, like "sharded" (it can only
/// tie the monolithic heuristic on quality).
class DistributedPlanner final : public IPlanner {
 public:
  DistributedPlanner()
      : info_{"distributed",
              "coordinator dispatching shards to a supervised warm "
              "worker fleet (in-process here; `adept plan --workers N` "
              "spawns serve subprocesses); bit-identical to sharded",
              {.demand_aware = true, .shard_aware = true}} {}

  const PlannerInfo& info() const final { return info_; }

  PlanResult plan(const PlanRequest& request) const final {
    Coordinator coordinator(shared_fleet());
    return coordinator.plan(request);
  }

 private:
  PlannerInfo info_;
};

}  // namespace

std::unique_ptr<IPlanner> make_distributed_planner() {
  return std::make_unique<DistributedPlanner>();
}

}  // namespace adept::dist
