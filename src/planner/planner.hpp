#pragma once
/// \file planner.hpp
/// \brief Common result type and registry for deployment planners.
///
/// Every planner maps a Platform (+ middleware parameters + target service)
/// to a Hierarchy and reports the model's throughput prediction for it.
/// Planners never mutate the platform; the returned hierarchy may use a
/// subset of its nodes (the paper prefers the deployment with the fewest
/// resources among equal-throughput ones).

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/evaluate.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/request.hpp"
#include "platform/platform.hpp"

namespace adept {

/// Outcome of a planning run.
struct PlanResult {
  Hierarchy hierarchy;             ///< The planned agent/server tree.
  model::ThroughputReport report;  ///< Model prediction for `hierarchy`.
  std::vector<std::string> trace;  ///< Human-readable decision log.

  /// Platform nodes the plan deploys on (one element per node).
  std::size_t nodes_used() const { return hierarchy.size(); }
};

/// Signature shared by all planners (demand-aware ones bind the demand).
///
/// \deprecated New code addresses planners by name through PlannerRegistry
/// (registry.hpp) and calls them with a PlanRequest; this alias and the
/// free functions below are kept as thin compatibility wrappers for one
/// release.
using Planner = std::function<PlanResult(
    const Platform&, const MiddlewareParams&, const ServiceSpec&)>;

/// Star deployment: the node with the best (n-1)-child scheduling power
/// becomes the lone agent; every other node is a server (§5.3's first
/// intuitive deployment).
PlanResult plan_star(const Platform& platform, const MiddlewareParams& params,
                     const ServiceSpec& service);

/// Balanced complete d-ary deployment over all nodes in *platform order*
/// (the paper's second intuitive deployment: a human-drawn balanced tree,
/// not power-aware). `degree` 0 picks ⌈sqrt(n)⌉, which reproduces the
/// paper's 1 + 14 + 14×14 arrangement for 200 nodes.
PlanResult plan_balanced(const Platform& platform, const MiddlewareParams& params,
                         const ServiceSpec& service, std::size_t degree = 0);

/// One entry of a degree sweep (used by Table 4 and the ablations).
struct DegreeSweepEntry {
  std::size_t degree = 0;       ///< d of the complete d-ary tree.
  std::size_t nodes_used = 0;   ///< m ≤ n nodes actually deployed.
  RequestRate predicted = 0.0;  ///< Eq 16 for that tree.
};

/// Optimal-homogeneous planner (ref [10]): the best complete spanning
/// d-ary tree, searching every degree d and every node-count m ≤ n
/// (power-sorted placement on heterogeneous platforms). If `sweep` is
/// non-null it receives the best entry per degree.
PlanResult plan_homogeneous_optimal(const Platform& platform,
                                    const MiddlewareParams& params,
                                    const ServiceSpec& service,
                                    std::vector<DegreeSweepEntry>* sweep = nullptr);

/// The paper's contribution: Algorithm 1, the heterogeneous deployment
/// heuristic. Sorts nodes by potential scheduling power, grows the
/// hierarchy greedily (servers attach where scheduling headroom is
/// largest; servers convert to agents when the scheduling side must grow),
/// and stops when nodes run out, `demand` is met, or throughput starts
/// decreasing; among equal-throughput deployments the smallest one wins.
///
/// One deployment is grown per agent count k: the root plus k-1 agents
/// attached under it, each non-root agent given its two structural
/// servers. Only k = 1 … ⌊(n+2)/3⌋ fit on n nodes, so only those are
/// swept, serially, lowest k winning ties. Candidates are priced on the
/// incremental evaluation engine (model::IncrementalEvaluator), and a
/// k whose Eq-14/15 upper bound cannot beat the best candidate so far is
/// never built: the result is bit-identical to the full sweep's.
///
/// `pool` is unused and kept only for source compatibility; the pruned
/// serial sweep beats the former fan-out at every size.
///
/// `control` (optional, not owned) supplies a deadline / cancel token the
/// growth loops poll through a StopGuard: a cancelled or late run throws
/// adept::Error mid-flight instead of completing. Null (the legacy
/// callers) makes every checkpoint a no-op — results are unchanged.
PlanResult plan_heterogeneous(const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service,
                              RequestRate demand = kUnlimitedDemand,
                              ThreadPool* pool = nullptr,
                              const PlanOptions* control = nullptr);

/// Heterogeneous-communication planner (the paper's future-work
/// scenario): plans with Algorithm 1 under the homogeneous-communication
/// model, then refines the node↦element assignment for the actual
/// per-node links by greedy swap hill-climbing on the extended Eq-16
/// evaluator (model::evaluate_hetero) — keeping the tree shape but moving
/// well-connected nodes into the positions that carry the most traffic.
/// On platforms with homogeneous links this is exactly plan_heterogeneous.
PlanResult plan_link_aware(const Platform& platform,
                           const MiddlewareParams& params,
                           const ServiceSpec& service,
                           RequestRate demand = kUnlimitedDemand,
                           ThreadPool* pool = nullptr,
                           const PlanOptions* control = nullptr);

/// Iterative bottleneck-removal improvement pass (the approach of the
/// authors' earlier work, ref [7], kept as a refinement stage): repeatedly
/// identifies the Eq-16 bottleneck of `start` and applies the local fix
/// (add an unused node as server when service-limited; rebalance children
/// away from a saturated non-root agent) until no step improves. Nodes in
/// `options.excluded` (e.g. hosts that failed to launch) are never
/// recruited; `options.demand` stops growth once the demand is met.
PlanResult improve_deployment(Hierarchy start, const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service,
                              const PlanOptions& options);

/// \deprecated Raw-pointer compatibility form; forwards the excluded set
/// into PlanOptions. Kept for one release.
PlanResult improve_deployment(Hierarchy start, const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service,
                              const std::set<NodeId>* excluded = nullptr);

/// Convenience: evaluates and packages an externally built hierarchy.
PlanResult make_plan(Hierarchy hierarchy, const Platform& platform,
                     const MiddlewareParams& params, const ServiceSpec& service);

/// The planner-wide candidate comparison: a deployment beats the
/// incumbent when its demand-clipped throughput is higher beyond a
/// 1-part-in-1e9 near-tie band, or near-ties it with fewer nodes. One
/// definition shared by the heuristic's fixed-order candidate replay
/// and the sharded backend's stitch/quality-floor decisions, so the
/// tie rule cannot drift between them. (The portfolio ranking in
/// planning_service.cpp is deliberately different: it compares two
/// *completed* runs symmetrically and layers a planner-name tiebreak
/// on top for cross-planner determinism.)
inline bool plan_candidate_beats(RequestRate rho_new, std::size_t nodes_new,
                                 RequestRate rho_old, std::size_t nodes_old) {
  const double tolerance = 1e-9 * std::max(rho_new, rho_old);
  if (rho_new > rho_old + tolerance) return true;
  return rho_new >= rho_old - tolerance && nodes_new < nodes_old;
}

}  // namespace adept
