#pragma once
/// \file reference_planners.hpp
/// \brief The pre-incremental-engine planner implementations, preserved
/// verbatim as the perf baseline bench_plan_scale regresses against.
///
/// These are the exact Algorithm-1 and bottleneck-improver bodies the
/// repository shipped before the incremental evaluation engine: the
/// heuristic re-scans its Eq-14/15 aggregates on every growth step and
/// materializes a full Hierarchy per improving candidate
/// (O(candidates x hierarchy)); the improver calls the from-scratch
/// model::evaluate once or twice per round. Production code must not use
/// them -- the bench runs both paths, asserts the plans are identical,
/// and records the wall-time / model-evaluation ratios in
/// BENCH_plan_scale.json; tests/test_incremental.cpp checks the
/// heuristic's plans, reports and traces against them on small platforms.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "planner/planner.hpp"

namespace adept::bench {

namespace reference_detail {

namespace {

/// Mutable deployment under construction: a tree over agent slots plus a
/// list of server nodes per agent. Maintains the Eq-14/15 aggregates
/// incrementally so each growth step is O(#agents).
class Builder {
 public:
  Builder(const Platform& platform, const MiddlewareParams& params,
          const ServiceSpec& service)
      : platform_(platform), params_(params), service_(service),
        bandwidth_(platform.bandwidth()) {}

  /// Installs the root agent.
  void set_root(NodeId node) {
    ADEPT_ASSERT(agents_.empty(), "root already set");
    agents_.push_back(AgentSlot{node, npos, 0, 0, {}});
  }

  /// Attaches a new agent breadth-first: to the *shallowest* agent, tie
  /// broken by the highest post-attach scheduling power. Eq 14 is blind to
  /// depth, so a chain of agents would predict the same throughput as a
  /// bushy tree — but every level adds a request round-trip hop, and the
  /// paper's generated deployments are 2–3 levels. Breadth-first keeps the
  /// depth minimal without hurting the Eq-14 minimum (the k-sweep
  /// snapshots protect against any per-k construction being a bad fit).
  void add_agent(NodeId node) {
    ADEPT_ASSERT(!agents_.empty(), "no agents to attach to");
    std::size_t best = 0;
    RequestRate best_rate = -1.0;
    std::size_t best_depth = static_cast<std::size_t>(-1);
    for (std::size_t a = 0; a < agents_.size(); ++a) {
      const RequestRate rate = sched_with_degree(a, agents_[a].degree + 1);
      const std::size_t depth = agents_[a].depth;
      if (depth < best_depth || (depth == best_depth && rate > best_rate)) {
        best_depth = depth;
        best_rate = rate;
        best = a;
      }
    }
    agents_.push_back(AgentSlot{node, best, agents_[best].depth + 1, 0, {}});
    bump_degree(best);
  }

  /// Attaches a server under the agent that stays fastest; updates the
  /// Eq-15 aggregates.
  void add_server(NodeId node) { add_server_under(best_parent(), node); }

  /// Attaches a server under a specific agent slot.
  void add_server_under(std::size_t agent, NodeId node) {
    ADEPT_ASSERT(agent < agents_.size(), "agent slot out of range");
    agents_[agent].servers.push_back(node);
    bump_degree(agent);
    const MFlopRate w = platform_.node(node).power;
    prediction_load_ += params_.server.wpre / service_.wapp;
    capacity_ += w / service_.wapp;
    min_server_power_ = std::min(min_server_power_, w);
    ++server_count_;
  }

  std::size_t agent_count() const { return agents_.size(); }
  std::size_t server_count() const { return server_count_; }
  std::size_t nodes_used() const { return agents_.size() + server_count_; }

  /// Agent slot whose Eq-14 value after one more child is largest.
  std::size_t best_parent() const {
    ADEPT_ASSERT(!agents_.empty(), "no agents to attach to");
    std::size_t best = 0;
    RequestRate best_rate = -1.0;
    for (std::size_t a = 0; a < agents_.size(); ++a) {
      const RequestRate rate = sched_with_degree(a, agents_[a].degree + 1);
      if (rate > best_rate) {
        best_rate = rate;
        best = a;
      }
    }
    return best;
  }

  /// Agents still below the structural minimum (root: 1 child; others: 2),
  /// ordered so the fastest-after-fill agent is first.
  std::vector<std::size_t> deficient_agents() const {
    std::vector<std::size_t> out;
    for (std::size_t a = 0; a < agents_.size(); ++a)
      if (agents_[a].degree < minimum_degree(a)) out.push_back(a);
    std::stable_sort(out.begin(), out.end(), [this](std::size_t x, std::size_t y) {
      return sched_with_degree(x, agents_[x].degree + 1) >
             sched_with_degree(y, agents_[y].degree + 1);
    });
    return out;
  }

  bool structurally_valid() const {
    for (std::size_t a = 0; a < agents_.size(); ++a)
      if (agents_[a].degree < minimum_degree(a)) return false;
    return server_count_ > 0;
  }

  /// Eq 14: minimum over agents' scheduling terms and the weakest server's
  /// prediction term.
  RequestRate sched_throughput() const {
    RequestRate rate = std::numeric_limits<RequestRate>::infinity();
    for (std::size_t a = 0; a < agents_.size(); ++a)
      rate = std::min(rate, sched_with_degree(a, agents_[a].degree));
    if (server_count_ > 0)
      rate = std::min(rate, model::server_sched_throughput(
                                params_, min_server_power_, bandwidth_));
    return rate;
  }

  /// Eq 15 over the current server set.
  RequestRate service_throughput() const {
    if (server_count_ == 0) return 0.0;
    const Seconds comp = (1.0 + prediction_load_) / capacity_;
    const Seconds comm = (params_.server.sreq + params_.server.srep) / bandwidth_;
    return 1.0 / (comp + comm);
  }

  /// Eq 16.
  RequestRate overall_throughput() const {
    return std::min(sched_throughput(), service_throughput());
  }

  /// Materialises the current state as a Hierarchy (BFS over agent slots).
  Hierarchy materialize() const {
    ADEPT_ASSERT(!agents_.empty(), "cannot materialise without a root");
    Hierarchy hierarchy;
    std::vector<Hierarchy::Index> element_of(agents_.size(), Hierarchy::npos);
    element_of[0] = hierarchy.add_root(agents_[0].node);
    // Agent slots are created parent-before-child, so one pass suffices.
    for (std::size_t a = 1; a < agents_.size(); ++a) {
      ADEPT_ASSERT(element_of[agents_[a].parent] != Hierarchy::npos,
                   "agent slots out of order");
      element_of[a] = hierarchy.add_agent(element_of[agents_[a].parent],
                                          agents_[a].node);
    }
    for (std::size_t a = 0; a < agents_.size(); ++a)
      for (NodeId server : agents_[a].servers)
        hierarchy.add_server(element_of[a], server);
    return hierarchy;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct AgentSlot {
    NodeId node;
    std::size_t parent;  ///< Index into agents_; npos for the root.
    std::size_t depth;   ///< Root = 0.
    std::size_t degree;  ///< Total children (agents + servers).
    std::vector<NodeId> servers;
  };

  std::size_t minimum_degree(std::size_t a) const { return a == 0 ? 1 : 2; }

  RequestRate sched_with_degree(std::size_t a, std::size_t degree) const {
    return model::agent_sched_throughput(
        params_, platform_.node(agents_[a].node).power, std::max<std::size_t>(1, degree),
        bandwidth_);
  }

  void bump_degree(std::size_t agent) { ++agents_[agent].degree; }

  const Platform& platform_;
  const MiddlewareParams& params_;
  const ServiceSpec& service_;
  MbitRate bandwidth_;
  std::vector<AgentSlot> agents_;
  std::size_t server_count_ = 0;
  double prediction_load_ = 0.0;  ///< Σ W_pre / W_app over servers.
  double capacity_ = 0.0;         ///< Σ w_i / W_app over servers.
  MFlopRate min_server_power_ = std::numeric_limits<MFlopRate>::infinity();
};

/// Snapshot comparison: higher demand-clipped throughput wins; near-ties
/// (1 part in 1e9) go to the smaller deployment.
struct BestTracker {
  bool have = false;
  RequestRate objective = 0.0;
  std::size_t nodes = 0;
  Hierarchy hierarchy;

  bool offer(const Builder& builder, RequestRate demand) {
    const RequestRate rho = builder.overall_throughput();
    const RequestRate obj = std::min(rho, demand);
    const double tolerance = 1e-9 * std::max(obj, objective);
    if (!have || obj > objective + tolerance ||
        (obj >= objective - tolerance && builder.nodes_used() < nodes)) {
      have = true;
      objective = obj;
      nodes = builder.nodes_used();
      hierarchy = builder.materialize();
      return true;
    }
    return false;
  }
};

}  // namespace

inline PlanResult reference_plan_heterogeneous(
    const Platform& platform, const MiddlewareParams& params,
    const ServiceSpec& service, RequestRate demand = kUnlimitedDemand) {
  const std::size_t n = platform.size();
  ADEPT_CHECK(n >= 2, "a deployment needs at least two nodes");
  ADEPT_CHECK(demand > 0.0, "client demand must be positive");
  params.validate();
  const MbitRate B = platform.bandwidth();

  PlanResult result;

  // Steps 1–2: sort by potential scheduling power with n-1 children.
  std::vector<NodeId> order(n);
  for (NodeId id = 0; id < n; ++id) order[id] = id;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const auto pa = model::agent_sched_throughput(
        params, platform.node(a).power, std::max<std::size_t>(1, n - 1), B);
    const auto pb = model::agent_sched_throughput(
        params, platform.node(b).power, std::max<std::size_t>(1, n - 1), B);
    if (pa != pb) return pa > pb;
    return a < b;
  });

  // Steps 3–7: if a single-child agent is already the bottleneck against
  // one server (or against the demand), the best deployment is the pair.
  {
    const RequestRate sch1 = model::agent_sched_throughput(
        params, platform.node(order[0]).power, 1, B);
    const MFlopRate w1 = platform.node(order[1]).power;
    const RequestRate ser1 =
        model::service_throughput(params, std::span(&w1, 1), service, B);
    if (sch1 < std::min(ser1, demand)) {
      Hierarchy pair;
      const auto root = pair.add_root(order[0]);
      pair.add_server(root, order[1]);
      result.trace.push_back(
          "early exit: single-child agent power " + std::to_string(sch1) +
          " < min(service " + std::to_string(ser1) + ", demand) — deploying 1 "
          "agent + 1 server");
      result.report = model::evaluate(pair, platform, params, service);
      result.hierarchy = std::move(pair);
      return result;
    }
  }

  // Main growth: k is the number of agents (the k-th iteration converts
  // the previous frontier server into an agent — the paper's shift_nodes).
  //
  // Two agent-selection polarities are searched. The sorted list puts the
  // best *scheduling* nodes first; spending them as agents is right when
  // scheduling binds (the paper's default reading of Algorithm 1). When
  // the service side binds instead, every MFlop parked on an agent is a
  // MFlop lost from Eq 15, so the second polarity draws the agent set
  // from the *weak* end of the list and keeps the strong nodes as
  // servers. The snapshot comparison picks whichever wins.
  BestTracker best;
  const int polarities = platform.is_homogeneous() ? 1 : 2;
  for (int polarity = 0; polarity < polarities; ++polarity) {
    for (std::size_t k = 1; k < n; ++k) {
      // Agents and the server pool for this (polarity, k) combination,
      // both listed strongest-scheduler first.
      std::vector<NodeId> agents, pool;
      if (polarity == 0) {
        agents.assign(order.begin(), order.begin() + static_cast<long>(k));
        pool.assign(order.begin() + static_cast<long>(k), order.end());
      } else {
        agents.assign(order.end() - static_cast<long>(k), order.end());
        std::reverse(agents.begin(), agents.end());
        pool.assign(order.begin(), order.end() - static_cast<long>(k));
      }

      Builder builder(platform, params, service);
      builder.set_root(agents[0]);
      for (std::size_t j = 1; j < k; ++j) builder.add_agent(agents[j]);

      std::size_t next = 0;  // next unused node in the pool

      // Mandatory fill: give every agent its structural minimum of
      // children.
      bool feasible = true;
      while (!builder.structurally_valid()) {
        if (next >= pool.size()) {
          feasible = false;
          break;
        }
        const auto deficient = builder.deficient_agents();
        ADEPT_ASSERT(!deficient.empty(), "invalid builder state");
        builder.add_server_under(deficient.front(), pool[next++]);
      }
      if (!feasible) continue;  // too many agents for the remaining pool
      best.offer(builder, demand);

      // Water-fill the remaining nodes as servers while the servicing
      // side is the bottleneck (vir_max_ser_pow < vir_max_sch_pow) and
      // the demand is not yet met.
      while (next < pool.size()) {
        if (std::min(builder.overall_throughput(), demand) >= demand) break;
        if (builder.sched_throughput() <= builder.service_throughput()) break;
        builder.add_server(pool[next++]);
        best.offer(builder, demand);
      }

      if (polarity == 0 && k == 1)
        result.trace.push_back("k=1 (star family): best so far " +
                               std::to_string(best.objective) + " req/s with " +
                               std::to_string(best.nodes) + " nodes");
    }
  }

  ADEPT_ASSERT(best.have, "heuristic found no feasible deployment");
  result.trace.push_back(
      "selected deployment: " + std::to_string(best.hierarchy.agent_count()) +
      " agents, " + std::to_string(best.hierarchy.server_count()) +
      " servers, predicted " + std::to_string(best.objective) + " req/s");
  result.report = model::evaluate(best.hierarchy, platform, params, service);
  result.hierarchy = std::move(best.hierarchy);
  return result;
}




namespace {

/// Agent with the highest Eq-14 value after gaining one child; `exclude`
/// is skipped.
Hierarchy::Index best_adopter(const Hierarchy& hierarchy, const Platform& platform,
                              const MiddlewareParams& params,
                              Hierarchy::Index exclude = Hierarchy::npos) {
  Hierarchy::Index best = Hierarchy::npos;
  RequestRate best_rate = -1.0;
  for (Hierarchy::Index a : hierarchy.agents()) {
    if (a == exclude) continue;
    const RequestRate rate = model::agent_sched_throughput(
        params, platform.node(hierarchy.node_of(a)).power,
        hierarchy.degree(a) + 1, platform.bandwidth());
    if (rate > best_rate) {
      best_rate = rate;
      best = a;
    }
  }
  return best;
}

}  // namespace

inline PlanResult reference_improve_deployment(Hierarchy start, const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service,
                              const PlanOptions& options) {
  start.validate_or_throw(&platform);
  ADEPT_CHECK(options.demand > 0.0, "client demand must be positive");

  PlanResult result;
  const std::vector<NodeId> used_nodes = start.used_nodes();
  const std::set<NodeId> used(used_nodes.begin(), used_nodes.end());
  std::vector<NodeId> unused;
  for (NodeId id : platform.ids_by_power_desc())
    if (!used.count(id) && !options.excluded.count(id)) unused.push_back(id);

  Hierarchy current = std::move(start);
  auto report = model::evaluate_unchecked(current, platform, params, service);

  for (std::size_t round = 0; round < platform.size(); ++round) {
    if (report.overall >= options.demand) {
      result.trace.push_back("stop: client demand is met");
      break;
    }
    if (report.bottleneck == model::Bottleneck::Service && !unused.empty()) {
      const Hierarchy::Index adopter = best_adopter(current, platform, params);
      ADEPT_ASSERT(adopter != Hierarchy::npos, "no agent to adopt a server");
      current.add_server(adopter, unused.front());
      const auto next = model::evaluate_unchecked(current, platform, params, service);
      if (next.overall <= report.overall) {
        current.remove_last_child(adopter);
        result.trace.push_back("stop: adding a server no longer helps");
        break;
      }
      result.trace.push_back("service-limited: added server on node " +
                             platform.node(unused.front()).name);
      unused.erase(unused.begin());
      report = next;
      continue;
    }

    if (report.bottleneck == model::Bottleneck::AgentScheduling &&
        report.limiting_element != current.root() &&
        current.degree(report.limiting_element) > 2) {
      const Hierarchy::Index saturated = report.limiting_element;
      // Move the saturated agent's last *server* child to the best adopter.
      const auto& children = current.element(saturated).children;
      Hierarchy::Index moved = Hierarchy::npos;
      for (auto it = children.rbegin(); it != children.rend(); ++it)
        if (!current.is_agent(*it)) {
          moved = *it;
          break;
        }
      if (moved == Hierarchy::npos) {
        result.trace.push_back("stop: saturated agent has only agent children");
        break;
      }
      const Hierarchy::Index adopter =
          best_adopter(current, platform, params, saturated);
      if (adopter == Hierarchy::npos) {
        result.trace.push_back("stop: no alternative agent to adopt a child");
        break;
      }
      const Hierarchy::Index old_parent = saturated;
      current.reparent(moved, adopter);
      const auto next = model::evaluate_unchecked(current, platform, params, service);
      if (next.overall <= report.overall) {
        current.reparent(moved, old_parent);
        result.trace.push_back("stop: rebalancing children no longer helps");
        break;
      }
      result.trace.push_back("agent-limited: moved a server child off a "
                             "saturated agent");
      report = next;
      continue;
    }

    result.trace.push_back(
        std::string("stop: bottleneck '") + model::bottleneck_name(report.bottleneck) +
        "' has no applicable local fix");
    break;
  }

  result.report = model::evaluate(current, platform, params, service);
  result.hierarchy = std::move(current);
  if (!options.verbose_trace) result.trace.clear();
  return result;
}


}  // namespace reference_detail

using reference_detail::reference_plan_heterogeneous;
using reference_detail::reference_improve_deployment;

}  // namespace adept::bench
