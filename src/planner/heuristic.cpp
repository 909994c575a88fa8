/// \file heuristic.cpp
/// \brief Algorithm 1: the paper's deployment heuristic for heterogeneous
/// platforms, on the incremental evaluation engine.
///
/// Published control flow, restated:
///   1. compute each node's potential scheduling power (as an agent with
///      n-1 children) and sort descending — the top of the list holds the
///      nodes worth spending on scheduling;
///   2. if even a single-child agent cannot keep up with one server (or
///      with the client demand), deploy one agent + one server and stop;
///   3. otherwise grow the hierarchy from the sorted list: servers are
///      attached where scheduling headroom is largest; when the servicing
///      side overtakes an agent's scheduling power, servers are converted
///      into agents (`shift_nodes`) so the scheduling side deepens;
///   4. stop growing when nodes run out, the client demand is satisfied,
///      or throughput starts decreasing; keep the best deployment seen,
///      preferring fewer resources on ties.
///
/// The pseudo-code's `supported_children` bookkeeping is realised as an
/// explicit search over agent-set sizes k (a prefix of the sorted list —
/// incrementing k is exactly one `shift_nodes` conversion), in two
/// polarities on heterogeneous platforms (agents from the strong or the
/// weak end of the list). The first agent is the root and every other
/// agent attaches under it, so a deployment has at most three levels and
/// its structural minimum (root >= 1 child, other agents >= 2) takes
/// 2(k-1) servers, or 1 for k = 1: only k = 1 … ⌊(n+2)/3⌋ fit on n nodes.
/// Every intermediate valid deployment is a candidate; the best is
/// returned. docs/ARCHITECTURE.md states the determinism rules the sweep
/// keeps.
///
/// Execution model (this file's performance architecture):
///   - each (polarity, k) block grows its deployment on a
///     model::IncrementalEvaluator, so a growth step costs O(log n) and
///     no candidate is ever materialized or re-evaluated from scratch;
///   - blocks run serially in the historical order (polarity-major, k
///     ascending), and each built block offers its candidates to the
///     incumbent at once, with the exact historical comparison
///     (plan_candidate_beats), lowest k winning ties;
///   - a block is built only if its detail::BlockBound could still beat
///     the incumbent. The bound is min(demand, (1 + 1e-6) · min of two
///     sides), each capping what every candidate of the block shares:
///       * Eq 14 is a min over elements, and an agent's rate never rises
///         with its degree (in floating point too), so the root at degree
///         max(1, k-1), the weakest non-root agent at degree 2 and the
///         last structural server each cap every candidate;
///       * Eq 15 after j servers is 1 / ((1 + j·a) / S_j + c), servers
///         joining in pool order. Over the suffix-max power envelope ŵ,
///         S_(j+1) / (1 + (j+1)·a) is the mediant of S_j / (1 + j·a) and
///         ŵ_j / a; ŵ never rises, so the ratio rises, then never rises
///         again, and its maximum over j >= s is a binary search on
///         prefix sums.
///     The bound is tested at the fewest nodes the block can hold
///     (k + s). plan_candidate_beats never turns true when the objective
///     falls or the node count grows, so a block that fails this test
///     holds no candidate that would replace the incumbent. Each skip is
///     tested against the incumbent the full sweep holds at that point,
///     so hierarchy, report and trace stay bit-identical by induction;
///   - only the winning candidate is rebuilt and materialized
///     (engine.snapshot()), then priced once for the final report.

#include "planner/heuristic_sweep.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "model/throughput.hpp"
#include "planner/planner.hpp"

namespace adept {

namespace detail {

std::size_t max_agents(std::size_t n) {
  std::size_t k = 1;
  while (k + 1 + structural_servers(k + 1) <= n) ++k;
  return k;
}

std::vector<NodeId> potential_order(const Platform& platform,
                                    const MiddlewareParams& params) {
  const std::size_t n = platform.size();
  // Rates precomputed once per node, not per comparison.
  std::vector<RequestRate> potential(n);
  for (NodeId id = 0; id < n; ++id)
    potential[id] = model::agent_sched_throughput(
        params, platform.power(id), std::max<std::size_t>(1, n - 1),
        platform.bandwidth());
  std::vector<NodeId> order(n);
  for (NodeId id = 0; id < n; ++id) order[id] = id;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (potential[a] != potential[b]) return potential[a] > potential[b];
    return a < b;
  });
  return order;
}

BlockBound::BlockBound(const Platform& platform, const MiddlewareParams& params,
                       const ServiceSpec& service, RequestRate demand,
                       const std::vector<NodeId>& order)
    : platform_(platform), params_(params), order_(order), demand_(demand),
      load_per_server_(static_cast<long double>(params.server.wpre) /
                       service.wapp),
      comm_((static_cast<long double>(params.server.sreq) +
             params.server.srep) /
            platform.bandwidth()),
      envelope_(order.size()), prefix_(order.size() + 1, 0.0L) {
  // `order` is sorted by potential, and two different powers can round
  // to the same potential: raw powers along it are non-increasing only up
  // to those ties. The suffix max is non-increasing and >= every power.
  long double running = 0.0L;
  for (std::size_t i = order.size(); i-- > 0;) {
    running = std::max(running, static_cast<long double>(
                                    platform.power(order[i])) / service.wapp);
    envelope_[i] = running;
  }
  for (std::size_t i = 0; i < order.size(); ++i)
    prefix_[i + 1] = prefix_[i] + envelope_[i];
}

RequestRate BlockBound::sched_side(int polarity, std::size_t k) const {
  const std::size_t n = order_.size();
  auto agent_cap = [&](NodeId node, std::size_t degree) {
    return model::agent_sched_throughput(params_, platform_.power(node),
                                         degree, platform_.bandwidth());
  };
  // The root holds its k-1 agents (or its one server) in every candidate.
  RequestRate side = agent_cap(polarity == 0 ? order_[0] : order_[n - 1],
                               std::max<std::size_t>(1, k - 1));
  // Every non-root agent keeps its two structural servers.
  if (k >= 2) {
    const NodeId weakest = polarity == 0 ? order_[k - 1] : order_[n - 2];
    side = std::min(side, agent_cap(weakest, 2));
  }
  // pool[s-1] is the last server the structural fill places.
  const std::size_t pool_begin = polarity == 0 ? k : 0;
  const NodeId last_structural = order_[pool_begin + structural_servers(k) - 1];
  return std::min(side, model::server_sched_throughput(
                            params_, platform_.power(last_structural),
                            platform_.bandwidth()));
}

RequestRate BlockBound::service_side(int polarity, std::size_t k) const {
  const std::size_t pool_begin = polarity == 0 ? k : 0;
  const std::size_t pool_size = order_.size() - k;
  const long double a = load_per_server_;
  // Envelope power sum of the first j pool servers.
  auto sum = [&](std::size_t j) {
    return prefix_[pool_begin + j] - prefix_[pool_begin];
  };
  // "Adding pool[j] no longer raises S_j / (1 + j·a)": false, then true.
  auto saturated = [&](std::size_t j) {
    const long double load = 1.0L + static_cast<long double>(j) * a;
    return envelope_[pool_begin + j] * load <= a * sum(j);
  };
  std::size_t lo = structural_servers(k), hi = pool_size;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (saturated(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  const long double comp = (1.0L + static_cast<long double>(lo) * a) / sum(lo);
  return static_cast<RequestRate>(1.0L / (comp + comm_));
}

namespace {

/// Streaming-best over candidates in the historical visit order: higher
/// demand-clipped throughput wins; near-ties (1 part in 1e9) go to the
/// smaller deployment.
struct BestTracker {
  bool have = false;
  SweepResult best;

  void offer(const Candidate& candidate, int polarity, std::size_t k,
             std::size_t step) {
    if (!have || plan_candidate_beats(candidate.objective, candidate.nodes,
                                      best.objective, best.nodes)) {
      have = true;
      best.objective = candidate.objective;
      best.nodes = candidate.nodes;
      best.polarity = polarity;
      best.k = k;
      best.step = step;
    }
  }
};

}  // namespace

SweepResult sweep(const Platform& platform, const MiddlewareParams& params,
                  const ServiceSpec& service, RequestRate demand,
                  const std::vector<NodeId>& order, StopGuard& stop) {
  const BlockBound bound(platform, params, service, demand, order);
  const int polarities = platform.is_homogeneous() ? 1 : 2;
  const std::size_t k_max = max_agents(order.size());
  BestTracker tracker;
  std::size_t built = 0;
  for (int polarity = 0; polarity < polarities; ++polarity) {
    for (std::size_t k = 1; k <= k_max; ++k) {
      // Block (0, 1) always runs: the tracker is still empty.
      if (tracker.have &&
          !plan_candidate_beats(bound(polarity, k), k + structural_servers(k),
                                tracker.best.objective, tracker.best.nodes))
        continue;
      ++built;
      std::size_t step = 0;
      run_block(platform, params, service, demand, order, polarity, k, stop,
                [&](const Candidate& candidate, const Builder&) {
                  tracker.offer(candidate, polarity, k, step++);
                  return false;
                });
      if (polarity == 0 && k == 1) {
        tracker.best.star_objective = tracker.best.objective;
        tracker.best.star_nodes = tracker.best.nodes;
      }
    }
  }
  ADEPT_ASSERT(tracker.have, "heuristic found no feasible deployment");
  tracker.best.blocks_built = built;
  return tracker.best;
}

}  // namespace detail

PlanResult plan_heterogeneous(const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service, RequestRate demand,
                              ThreadPool* /*pool: unused*/,
                              const PlanOptions* control) {
  const std::size_t n = platform.size();
  ADEPT_CHECK(n >= 2, "a deployment needs at least two nodes");
  ADEPT_CHECK(demand > 0.0, "client demand must be positive");
  params.validate();
  // Null control keeps every checkpoint a no-op, so the sweep stays
  // bit-identical to the uncontrolled path.
  StopGuard stop(control);
  const MbitRate B = platform.bandwidth();

  PlanResult result;

  // Steps 1–2: sort by potential scheduling power with n-1 children.
  const std::vector<NodeId> order = detail::potential_order(platform, params);

  // Steps 3–7: if a single-child agent is already the bottleneck against
  // one server (or against the demand), the best deployment is the pair.
  {
    const RequestRate sch1 = model::agent_sched_throughput(
        params, platform.power(order[0]), 1, B);
    const MFlopRate w1 = platform.power(order[1]);
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
      result.report = model::evaluate_unchecked(pair, platform, params, service);
      result.hierarchy = std::move(pair);
      return result;
    }
  }

  // Main growth: each block (polarity, k) grows a deployment with k
  // agents — the k-th iteration converts the previous frontier server
  // into an agent, the paper's shift_nodes.
  const detail::SweepResult best =
      detail::sweep(platform, params, service, demand, order, stop);
  result.trace.push_back("k=1 (star family): best so far " +
                         std::to_string(best.star_objective) + " req/s with " +
                         std::to_string(best.star_nodes) + " nodes");

  // Materialize only the winner: replay its block up to the winning step.
  Hierarchy winner;
  std::size_t step = 0;
  detail::run_block(platform, params, service, demand, order, best.polarity,
                    best.k, stop,
                    [&](const detail::Candidate&, const detail::Builder& b) {
                      if (step++ < best.step) return false;
                      winner = b.materialize();
                      return true;
                    });
  ADEPT_ASSERT(!winner.empty(), "winning candidate failed to rebuild");

  result.trace.push_back(
      "selected deployment: " + std::to_string(winner.agent_count()) +
      " agents, " + std::to_string(winner.server_count()) +
      " servers, predicted " + std::to_string(best.objective) + " req/s");
  result.report = model::evaluate_unchecked(winner, platform, params, service);
  result.hierarchy = std::move(winner);
  return result;
}

}  // namespace adept
