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
/// 2(k-1) servers, or 1 for k = 1: only k = 1 … ⌊(n+2)/3⌋ fit on n nodes,
/// and the sweep visits exactly those. Every intermediate valid
/// deployment is a candidate; the best is returned.
/// docs/ARCHITECTURE.md states the determinism rules the sweep keeps.
///
/// Execution model (this file's performance architecture):
///   - each (polarity, k) block grows its deployment on a
///     model::IncrementalEvaluator, so a growth step costs O(log n)
///     instead of the former O(k) aggregate rescan, and *no* candidate is
///     ever materialized or re-evaluated from scratch;
///   - blocks are independent, so they fan out across an optional
///     ThreadPool (ThreadPool::for_each; the caller participates, making
///     nested use from PlanningService jobs deadlock-free);
///   - each block records only (objective, nodes-used) per candidate; the
///     winner is chosen by replaying those records **sequentially in
///     (polarity, k, step) order with the exact historical comparison**,
///     so the result is bit-identical to the former single-threaded sweep
///     for any thread count, lowest k winning ties;
///   - only the winning candidate is rebuilt and materialized
///     (engine.snapshot()), then priced once for the final report.

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/indexed_heap.hpp"
#include "common/thread_pool.hpp"
#include "model/incremental.hpp"
#include "planner/planner.hpp"

namespace adept {

namespace {

/// Below this platform size the per-block work is too small to be worth
/// shipping to other threads; the sweep runs inline on the caller.
constexpr std::size_t kParallelMinNodes = 96;

/// Algorithm-1 construction policy on top of the incremental engine: a
/// root agent over k-1 agents plus water-filled servers. The engine owns
/// the Eq-14/15/16 state; the builder owns only the structural-minimum
/// selection heap.
class Builder {
 public:
  Builder(const Platform& platform, const MiddlewareParams& params,
          const ServiceSpec& service, std::size_t capacity)
      : engine_(platform, params, service), deficient_(DeficientLess{this}) {
    engine_.reserve(capacity);
  }

  /// Installs the root agent.
  void set_root(NodeId node) {
    const auto root = engine_.add_root(node);
    deficient_.push(root);  // the root needs >= 1 child
  }

  /// Servers the structural minimum takes for `agents` agents: a lone
  /// root needs one; otherwise the other agents already give the root its
  /// child and each of them needs two servers.
  static constexpr std::size_t structural_servers(std::size_t agents) {
    return agents == 1 ? 1 : 2 * (agents - 1);
  }

  /// Attaches a new agent under the root. Eq 14 is blind to depth, so a
  /// chain of agents would predict the same throughput as a bushy tree —
  /// but every level adds a request round-trip hop, and the paper's
  /// generated deployments are 2–3 levels. Attaching to the root keeps
  /// every deployment at three levels at most without hurting the Eq-14
  /// minimum (the k-sweep snapshots protect against any per-k
  /// construction being a bad fit).
  void add_agent(NodeId node) {
    const auto agent = engine_.add_agent(0, node);
    on_degree_change(0);
    deficient_.push(agent);  // a non-root agent needs >= 2 children
  }

  /// Gives every agent its structural minimum of children (servers drawn
  /// from pool[next...]), always filling the agent that stays fastest.
  /// Stops early only if the pool runs dry.
  void fill_structural_minimum(const std::vector<NodeId>& pool,
                               std::size_t& next) {
    while (!deficient_.empty() && next < pool.size())
      add_server_under(deficient_.top(), pool[next++]);
  }

  /// Attaches a server under the agent that stays fastest.
  void add_server_best(NodeId node) {
    add_server_under(engine_.best_adopter(), node);
  }

  RequestRate sched_throughput() const { return engine_.sched_throughput(); }
  RequestRate service_throughput() const {
    return engine_.service_throughput();
  }
  RequestRate overall_throughput() const { return engine_.throughput(); }
  std::size_t nodes_used() const { return engine_.size(); }
  Hierarchy materialize() const { return engine_.snapshot(); }

 private:
  using Engine = model::IncrementalEvaluator;

  /// Fastest-after-fill first (the historical stable_sort's order).
  struct DeficientLess {
    const Builder* owner;
    bool operator()(std::size_t a, std::size_t b) const {
      const auto& engine = owner->engine_;
      if (engine.adopt_rate(a) != engine.adopt_rate(b))
        return engine.adopt_rate(a) > engine.adopt_rate(b);
      return a < b;
    }
  };

  std::size_t minimum_degree(Engine::Index agent) const {
    return agent == 0 ? 1 : 2;
  }

  void add_server_under(Engine::Index agent, NodeId node) {
    engine_.add_server(agent, node);
    on_degree_change(agent);
  }

  void on_degree_change(Engine::Index agent) {
    if (deficient_.contains(agent)) {
      if (engine_.degree(agent) >= minimum_degree(agent))
        deficient_.erase(agent);
      else
        deficient_.update(agent);
    }
  }

  Engine engine_;
  IndexedHeap<DeficientLess> deficient_;
};

/// Largest agent count whose structural minimum fits on `n` >= 2 nodes:
/// the sweep's upper bound, ⌊(n+2)/3⌋. A larger k runs out of servers
/// before its first candidate.
std::size_t max_agents(std::size_t n) {
  std::size_t k = 1;
  while (k + 1 + Builder::structural_servers(k + 1) <= n) ++k;
  return k;
}

/// One scored intermediate deployment of a (polarity, k) block.
struct Candidate {
  RequestRate objective = 0.0;  ///< Demand-clipped throughput.
  std::size_t nodes = 0;        ///< Elements deployed.
};

/// Runs one (polarity, k) block, k <= max_agents(n): grows the deployment
/// and returns every candidate's score in growth order. When
/// `rebuild_step` is given, construction instead stops at that candidate
/// and materializes it into `*rebuilt`.
/// `stop` is polled at block entry and per growth step: a cancelled or
/// late run throws out of the block (and, via for_each, out of the sweep).
std::vector<Candidate> run_block(const Platform& platform,
                                 const MiddlewareParams& params,
                                 const ServiceSpec& service,
                                 RequestRate demand,
                                 const std::vector<NodeId>& order,
                                 int polarity, std::size_t k, StopGuard& stop,
                                 std::size_t rebuild_step = Hierarchy::npos,
                                 Hierarchy* rebuilt = nullptr) {
  stop.check();
  const std::size_t n = order.size();
  // Agents and the server pool for this block, both listed
  // strongest-scheduler first (polarity 1 spends the *weak* end of the
  // list on agents — when the service side binds, every MFlop parked on
  // an agent is a MFlop lost from Eq 15).
  std::vector<NodeId> agents, pool;
  agents.reserve(k);
  pool.reserve(n - k);
  if (polarity == 0) {
    agents.assign(order.begin(), order.begin() + static_cast<long>(k));
    pool.assign(order.begin() + static_cast<long>(k), order.end());
  } else {
    agents.assign(order.end() - static_cast<long>(k), order.end());
    std::reverse(agents.begin(), agents.end());
    pool.assign(order.begin(), order.end() - static_cast<long>(k));
  }

  Builder builder(platform, params, service, n);
  builder.set_root(agents[0]);
  for (std::size_t j = 1; j < k; ++j) builder.add_agent(agents[j]);

  std::size_t next = 0;  // next unused node in the pool
  builder.fill_structural_minimum(pool, next);
  ADEPT_ASSERT(next == Builder::structural_servers(k),
               "structural fill disagrees with the sweep bound");

  std::vector<Candidate> candidates;
  candidates.reserve(pool.size() - next + 1);
  auto offer = [&]() -> bool {
    candidates.push_back(
        {std::min(builder.overall_throughput(), demand), builder.nodes_used()});
    if (candidates.size() - 1 == rebuild_step) {
      *rebuilt = builder.materialize();
      return true;
    }
    return false;
  };
  if (offer()) return candidates;

  // Water-fill the remaining nodes as servers while the servicing side is
  // the bottleneck (vir_max_ser_pow < vir_max_sch_pow) and the demand is
  // not yet met.
  while (next < pool.size()) {
    stop.check();
    if (std::min(builder.overall_throughput(), demand) >= demand) break;
    if (builder.sched_throughput() <= builder.service_throughput()) break;
    builder.add_server_best(pool[next++]);
    if (offer()) return candidates;
  }
  return candidates;
}

/// Streaming-best over candidates, replayed in the historical visit
/// order: higher demand-clipped throughput wins; near-ties (1 part in
/// 1e9) go to the smaller deployment.
struct BestTracker {
  bool have = false;
  RequestRate objective = 0.0;
  std::size_t nodes = 0;
  std::size_t block = 0;  ///< Winning block index.
  std::size_t step = 0;   ///< Winning candidate index within the block.

  void offer(const Candidate& candidate, std::size_t at_block,
             std::size_t at_step) {
    const RequestRate obj = candidate.objective;
    if (!have || plan_candidate_beats(obj, candidate.nodes, objective, nodes)) {
      have = true;
      objective = obj;
      nodes = candidate.nodes;
      block = at_block;
      step = at_step;
    }
  }
};

}  // namespace

PlanResult plan_heterogeneous(const Platform& platform,
                              const MiddlewareParams& params,
                              const ServiceSpec& service, RequestRate demand,
                              ThreadPool* pool, const PlanOptions* control) {
  const std::size_t n = platform.size();
  ADEPT_CHECK(n >= 2, "a deployment needs at least two nodes");
  ADEPT_CHECK(demand > 0.0, "client demand must be positive");
  params.validate();
  // One guard shared by every block (the deadline-trial counter is
  // atomic); null control keeps every checkpoint a no-op, so the sweep
  // stays bit-identical to the uncontrolled path.
  StopGuard stop(control);
  const MbitRate B = platform.bandwidth();

  PlanResult result;

  // Steps 1–2: sort by potential scheduling power with n-1 children
  // (rates precomputed once per node, not per comparison).
  std::vector<RequestRate> potential(n);
  for (NodeId id = 0; id < n; ++id)
    potential[id] = model::agent_sched_throughput(
        params, platform.power(id), std::max<std::size_t>(1, n - 1), B);
  std::vector<NodeId> order(n);
  for (NodeId id = 0; id < n; ++id) order[id] = id;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (potential[a] != potential[b]) return potential[a] > potential[b];
    return a < b;
  });

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
  // into an agent, the paper's shift_nodes. Only the k whose structural
  // minimum fits can yield a candidate, so no other block is built.
  // Blocks are independent, so they run across the pool; determinism
  // comes from the ordered replay below, not from scheduling.
  const int polarities = platform.is_homogeneous() ? 1 : 2;
  const std::size_t per_polarity = max_agents(n);  // k = 1 .. max_agents(n)
  const std::size_t block_count =
      static_cast<std::size_t>(polarities) * per_polarity;
  std::vector<std::vector<Candidate>> blocks(block_count);
  auto run = [&](std::size_t b) {
    const int polarity = static_cast<int>(b / per_polarity);
    const std::size_t k = 1 + b % per_polarity;
    blocks[b] =
        run_block(platform, params, service, demand, order, polarity, k, stop);
  };
  if (pool != nullptr && pool->thread_count() > 1 && n >= kParallelMinNodes) {
    pool->for_each(block_count, run);
  } else {
    for (std::size_t b = 0; b < block_count; ++b) run(b);
  }

  // Deterministic reduction: visit candidates in exactly the order the
  // historical sequential sweep offered them (polarity-major, then k
  // ascending, then growth step), so the tolerance comparison picks the
  // same winner — the lowest k on ties.
  BestTracker best;
  for (std::size_t b = 0; b < block_count; ++b) {
    for (std::size_t step = 0; step < blocks[b].size(); ++step)
      best.offer(blocks[b][step], b, step);
    if (b == 0)  // after the polarity-0, k=1 (star family) block
      result.trace.push_back("k=1 (star family): best so far " +
                             std::to_string(best.objective) + " req/s with " +
                             std::to_string(best.nodes) + " nodes");
  }
  ADEPT_ASSERT(best.have, "heuristic found no feasible deployment");

  // Materialize only the winner: replay its block up to the winning step.
  Hierarchy winner;
  run_block(platform, params, service, demand, order,
            static_cast<int>(best.block / per_polarity),
            1 + best.block % per_polarity, stop, best.step, &winner);
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
