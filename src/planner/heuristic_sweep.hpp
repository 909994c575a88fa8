#pragma once
/// \file heuristic_sweep.hpp
/// \brief Algorithm 1's sweep internals (heuristic.cpp): the per-block
/// builder, the block bound that prunes the sweep, and the pruned sweep
/// itself. Private to the planner layer; tests/test_incremental.cpp
/// includes it to check the bound's soundness and the sweep's pruning.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/indexed_heap.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/incremental.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "planner/request.hpp"
#include "platform/platform.hpp"

namespace adept::detail {

/// Servers the structural minimum takes for `agents` agents: a lone root
/// needs one; otherwise the other agents already give the root its child
/// and each of them needs two servers.
constexpr std::size_t structural_servers(std::size_t agents) {
  return agents == 1 ? 1 : 2 * (agents - 1);
}

/// Largest agent count whose structural minimum fits on `n` >= 2 nodes:
/// the sweep's upper bound, ⌊(n+2)/3⌋. A larger k runs out of servers
/// before its first candidate.
std::size_t max_agents(std::size_t n);

/// Algorithm 1's steps 1–2: node ids sorted by potential scheduling power
/// (as an agent with n-1 children), descending, ties to the lower id.
std::vector<NodeId> potential_order(const Platform& platform,
                                    const MiddlewareParams& params);

/// Algorithm-1 construction policy on top of the incremental engine: a
/// root agent over k-1 agents plus water-filled servers. The engine owns
/// the Eq-14/15/16 state; the builder owns only the structural-minimum
/// selection heap.
class Builder {
 public:
  /// An empty deployment on `platform`, with room for `capacity` elements.
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

  /// Attaches a new agent under the root. Eq 14 is blind to depth, so a
  /// chain of agents would predict the same throughput as a bushy tree —
  /// but every level adds a request round-trip hop, and the paper's
  /// generated deployments are 2–3 levels. Attaching to the root keeps
  /// every deployment at three levels at most without hurting the Eq-14
  /// minimum (the k-sweep protects against any per-k construction being
  /// a bad fit).
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

  /// Eq 14 of the current deployment.
  RequestRate sched_throughput() const { return engine_.sched_throughput(); }
  /// Eq 15 of the current deployment.
  RequestRate service_throughput() const {
    return engine_.service_throughput();
  }
  /// Eq 16 of the current deployment.
  RequestRate overall_throughput() const { return engine_.throughput(); }
  /// Elements deployed.
  std::size_t nodes_used() const { return engine_.size(); }
  /// The current deployment as a Hierarchy.
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

/// One scored intermediate deployment of a (polarity, k) block.
struct Candidate {
  RequestRate objective = 0.0;  ///< Demand-clipped throughput.
  std::size_t nodes = 0;        ///< Elements deployed.
};

/// Grows one (polarity, k) block, k <= max_agents(n), over `order` (see
/// potential_order) and hands every candidate to
/// `visit(const Candidate&, const Builder&)` in growth order; growth
/// stops early when `visit` returns true. `stop` is polled at block
/// entry and per growth step: a cancelled or late run throws out.
template <typename Visit>
void run_block(const Platform& platform, const MiddlewareParams& params,
               const ServiceSpec& service, RequestRate demand,
               const std::vector<NodeId>& order, int polarity, std::size_t k,
               StopGuard& stop, Visit&& visit) {
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
  ADEPT_ASSERT(next == structural_servers(k),
               "structural fill disagrees with the sweep bound");

  auto offer = [&] {
    return visit(Candidate{std::min(builder.overall_throughput(), demand),
                           builder.nodes_used()},
                 builder);
  };
  if (offer()) return;

  // Water-fill the remaining nodes as servers while the servicing side is
  // the bottleneck (vir_max_ser_pow < vir_max_sch_pow) and the demand is
  // not yet met.
  while (next < pool.size()) {
    stop.check();
    if (std::min(builder.overall_throughput(), demand) >= demand) break;
    if (builder.sched_throughput() <= builder.service_throughput()) break;
    builder.add_server_best(pool[next++]);
    if (offer()) return;
  }
}

/// Sound upper bound on the objective of every candidate a (polarity, k)
/// block can offer: min(demand, (1 + kSlack) · min(Eq-14 side, Eq-15
/// side)), in O(log n) per block after an O(n) setup. heuristic.cpp's
/// header derives both sides.
class BlockBound {
 public:
  /// Relative slack over both sides; covers the difference between the
  /// bound's and the engine's summation orders.
  static constexpr double kSlack = 1e-6;

  /// `order` must outlive the bound.
  BlockBound(const Platform& platform, const MiddlewareParams& params,
             const ServiceSpec& service, RequestRate demand,
             const std::vector<NodeId>& order);

  /// Upper bound on the demand-clipped objective of block (polarity, k).
  RequestRate operator()(int polarity, std::size_t k) const {
    const RequestRate sides =
        std::min(sched_side(polarity, k), service_side(polarity, k));
    return std::min(demand_, (1.0 + kSlack) * sides);
  }

  /// The Eq-14 side: the min of the three per-element caps.
  RequestRate sched_side(int polarity, std::size_t k) const;
  /// The Eq-15 side: the envelope's best service rate over j >= s.
  RequestRate service_side(int polarity, std::size_t k) const;

 private:
  const Platform& platform_;
  const MiddlewareParams& params_;
  const std::vector<NodeId>& order_;
  RequestRate demand_;
  long double load_per_server_;  ///< a = W_pre / W_app.
  long double comm_;             ///< c = (S_req + S_rep) / B.
  /// Suffix-max power envelope along order_, over W_app.
  std::vector<long double> envelope_;
  /// prefix_[i] = Σ envelope_[0..i). Extended precision: a pool's sum is
  /// a difference of two prefixes, and the extra bits keep its relative
  /// error (~2n·u·(1 + w_max/w_min)) far below kSlack on any realistic
  /// power spread.
  std::vector<long double> prefix_;
};

/// Winner of the pruned sweep: which block and growth step to rebuild.
struct SweepResult {
  RequestRate objective = 0.0;  ///< Winning demand-clipped throughput.
  std::size_t nodes = 0;        ///< Winning deployment's size.
  int polarity = 0;             ///< Winning block's polarity.
  std::size_t k = 0;            ///< Winning block's agent count.
  std::size_t step = 0;         ///< Winning candidate's index in its block.
  RequestRate star_objective = 0.0;  ///< Best after block (0, 1).
  std::size_t star_nodes = 0;        ///< Its size.
  std::size_t blocks_built = 0;      ///< Blocks the bound did not prune.
};

/// Algorithm 1's sweep over (polarity, k) blocks, polarity-major and k
/// ascending, keeping the first candidate that plan_candidate_beats every
/// earlier one. A block is built only if a candidate at its BlockBound,
/// with the fewest nodes the block can hold (k + structural_servers(k)),
/// would beat the incumbent. plan_candidate_beats never turns true when
/// the objective falls or the node count grows, so a pruned block holds
/// no candidate that would have replaced the incumbent: the result is
/// the full sweep's, bit for bit.
SweepResult sweep(const Platform& platform, const MiddlewareParams& params,
                  const ServiceSpec& service, RequestRate demand,
                  const std::vector<NodeId>& order, StopGuard& stop);

}  // namespace adept::detail
