#pragma once
/// \file incremental.hpp
/// \brief Incremental throughput-evaluation engine (Eqs 14–16 as deltas).
///
/// The planners explore deployments by *editing* them — attach a server,
/// convert a server to an agent, move a child off a saturated agent —
/// but model::evaluate() prices a candidate by walking the whole
/// hierarchy, making the search O(candidates × hierarchy). This engine
/// holds the Eq-14/15/16 aggregates in indexed arrays so each edit
/// updates only the terms it touches:
///
///   - every element's Eq-14 term lives in a rate array, and a
///     position-tracked heap (IndexedHeap) over those rates answers
///     "which term binds" without a scan;
///   - a second heap over each agent's term-with-one-more-child answers
///     "which agent adopts the next server best" (the improver's
///     best_adopter and the heuristic's water-filling query);
///   - the Eq-15 service aggregates (Σ W_pre/W_app, Σ w_i/W_app) update
///     by one addition per server.
///
/// Under the paper's homogeneous-communication model every query after an
/// edit is O(log n); under the per-link extension (CommModel::PerLink) a
/// touched agent re-prices in O(degree) and the share-weighted service
/// term re-prices in O(#servers) — still edit-local instead of
/// whole-hierarchy.
///
/// Exactness contract: every value the engine reports is bit-identical
/// to what model::evaluate_unchecked (Homogeneous) or
/// model::evaluate_hetero (PerLink) would return on the equivalent
/// hierarchy. The engine guarantees this by calling the very same
/// throughput.{hpp,cpp}/hetero_comm.cpp formulas on the same inputs, by
/// accumulating the Eq-15 sums in hierarchy element order (the order the
/// from-scratch loop sums in), and by saving the pre-edit sums with each
/// server so remove_last() restores them exactly instead of subtracting
/// (IEEE addition does not invert). The randomized suite in
/// tests/test_incremental.cpp pins this bit-for-bit after every edit.
///
/// Instances are single-threaded; concurrent planners build one engine
/// per worker.

#include <cstddef>
#include <vector>

#include "common/indexed_heap.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/evaluate.hpp"
#include "model/parameters.hpp"
#include "model/service.hpp"
#include "platform/platform.hpp"

namespace adept::model {

class IncrementalEvaluator {
 public:
  using Index = Hierarchy::Index;
  static constexpr Index npos = Hierarchy::npos;

  /// Which communication model prices the deployment.
  enum class CommModel {
    Homogeneous,  ///< The paper's model (matches evaluate_unchecked).
    PerLink,      ///< The extension of hetero_comm (matches evaluate_hetero).
  };

  IncrementalEvaluator(const Platform& platform, const MiddlewareParams& params,
                       const ServiceSpec& service,
                       CommModel comm = CommModel::Homogeneous);

  IncrementalEvaluator(const IncrementalEvaluator&) = delete;
  IncrementalEvaluator& operator=(const IncrementalEvaluator&) = delete;

  void reserve(std::size_t elements);

  /// Mirrors an existing hierarchy (element indices coincide with the
  /// hierarchy's). Children orders are copied verbatim so PerLink terms
  /// price the same per-edge sums as the from-scratch evaluator.
  void init_from(const Hierarchy& hierarchy);

  // --- edits -------------------------------------------------------------
  // Each returns/uses element indices compatible with a Hierarchy being
  // maintained in lock-step through the same operations.

  Index add_root(NodeId node);
  Index add_agent(Index parent, NodeId node);
  Index add_server(Index parent, NodeId node);
  /// Removes the most recently added element (must be a leaf). Exact
  /// inverse of the corresponding add: all aggregates return to their
  /// previous bit patterns.
  void remove_last();
  /// Mirrors Hierarchy::reparent for a server child: detaches it from its
  /// current agent and appends it under `new_parent`.
  void move_server(Index server, Index new_parent);

  // --- structure queries -------------------------------------------------

  std::size_t size() const { return elements_.size(); }
  bool empty() const { return elements_.empty(); }
  std::size_t agent_count() const { return agent_count_; }
  std::size_t server_count() const { return servers_.size(); }
  bool is_agent(Index index) const {
    return elements_[index].role == Role::Agent;
  }
  NodeId node_of(Index index) const { return elements_[index].node; }
  Index parent_of(Index index) const { return elements_[index].parent; }
  std::size_t degree(Index index) const {
    return elements_[index].children.size();
  }

  // --- throughput queries ------------------------------------------------

  /// Eq 14: minimum over agent scheduling and server prediction terms.
  /// Agents not yet given a child are priced as with one child (the
  /// planners query mid-construction states).
  RequestRate sched_throughput() const;
  /// Eq 15 (collective service); 0 while the deployment has no servers.
  RequestRate service_throughput() const;
  /// Eq 16.
  RequestRate throughput() const;
  /// Which term of Eq 16 binds (requires at least one server).
  Bottleneck bottleneck() const;
  /// Element whose term binds; for a Service bottleneck, the first
  /// server — exactly evaluate()'s reporting.
  Index limiting_element() const;

  /// Eq-14 term of `agent` with one extra child (Homogeneous only).
  RequestRate adopt_rate(Index agent) const { return adopt_rate_[agent]; }
  /// Agent whose Eq-14 term after gaining one child is highest —
  /// ties to the lowest element index, matching a first-wins scan.
  /// Homogeneous only. npos when no agent qualifies.
  Index best_adopter(Index exclude = npos) const;

  /// Full report for the current state (shares cost O(#servers); call it
  /// for accepted candidates, not per trial).
  ThroughputReport report() const;

  /// Materializes the current state as a Hierarchy: agents in creation
  /// order (parents precede children), then each agent's servers grouped
  /// together — the layout Algorithm 1's Builder historically produced.
  Hierarchy snapshot() const;

 private:
  struct Element {
    NodeId node = 0;
    Role role = Role::Server;
    Index parent = npos;
    std::vector<Index> children;
    /// Eq-15 sums as they were before this server joined; restored on
    /// remove_last() for exact rollback (servers only).
    double saved_prediction_load = 0.0;
    double saved_capacity = 0.0;
  };

  struct SchedLess {
    const IncrementalEvaluator* owner;
    bool operator()(std::size_t a, std::size_t b) const {
      if (owner->rate_[a] != owner->rate_[b])
        return owner->rate_[a] < owner->rate_[b];
      return a < b;
    }
  };
  struct AdoptGreater {
    const IncrementalEvaluator* owner;
    bool operator()(std::size_t a, std::size_t b) const {
      if (owner->adopt_rate_[a] != owner->adopt_rate_[b])
        return owner->adopt_rate_[a] > owner->adopt_rate_[b];
      return a < b;
    }
  };

  Index append_element(Index parent, NodeId node, Role role);
  /// Folds element `index` into the Eq-15 aggregates / role counters
  /// (recording the pre-add sums for exact rollback). Shared by
  /// append_element and init_from so the bookkeeping exists once.
  void account_element(Index index);
  /// Seeds rate_ / adopt_rate_ for a new element and enters it into the
  /// heaps. Shared by append_element and init_from.
  void install_rates(Index index);
  /// Recomputes rate_ (and adopt_rate_ for agents) of one element and
  /// repositions it in the heaps.
  void refresh(Index index);
  double compute_rate(Index index) const;
  double compute_adopt_rate(Index index) const;
  MbitRate parent_edge(Index index) const;
  double per_link_service_throughput() const;

  const Platform& platform_;
  const MiddlewareParams& params_;
  const ServiceSpec& service_;
  const MbitRate bandwidth_;
  const CommModel comm_;

  std::vector<Element> elements_;
  std::vector<double> rate_;        ///< Eq-14 term per element.
  std::vector<double> adopt_rate_;  ///< Term with one extra child (agents).
  IndexedHeap<SchedLess> sched_min_;
  IndexedHeap<AdoptGreater> adopter_max_;

  std::vector<Index> servers_;            ///< Server elements, index order.
  std::vector<MFlopRate> server_powers_;  ///< Aligned with servers_.
  double prediction_load_ = 0.0;  ///< Σ W_pre / W_app over servers.
  double capacity_ = 0.0;         ///< Σ w_i / W_app over servers.
  std::size_t agent_count_ = 0;

  mutable bool service_dirty_ = true;      ///< PerLink cache flag.
  mutable double service_cached_ = 0.0;    ///< PerLink Eq-15 value.
};

}  // namespace adept::model
