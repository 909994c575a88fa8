#include "model/incremental.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "model/throughput.hpp"

namespace adept::model {

IncrementalEvaluator::IncrementalEvaluator(const Platform& platform,
                                           const MiddlewareParams& params,
                                           const ServiceSpec& service,
                                           CommModel comm)
    : platform_(platform), params_(params), service_(service),
      bandwidth_(platform.bandwidth()), comm_(comm),
      sched_min_(SchedLess{this}), adopter_max_(AdoptGreater{this}) {}

void IncrementalEvaluator::reserve(std::size_t elements) {
  elements_.reserve(elements);
  rate_.reserve(elements);
  adopt_rate_.reserve(elements);
  sched_min_.reserve(elements);
  adopter_max_.reserve(elements);
  servers_.reserve(elements);
  server_powers_.reserve(elements);
}

MbitRate IncrementalEvaluator::parent_edge(Index index) const {
  // Mirrors hetero_comm.cpp: the root's (and, in the service phase, the
  // servers') peer is the client, assumed behind a link at least as fast
  // as the node's own.
  const Element& element = elements_[index];
  if (element.parent == npos) return platform_.link_bandwidth(element.node);
  return platform_.edge_bandwidth(element.node,
                                  elements_[element.parent].node);
}

double IncrementalEvaluator::compute_rate(Index index) const {
  const Element& element = elements_[index];
  const MFlopRate w = platform_.power(element.node);
  if (comm_ == CommModel::Homogeneous) {
    if (element.role == Role::Agent)
      return agent_sched_throughput(
          params_, w, std::max<std::size_t>(1, element.children.size()),
          bandwidth_);
    return server_sched_throughput(params_, w, bandwidth_);
  }
  // PerLink: the exact arithmetic of agent_sched_throughput_hetero /
  // server_sched_throughput_hetero, fed from the engine's mirror.
  const MbitRate up = parent_edge(index);
  if (element.role == Role::Server)
    return 1.0 / (params_.server.wpre / w +
                  (params_.server.sreq + params_.server.srep) / up);
  Seconds per_request =
      (params_.agent.wreq + agent_wrep(params_, element.children.size())) / w;
  per_request += params_.agent.sreq / up + params_.agent.srep / up;
  for (Index child : element.children) {
    const MbitRate down =
        platform_.edge_bandwidth(element.node, elements_[child].node);
    per_request += params_.agent.srep / down;  // child reply in
    per_request += params_.agent.sreq / down;  // request out
  }
  return 1.0 / per_request;
}

double IncrementalEvaluator::compute_adopt_rate(Index index) const {
  return agent_sched_throughput(params_, platform_.power(elements_[index].node),
                                elements_[index].children.size() + 1,
                                bandwidth_);
}

void IncrementalEvaluator::refresh(Index index) {
  rate_[index] = compute_rate(index);
  sched_min_.update(index);
  if (comm_ == CommModel::Homogeneous &&
      elements_[index].role == Role::Agent) {
    adopt_rate_[index] = compute_adopt_rate(index);
    adopter_max_.update(index);
  }
}

void IncrementalEvaluator::account_element(Index index) {
  Element& element = elements_[index];
  if (element.role == Role::Agent) {
    ++agent_count_;
    return;
  }
  element.saved_prediction_load = prediction_load_;
  element.saved_capacity = capacity_;
  const MFlopRate w = platform_.power(element.node);
  prediction_load_ += params_.server.wpre / service_.wapp;
  capacity_ += w / service_.wapp;
  servers_.push_back(index);
  server_powers_.push_back(w);
  service_dirty_ = true;
}

void IncrementalEvaluator::install_rates(Index index) {
  rate_[index] = compute_rate(index);
  sched_min_.push(index);
  if (comm_ == CommModel::Homogeneous &&
      elements_[index].role == Role::Agent) {
    adopt_rate_[index] = compute_adopt_rate(index);
    adopter_max_.push(index);
  }
}

IncrementalEvaluator::Index IncrementalEvaluator::append_element(
    Index parent, NodeId node, Role role) {
  Element element;
  element.node = node;
  element.role = role;
  element.parent = parent;
  if (parent != npos) {
    ADEPT_ASSERT(parent < elements_.size() &&
                     elements_[parent].role == Role::Agent,
                 "children can only be attached to agents");
  }
  elements_.push_back(std::move(element));
  const Index index = elements_.size() - 1;
  rate_.push_back(0.0);
  adopt_rate_.push_back(0.0);
  if (parent != npos) elements_[parent].children.push_back(index);

  account_element(index);
  install_rates(index);
  if (parent != npos) refresh(parent);
  return index;
}

IncrementalEvaluator::Index IncrementalEvaluator::add_root(NodeId node) {
  ADEPT_ASSERT(elements_.empty(), "root already exists");
  return append_element(npos, node, Role::Agent);
}

IncrementalEvaluator::Index IncrementalEvaluator::add_agent(Index parent,
                                                            NodeId node) {
  ADEPT_ASSERT(!elements_.empty(), "add_root first");
  return append_element(parent, node, Role::Agent);
}

IncrementalEvaluator::Index IncrementalEvaluator::add_server(Index parent,
                                                             NodeId node) {
  ADEPT_ASSERT(!elements_.empty(), "add_root first");
  return append_element(parent, node, Role::Server);
}

void IncrementalEvaluator::remove_last() {
  ADEPT_ASSERT(!elements_.empty(), "no element to remove");
  const Index index = elements_.size() - 1;
  Element& element = elements_[index];
  ADEPT_ASSERT(element.children.empty(), "can only remove a leaf");
  sched_min_.erase(index);
  if (element.role == Role::Agent) {
    if (comm_ == CommModel::Homogeneous) adopter_max_.erase(index);
    --agent_count_;
  } else {
    // Restore — not subtract — the Eq-15 sums: (x + d) - d need not be x
    // in IEEE arithmetic, and exact rollback is the contract trials rely
    // on.
    prediction_load_ = element.saved_prediction_load;
    capacity_ = element.saved_capacity;
    ADEPT_ASSERT(!servers_.empty() && servers_.back() == index,
                 "server bookkeeping out of sync");
    servers_.pop_back();
    server_powers_.pop_back();
    service_dirty_ = true;
  }
  const Index parent = element.parent;
  if (parent != npos) {
    ADEPT_ASSERT(elements_[parent].children.back() == index,
                 "last element is not its parent's last child");
    elements_[parent].children.pop_back();
  }
  elements_.pop_back();
  rate_.pop_back();
  adopt_rate_.pop_back();
  if (parent != npos) refresh(parent);
}

void IncrementalEvaluator::move_server(Index server, Index new_parent) {
  ADEPT_ASSERT(server < elements_.size() &&
                   elements_[server].role == Role::Server,
               "move_server expects a server");
  ADEPT_ASSERT(new_parent < elements_.size() &&
                   elements_[new_parent].role == Role::Agent,
               "new parent must be an agent");
  Element& moved = elements_[server];
  const Index old_parent = moved.parent;
  auto& old_children = elements_[old_parent].children;
  old_children.erase(
      std::find(old_children.begin(), old_children.end(), server));
  moved.parent = new_parent;
  elements_[new_parent].children.push_back(server);
  refresh(old_parent);
  refresh(new_parent);
  if (comm_ != CommModel::Homogeneous) refresh(server);  // parent edge moved
}

void IncrementalEvaluator::init_from(const Hierarchy& hierarchy) {
  ADEPT_ASSERT(elements_.empty(), "init_from on a non-empty engine");
  reserve(hierarchy.size());
  // Copy the structure verbatim rather than replaying add_*: a reparented
  // hierarchy's child lists are not in element-index order, and the
  // PerLink agent terms sum per child in *list* order — replaying would
  // change the summation order and break bit-exactness against
  // evaluate_hetero. The aggregates still accumulate in element-index
  // order (the order evaluate() sums in), via the same account_element /
  // install_rates used by append_element.
  for (Index i = 0; i < hierarchy.size(); ++i) {
    const auto& source = hierarchy.element(i);
    Element element;
    element.node = source.node;
    element.role = source.role;
    element.parent = source.parent;
    element.children = source.children;
    elements_.push_back(std::move(element));
    rate_.push_back(0.0);
    adopt_rate_.push_back(0.0);
    account_element(i);
  }
  // Rates need the children lists, which the single pass above fills as
  // it goes — install them once every element is in place.
  for (Index i = 0; i < elements_.size(); ++i) install_rates(i);
  service_dirty_ = true;
}

RequestRate IncrementalEvaluator::sched_throughput() const {
  if (sched_min_.empty())
    return std::numeric_limits<RequestRate>::infinity();
  return rate_[sched_min_.top()];
}

double IncrementalEvaluator::per_link_service_throughput() const {
  // The exact arithmetic of service_throughput_hetero: the incremental
  // sums equal its per-server loop (same additions, same order), and the
  // shares come from the very same service_fractions call.
  const Seconds comp_per_request = (1.0 + prediction_load_) / capacity_;
  const auto shares = service_fractions(params_, server_powers_, service_);
  Seconds comm_per_request = 0.0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const MbitRate link =
        platform_.link_bandwidth(elements_[servers_[i]].node);
    comm_per_request +=
        shares[i] * (params_.server.sreq + params_.server.srep) / link;
  }
  return 1.0 / (comp_per_request + comm_per_request);
}

RequestRate IncrementalEvaluator::service_throughput() const {
  if (servers_.empty()) return 0.0;
  if (comm_ == CommModel::Homogeneous) {
    const Seconds comp = (1.0 + prediction_load_) / capacity_;
    const Seconds comm =
        (params_.server.sreq + params_.server.srep) / bandwidth_;
    return 1.0 / (comp + comm);
  }
  if (service_dirty_) {
    service_cached_ = per_link_service_throughput();
    service_dirty_ = false;
  }
  return service_cached_;
}

RequestRate IncrementalEvaluator::throughput() const {
  return std::min(sched_throughput(), service_throughput());
}

Bottleneck IncrementalEvaluator::bottleneck() const {
  ADEPT_ASSERT(!servers_.empty(), "bottleneck() needs at least one server");
  if (service_throughput() < sched_throughput()) return Bottleneck::Service;
  return elements_[sched_min_.top()].role == Role::Agent
             ? Bottleneck::AgentScheduling
             : Bottleneck::ServerPrediction;
}

IncrementalEvaluator::Index IncrementalEvaluator::limiting_element() const {
  ADEPT_ASSERT(!servers_.empty(), "limiting_element() needs a server");
  if (service_throughput() < sched_throughput()) return servers_.front();
  return sched_min_.top();
}

IncrementalEvaluator::Index IncrementalEvaluator::best_adopter(
    Index exclude) const {
  ADEPT_ASSERT(comm_ == CommModel::Homogeneous,
               "best_adopter is a homogeneous-model query");
  const std::size_t top = adopter_max_.top_excluding(exclude);
  return top == IndexedHeap<AdoptGreater>::npos ? npos : top;
}

ThroughputReport IncrementalEvaluator::report() const {
  ADEPT_ASSERT(!servers_.empty(), "report() needs at least one server");
  ThroughputReport report;
  report.sched = sched_throughput();
  report.service = service_throughput();
  const Index sched_element = sched_min_.top();
  if (report.service < report.sched) {
    report.overall = report.service;
    report.bottleneck = Bottleneck::Service;
    report.limiting_element = servers_.front();
  } else {
    report.overall = report.sched;
    report.bottleneck = elements_[sched_element].role == Role::Agent
                            ? Bottleneck::AgentScheduling
                            : Bottleneck::ServerPrediction;
    report.limiting_element = sched_element;
  }
  report.server_shares = service_fractions(params_, server_powers_, service_);
  return report;
}

Hierarchy IncrementalEvaluator::snapshot() const {
  ADEPT_ASSERT(!elements_.empty(), "cannot snapshot an empty engine");
  Hierarchy hierarchy;
  hierarchy.reserve(elements_.size());
  std::vector<Index> element_of(elements_.size(), npos);
  element_of[0] = hierarchy.add_root(elements_[0].node);
  for (Index i = 1; i < elements_.size(); ++i) {
    if (elements_[i].role != Role::Agent) continue;
    ADEPT_ASSERT(element_of[elements_[i].parent] != npos,
                 "agents out of parent-before-child order");
    element_of[i] =
        hierarchy.add_agent(element_of[elements_[i].parent], elements_[i].node);
  }
  for (Index i = 0; i < elements_.size(); ++i) {
    if (elements_[i].role != Role::Agent) continue;
    for (Index child : elements_[i].children)
      if (elements_[child].role == Role::Server)
        hierarchy.add_server(element_of[i], elements_[child].node);
  }
  return hierarchy;
}

}  // namespace adept::model
