#include "platform/platform.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>

#include "common/error.hpp"

namespace adept {

namespace {

/// Index of the first node, in input order, whose name an earlier node
/// already has; nodes.size() when every name is unique. One flat
/// open-addressing table of name pointers, sized once: no per-node
/// allocation.
std::size_t first_repeated_name(const std::vector<NodeSpec>& nodes) {
  std::size_t capacity = 16;
  while (capacity < 2 * nodes.size()) capacity *= 2;
  std::vector<const std::string*> slots(capacity, nullptr);
  const std::hash<std::string_view> hash;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string& name = nodes[i].name;
    for (std::size_t slot = hash(name) & (capacity - 1);;
         slot = (slot + 1) & (capacity - 1)) {
      if (slots[slot] == nullptr) {
        slots[slot] = &name;
        break;
      }
      if (*slots[slot] == name) return i;
    }
  }
  return nodes.size();
}

}  // namespace

Platform::Platform(std::vector<NodeSpec> nodes, MbitRate bandwidth)
    : nodes_(std::move(nodes)), bandwidth_(bandwidth) {
  ADEPT_CHECK(bandwidth_ > 0.0, "platform bandwidth must be positive");
  // The error names the first node, in input order, that is invalid or
  // repeats an earlier name.
  const std::size_t repeated = first_repeated_name(nodes_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    validate_node(nodes_[i]);
    ADEPT_CHECK(i != repeated,
                "duplicate node name '" + nodes_[i].name + "'");
  }
  rebuild_caches();
}

void Platform::rebuild_caches() {
  powers_.resize(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) powers_[i] = nodes_[i].power;
  order_desc_.resize(nodes_.size());
  for (NodeId i = 0; i < order_desc_.size(); ++i) order_desc_[i] = i;
  std::stable_sort(order_desc_.begin(), order_desc_.end(),
                   [this](NodeId a, NodeId b) {
                     if (powers_[a] != powers_[b]) return powers_[a] > powers_[b];
                     return a < b;
                   });
}

void Platform::validate_node(const NodeSpec& node) const {
  ADEPT_CHECK(!node.name.empty(), "node name must be non-empty");
  ADEPT_CHECK(node.power > 0.0,
              "node '" + node.name + "' must have positive power");
  ADEPT_CHECK(node.link >= 0.0,
              "node '" + node.name + "' link bandwidth must be non-negative");
}

MbitRate Platform::link_bandwidth(NodeId id) const {
  const NodeSpec& spec = node(id);
  return spec.link > 0.0 ? spec.link : bandwidth_;
}

MbitRate Platform::edge_bandwidth(NodeId a, NodeId b) const {
  return std::min(link_bandwidth(a), link_bandwidth(b));
}

bool Platform::has_homogeneous_links() const {
  for (const auto& spec : nodes_)
    if (spec.link > 0.0 && spec.link != bandwidth_) return false;
  return true;
}

void Platform::set_link(NodeId id, MbitRate link) {
  ADEPT_CHECK(id < nodes_.size(), "node id out of range");
  ADEPT_CHECK(link > 0.0, "link bandwidth must be positive");
  nodes_[id].link = link;
}

void Platform::set_power(NodeId id, MFlopRate power) {
  ADEPT_CHECK(id < nodes_.size(), "node id out of range");
  ADEPT_CHECK(power > 0.0, "node power must be positive");
  nodes_[id].power = power;
  rebuild_caches();
}

const NodeSpec& Platform::node(NodeId id) const {
  ADEPT_CHECK(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

NodeId Platform::add_node(NodeSpec node) {
  validate_node(node);
  for (const auto& existing : nodes_)
    ADEPT_CHECK(existing.name != node.name,
                "duplicate node name '" + node.name + "'");
  nodes_.push_back(std::move(node));
  rebuild_caches();
  return nodes_.size() - 1;
}

MFlopRate Platform::total_power() const {
  MFlopRate total = 0.0;
  for (const auto& node : nodes_) total += node.power;
  return total;
}

MFlopRate Platform::min_power() const {
  ADEPT_CHECK(!nodes_.empty(), "min_power of empty platform");
  MFlopRate lo = nodes_.front().power;
  for (const auto& node : nodes_) lo = std::min(lo, node.power);
  return lo;
}

MFlopRate Platform::max_power() const {
  ADEPT_CHECK(!nodes_.empty(), "max_power of empty platform");
  MFlopRate hi = nodes_.front().power;
  for (const auto& node : nodes_) hi = std::max(hi, node.power);
  return hi;
}

double Platform::heterogeneity_ratio() const { return max_power() / min_power(); }

bool Platform::is_homogeneous() const {
  if (nodes_.size() < 2) return true;
  const double lo = min_power();
  const double hi = max_power();
  return (hi - lo) <= 1e-12 * hi;
}

Platform Platform::subset(const std::vector<NodeId>& ids) const {
  std::vector<NodeSpec> chosen;
  chosen.reserve(ids.size());
  for (NodeId id : ids) chosen.push_back(node(id));
  return Platform(std::move(chosen), bandwidth_);
}

}  // namespace adept
