#include "hierarchy/hierarchy.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace adept {

const char* role_name(Role role) {
  return role == Role::Agent ? "agent" : "server";
}

Hierarchy Hierarchy::from_elements(std::vector<Element> elements) {
  Hierarchy out;
  out.elements_ = std::move(elements);
  // Cross-check the doubly-linked parent/children structure; role and
  // degree rules are validate()'s job (planners may hold intermediate
  // forms), but a broken linkage would corrupt every traversal.
  const std::size_t n = out.elements_.size();
  const std::vector<unsigned char> listed = out.listed_by_parent();
  for (Index i = 0; i < n; ++i) {
    const Element& element = out.elements_[i];
    if (i == 0) {
      ADEPT_CHECK(element.parent == npos, "element 0 must be the root");
    } else {
      ADEPT_CHECK(element.parent != npos && element.parent < n,
                  "element " + std::to_string(i) + " has a bad parent index");
      ADEPT_CHECK(listed[i] == 1,
                  "element " + std::to_string(i) +
                      " is not listed exactly once by its parent");
    }
    for (const Index child : element.children) {
      ADEPT_CHECK(child < n && child != 0 && out.elements_[child].parent == i,
                  "element " + std::to_string(i) +
                      " lists a child that does not point back");
    }
  }
  // Consistent back-pointers still admit cycles detached from the root;
  // require every element reachable from it (DFS over children).
  if (n != 0) {
    std::vector<Index> stack{0};
    std::size_t reached = 0;
    std::vector<bool> seen(n, false);
    seen[0] = true;
    while (!stack.empty()) {
      const Index current = stack.back();
      stack.pop_back();
      ++reached;
      for (const Index child : out.elements_[current].children)
        if (!seen[child]) {
          seen[child] = true;
          stack.push_back(child);
        }
    }
    ADEPT_CHECK(reached == n,
                "hierarchy has elements unreachable from the root");
  }
  return out;
}

Hierarchy::Index Hierarchy::add_root(NodeId node) {
  ADEPT_CHECK(elements_.empty(), "root already exists");
  return add_element(npos, node, Role::Agent);
}

Hierarchy::Index Hierarchy::add_agent(Index parent, NodeId node) {
  return add_element(parent, node, Role::Agent);
}

Hierarchy::Index Hierarchy::add_server(Index parent, NodeId node) {
  return add_element(parent, node, Role::Server);
}

Hierarchy::Index Hierarchy::add_element(Index parent, NodeId node, Role role) {
  if (parent != npos) {
    ADEPT_CHECK(parent < elements_.size(), "parent index out of range");
    ADEPT_CHECK(elements_[parent].role == Role::Agent,
                "children can only be attached to agents");
  } else {
    ADEPT_CHECK(elements_.empty(), "only the first element may be parentless");
  }
  Element element;
  element.node = node;
  element.role = role;
  element.parent = parent;
  elements_.push_back(std::move(element));
  const Index index = elements_.size() - 1;
  if (parent != npos) elements_[parent].children.push_back(index);
  return index;
}

void Hierarchy::convert_to_agent(Index index) {
  ADEPT_CHECK(index < elements_.size(), "element index out of range");
  Element& element = elements_[index];
  ADEPT_CHECK(element.role == Role::Server, "convert_to_agent on an agent");
  element.role = Role::Agent;
}

void Hierarchy::remove_last_child(Index parent) {
  ADEPT_CHECK(parent < elements_.size(), "parent index out of range");
  Element& agent = elements_[parent];
  ADEPT_CHECK(!agent.children.empty(), "agent has no children to remove");
  const Index child = agent.children.back();
  ADEPT_CHECK(elements_[child].children.empty(),
              "can only remove a leaf child");
  ADEPT_CHECK(child == elements_.size() - 1,
              "can only remove the most recently added element");
  agent.children.pop_back();
  elements_.pop_back();
}

void Hierarchy::reparent(Index child, Index new_parent) {
  ADEPT_CHECK(child < elements_.size(), "child index out of range");
  ADEPT_CHECK(new_parent < elements_.size(), "parent index out of range");
  ADEPT_CHECK(child != 0, "cannot reparent the root");
  ADEPT_CHECK(elements_[new_parent].role == Role::Agent,
              "new parent must be an agent");
  // Refuse to create a cycle: new_parent must not live under child.
  for (Index cursor = new_parent; cursor != npos;
       cursor = elements_[cursor].parent)
    ADEPT_CHECK(cursor != child, "reparent would create a cycle");

  Element& moved = elements_[child];
  auto& old_children = elements_[moved.parent].children;
  old_children.erase(std::find(old_children.begin(), old_children.end(), child));
  moved.parent = new_parent;
  elements_[new_parent].children.push_back(child);
}

void Hierarchy::replace_node(Index element, NodeId node) {
  ADEPT_CHECK(element < elements_.size(), "element index out of range");
  elements_[element].node = node;
}

Hierarchy::Index Hierarchy::root() const {
  ADEPT_CHECK(!elements_.empty(), "hierarchy is empty");
  return 0;
}

const Hierarchy::Element& Hierarchy::element(Index index) const {
  ADEPT_CHECK(index < elements_.size(), "element index out of range");
  return elements_[index];
}

std::vector<Hierarchy::Index> Hierarchy::agents() const {
  std::vector<Index> out;
  for (Index i = 0; i < elements_.size(); ++i)
    if (elements_[i].role == Role::Agent) out.push_back(i);
  return out;
}

std::vector<Hierarchy::Index> Hierarchy::servers() const {
  std::vector<Index> out;
  for (Index i = 0; i < elements_.size(); ++i)
    if (elements_[i].role == Role::Server) out.push_back(i);
  return out;
}

std::size_t Hierarchy::agent_count() const {
  return static_cast<std::size_t>(
      std::count_if(elements_.begin(), elements_.end(),
                    [](const Element& e) { return e.role == Role::Agent; }));
}

std::size_t Hierarchy::server_count() const {
  return elements_.size() - agent_count();
}

std::vector<NodeId> Hierarchy::used_nodes() const {
  std::vector<NodeId> out;
  out.reserve(elements_.size());
  for (const auto& element : elements_) out.push_back(element.node);
  return out;
}

std::size_t Hierarchy::depth(Index index) const {
  std::size_t d = 0;
  Index current = index;
  while (element(current).parent != npos) {
    current = element(current).parent;
    ++d;
    ADEPT_ASSERT(d <= elements_.size(), "parent chain contains a cycle");
  }
  return d;
}

std::size_t Hierarchy::max_depth() const {
  std::size_t deepest = 0;
  for (Index i = 0; i < elements_.size(); ++i)
    deepest = std::max(deepest, depth(i));
  return deepest;
}

std::size_t Hierarchy::max_degree() const {
  std::size_t widest = 0;
  for (const auto& element : elements_)
    widest = std::max(widest, element.children.size());
  return widest;
}

std::vector<std::string> Hierarchy::validate(const Platform* platform) const {
  std::vector<std::string> problems;
  if (elements_.empty()) {
    problems.emplace_back("hierarchy is empty");
    return problems;
  }
  if (elements_.front().role != Role::Agent)
    problems.emplace_back("root element is not an agent");
  if (elements_.front().parent != npos)
    problems.emplace_back("root element has a parent");

  const std::size_t n = elements_.size();
  const std::vector<unsigned char> listed = listed_by_parent();

  // reused[i]: an earlier element already sits on element i's node. Nodes
  // inside the platform are marked in a flat table; the rest (every node
  // when there is no platform) are found as runs of a sorted copy.
  std::vector<char> reused(n, 0);
  std::vector<std::pair<NodeId, Index>> unplaced;
  if (platform != nullptr) {
    std::vector<char> taken(platform->size(), 0);
    for (Index i = 0; i < n; ++i) {
      const NodeId node = elements_[i].node;
      if (node < taken.size()) {
        reused[i] = taken[node];
        taken[node] = 1;
      } else {
        unplaced.emplace_back(node, i);
      }
    }
  } else {
    unplaced.reserve(n);
    for (Index i = 0; i < n; ++i) unplaced.emplace_back(elements_[i].node, i);
  }
  std::sort(unplaced.begin(), unplaced.end());
  for (std::size_t k = 1; k < unplaced.size(); ++k)
    if (unplaced[k].first == unplaced[k - 1].first)
      reused[unplaced[k].second] = 1;

  // Messages are only formatted for problems actually found.
  auto report = [&problems](Index i, const std::string& what) {
    problems.push_back("element " + std::to_string(i) + ": " + what);
  };
  for (Index i = 0; i < n; ++i) {
    const Element& element = elements_[i];
    if (i != 0 && element.parent == npos)
      report(i, "non-root element has no parent");
    if (element.parent != npos) {
      if (element.parent >= n) {
        report(i, "parent index out of range");
      } else {
        if (elements_[element.parent].role != Role::Agent)
          report(i, "parent is not an agent");
        if (listed[i] == 0) report(i, "missing from parent's child list");
      }
    }
    for (Index child : element.children) {
      if (child >= n)
        report(i, "child index out of range");
      else if (elements_[child].parent != i)
        report(i, "child does not point back to parent");
    }
    if (element.role == Role::Server && !element.children.empty())
      report(i, "server has children");
    if (element.role == Role::Agent) {
      if (i == 0 && element.children.empty())
        report(i, "root agent has no children");
      if (i != 0 && element.children.size() < 2)
        report(i, "non-root agent must have two or more children");
    }
    if (reused[i] != 0)
      report(i, "platform node " + std::to_string(element.node) +
                    " is used by more than one element");
    if (platform != nullptr && element.node >= platform->size())
      report(i, "node id " + std::to_string(element.node) +
                    " outside platform of size " +
                    std::to_string(platform->size()));
  }
  return problems;
}

std::vector<unsigned char> Hierarchy::listed_by_parent() const {
  const std::size_t n = elements_.size();
  std::vector<unsigned char> listed(n, 0);
  for (Index p = 0; p < n; ++p)
    for (const Index child : elements_[p].children)
      if (child < n && elements_[child].parent == p && listed[child] < 2)
        ++listed[child];
  return listed;
}

void Hierarchy::validate_or_throw(const Platform* platform) const {
  const auto problems = validate(platform);
  if (problems.empty()) return;
  std::string message = "invalid hierarchy:";
  for (const auto& problem : problems) message += "\n  - " + problem;
  throw Error(message);
}

bool Hierarchy::operator==(const Hierarchy& other) const {
  if (elements_.size() != other.elements_.size()) return false;
  for (Index i = 0; i < elements_.size(); ++i) {
    const Element& a = elements_[i];
    const Element& b = other.elements_[i];
    if (a.node != b.node || a.role != b.role || a.parent != b.parent ||
        a.children != b.children)
      return false;
  }
  return true;
}

}  // namespace adept
