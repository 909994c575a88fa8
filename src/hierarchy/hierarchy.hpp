#pragma once
/// \file hierarchy.hpp
/// \brief The agent/server tree the paper plans and deploys.
///
/// Structure rules (§1 of the paper):
///   - a server has exactly one parent, always an agent, and no children;
///   - the root agent has no parent and one or more children;
///   - a non-root agent has exactly one parent and two or more children
///     (an agent with a single child would add scheduling cost without
///     fan-out benefit);
///   - agents and servers do not share resources: each platform node is
///     used by at most one element.
///
/// Hierarchy is a mutable builder plus query interface. Intermediate
/// construction states may violate the ≥2-children rule; `validate()`
/// checks the final form.

#include <cstddef>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace adept {

/// Role of a hierarchy element.
enum class Role { Agent, Server };

/// Returns "agent" or "server".
const char* role_name(Role role);

/// A deployment hierarchy over platform nodes.
class Hierarchy {
 public:
  /// Index of an element within this hierarchy.
  using Index = std::size_t;
  static constexpr Index npos = static_cast<Index>(-1);

  struct Element {
    NodeId node = 0;            ///< Platform node hosting this element.
    Role role = Role::Server;
    Index parent = npos;        ///< npos for the root.
    std::vector<Index> children;
  };

  Hierarchy() = default;

  /// Restores a hierarchy from a full element list (the wire
  /// deserializer's path). Unlike the incremental builders this accepts
  /// any internally consistent element vector — including index orders
  /// only reachable through reparent()/convert_to_agent() — so a
  /// serialized hierarchy round-trips to an operator==-identical value.
  /// Throws adept::Error when parent/children links are inconsistent.
  static Hierarchy from_elements(std::vector<Element> elements);

  /// Reserves element capacity (planners building known-size trees).
  void reserve(std::size_t elements) { elements_.reserve(elements); }

  /// Creates the root agent on `node`. Must be the first element added.
  Index add_root(NodeId node);
  /// Adds an agent under `parent` (which must be an agent).
  Index add_agent(Index parent, NodeId node);
  /// Adds a server under `parent` (which must be an agent).
  Index add_server(Index parent, NodeId node);

  /// The paper's `shift_nodes`: converts a (leaf) server into an agent so
  /// children can be attached to it.
  void convert_to_agent(Index element);

  /// Detaches the last-added child of `parent` (the paper's
  /// "remove 1 child from the last agent" backtracking step). The child
  /// must be a leaf.
  void remove_last_child(Index parent);

  /// Moves `child` (any non-root element) under `new_parent` (an agent
  /// that is not a descendant of `child`). Used by the bottleneck
  /// improver to relieve a saturated agent.
  void reparent(Index child, Index new_parent);

  /// Re-hosts an element on a different platform node, keeping the tree
  /// shape. Used by the link-aware refinement pass to swap node
  /// assignments; the caller is responsible for overall node uniqueness
  /// (validate() still checks it).
  void replace_node(Index element, NodeId node);

  bool empty() const { return elements_.empty(); }
  std::size_t size() const { return elements_.size(); }
  Index root() const;
  const Element& element(Index index) const;

  bool is_agent(Index index) const { return element(index).role == Role::Agent; }
  /// Number of children of an element (the paper's d_i for agents).
  std::size_t degree(Index index) const { return element(index).children.size(); }
  NodeId node_of(Index index) const { return element(index).node; }

  /// All agent element indices, in insertion order.
  std::vector<Index> agents() const;
  /// All server element indices, in insertion order.
  std::vector<Index> servers() const;
  std::size_t agent_count() const;
  std::size_t server_count() const;

  /// Platform nodes referenced by this hierarchy, in element order.
  std::vector<NodeId> used_nodes() const;

  /// Depth of an element (root = 0).
  std::size_t depth(Index index) const;
  /// Maximum element depth; a star hierarchy has max_depth() == 1.
  std::size_t max_depth() const;
  /// Largest agent degree.
  std::size_t max_degree() const;

  /// Structural problems found, as human-readable strings; empty when the
  /// hierarchy satisfies all the paper's rules. When `platform` is given,
  /// node ids are also range-checked against it. Every checked
  /// model::evaluate runs it, so it is O(n) given a platform (node reuse
  /// found in a flat table), O(n log n) without one (found by sorting).
  std::vector<std::string> validate(const Platform* platform = nullptr) const;
  /// Throws adept::Error listing all problems when validate() is non-empty.
  void validate_or_throw(const Platform* platform = nullptr) const;

  bool operator==(const Hierarchy& other) const;

 private:
  /// Tests build raw, possibly inconsistent element vectors through it,
  /// so validate() is checked on linkage no public builder can produce.
  friend struct HierarchyTestAccess;

  Index add_element(Index parent, NodeId node, Role role);
  /// Per element: how many entries of the child list of the parent it
  /// points to name it, saturated at 2 (0 = missing, 1 = listed once,
  /// 2 = listed twice or more). One pass over all child lists — the
  /// linear replacement for a per-element sibling scan.
  std::vector<unsigned char> listed_by_parent() const;

  std::vector<Element> elements_;
};

}  // namespace adept
