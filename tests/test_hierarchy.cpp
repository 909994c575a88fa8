/// \file test_hierarchy.cpp
/// \brief Unit tests for the hierarchy structure, validation rules
/// (including parity of the linear checker with the quadratic one it
/// replaced), adjacency matrix, GoDIET XML and DOT rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hierarchy/adjacency.hpp"
#include "hierarchy/dot.hpp"
#include "hierarchy/hierarchy.hpp"
#include "hierarchy/xml.hpp"
#include "planner/planner.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"

namespace adept {
namespace {

/// root → {LA(2 servers), server}: the smallest multi-level hierarchy.
Hierarchy sample() {
  Hierarchy h;
  const auto root = h.add_root(0);
  const auto la = h.add_agent(root, 1);
  h.add_server(la, 2);
  h.add_server(la, 3);
  h.add_server(root, 4);
  return h;
}

// ------------------------------------------------------------ structure --

TEST(Hierarchy, BuildAndQuery) {
  const Hierarchy h = sample();
  EXPECT_EQ(h.size(), 5u);
  EXPECT_EQ(h.agent_count(), 2u);
  EXPECT_EQ(h.server_count(), 3u);
  EXPECT_EQ(h.degree(h.root()), 2u);
  EXPECT_EQ(h.max_depth(), 2u);
  EXPECT_EQ(h.max_degree(), 2u);
  EXPECT_TRUE(h.is_agent(0));
  EXPECT_FALSE(h.is_agent(2));
  EXPECT_EQ(h.node_of(4), 4u);
  EXPECT_EQ(h.agents(), (std::vector<Hierarchy::Index>{0, 1}));
  EXPECT_EQ(h.servers(), (std::vector<Hierarchy::Index>{2, 3, 4}));
}

TEST(Hierarchy, DepthWalksParentChain) {
  const Hierarchy h = sample();
  EXPECT_EQ(h.depth(0), 0u);
  EXPECT_EQ(h.depth(1), 1u);
  EXPECT_EQ(h.depth(2), 2u);
  EXPECT_EQ(h.depth(4), 1u);
}

TEST(Hierarchy, RejectsMisuse) {
  Hierarchy h;
  EXPECT_THROW(h.root(), Error);
  const auto root = h.add_root(0);
  EXPECT_THROW(h.add_root(1), Error);                 // second root
  const auto server = h.add_server(root, 1);
  EXPECT_THROW(h.add_server(server, 2), Error);       // child of a server
  EXPECT_THROW(h.element(99), Error);
  EXPECT_THROW(h.convert_to_agent(root), Error);      // already an agent
}

TEST(Hierarchy, ConvertToAgentIsShiftNodes) {
  Hierarchy h;
  const auto root = h.add_root(0);
  const auto leaf = h.add_server(root, 1);
  h.convert_to_agent(leaf);
  EXPECT_TRUE(h.is_agent(leaf));
  h.add_server(leaf, 2);  // now children can attach
  h.add_server(leaf, 3);
  EXPECT_TRUE(h.validate().empty());
}

TEST(Hierarchy, RemoveLastChildBacktracks) {
  Hierarchy h;
  const auto root = h.add_root(0);
  h.add_server(root, 1);
  h.add_server(root, 2);
  h.remove_last_child(root);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.degree(root), 1u);
  // Only the most recently added element can be removed.
  h.add_server(root, 3);
  EXPECT_THROW(h.remove_last_child(99), Error);
}

TEST(Hierarchy, ReparentMovesSubtree) {
  Hierarchy h;
  const auto root = h.add_root(0);
  const auto la = h.add_agent(root, 1);
  const auto s1 = h.add_server(la, 2);
  h.add_server(la, 3);
  h.add_server(root, 4);
  h.reparent(s1, root);
  EXPECT_EQ(h.element(s1).parent, root);
  EXPECT_EQ(h.degree(root), 3u);
  EXPECT_EQ(h.degree(la), 1u);
}

TEST(Hierarchy, ReparentRejectsCyclesAndRoot) {
  Hierarchy h;
  const auto root = h.add_root(0);
  const auto la = h.add_agent(root, 1);
  h.add_server(la, 2);
  EXPECT_THROW(h.reparent(root, la), Error);  // cannot move the root
  EXPECT_THROW(h.reparent(la, la), Error);    // cycle to itself
  EXPECT_THROW(h.reparent(la, 2), Error);     // server cannot adopt
}

// ----------------------------------------------------------- validation --

TEST(HierarchyValidate, AcceptsPaperRules) {
  EXPECT_TRUE(sample().validate().empty());
}

TEST(HierarchyValidate, RootMustHaveChildren) {
  Hierarchy h;
  h.add_root(0);
  const auto problems = h.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no children"), std::string::npos);
}

TEST(HierarchyValidate, NonRootAgentNeedsTwoChildren) {
  Hierarchy h;
  const auto root = h.add_root(0);
  const auto la = h.add_agent(root, 1);
  h.add_server(la, 2);
  h.add_server(root, 3);
  const auto problems = h.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("two or more children"), std::string::npos);
}

TEST(HierarchyValidate, DetectsNodeSharing) {
  Hierarchy h;
  const auto root = h.add_root(0);
  h.add_server(root, 0);  // same platform node as the root
  const auto problems = h.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("more than one element"), std::string::npos);
}

TEST(HierarchyValidate, ChecksNodeRangeAgainstPlatform) {
  const Platform platform = gen::homogeneous(2, 100.0, 100.0);
  Hierarchy h;
  const auto root = h.add_root(0);
  h.add_server(root, 7);  // node 7 does not exist
  const auto problems = h.validate(&platform);
  ASSERT_FALSE(problems.empty());
  bool found = false;
  for (const auto& p : problems)
    if (p.find("outside platform") != std::string::npos) found = true;
  EXPECT_TRUE(found);
  EXPECT_THROW(h.validate_or_throw(&platform), Error);
}

TEST(HierarchyValidate, EmptyHierarchyIsInvalid) {
  Hierarchy h;
  EXPECT_FALSE(h.validate().empty());
}

}  // namespace

/// Raw element access for the parity corpus below: mutated element
/// vectors are fed to validate() without from_elements' linkage checks.
struct HierarchyTestAccess {
  static Hierarchy raw(std::vector<Hierarchy::Element> elements) {
    Hierarchy h;
    h.elements_ = std::move(elements);
    return h;
  }
};

namespace {

using Elements = std::vector<Hierarchy::Element>;
constexpr Hierarchy::Index npos = Hierarchy::npos;

/// The quadratic validate() the linear one replaced, kept verbatim as the
/// parity reference: per-element sibling find, std::set of nodes.
std::vector<std::string> reference_validate(const Elements& elements_,
                                            const Platform* platform) {
  std::vector<std::string> problems;
  if (elements_.empty()) {
    problems.emplace_back("hierarchy is empty");
    return problems;
  }
  if (elements_.front().role != Role::Agent)
    problems.emplace_back("root element is not an agent");
  if (elements_.front().parent != npos)
    problems.emplace_back("root element has a parent");

  std::set<NodeId> seen_nodes;
  for (Hierarchy::Index i = 0; i < elements_.size(); ++i) {
    const Hierarchy::Element& element = elements_[i];
    const std::string where = "element " + std::to_string(i);
    if (i != 0 && element.parent == npos)
      problems.push_back(where + ": non-root element has no parent");
    if (element.parent != npos) {
      if (element.parent >= elements_.size()) {
        problems.push_back(where + ": parent index out of range");
      } else {
        const Hierarchy::Element& parent = elements_[element.parent];
        if (parent.role != Role::Agent)
          problems.push_back(where + ": parent is not an agent");
        const auto& siblings = parent.children;
        if (std::find(siblings.begin(), siblings.end(), i) == siblings.end())
          problems.push_back(where + ": missing from parent's child list");
      }
    }
    for (Hierarchy::Index child : element.children) {
      if (child >= elements_.size())
        problems.push_back(where + ": child index out of range");
      else if (elements_[child].parent != i)
        problems.push_back(where + ": child does not point back to parent");
    }
    if (element.role == Role::Server && !element.children.empty())
      problems.push_back(where + ": server has children");
    if (element.role == Role::Agent) {
      if (i == 0 && element.children.empty())
        problems.push_back(where + ": root agent has no children");
      if (i != 0 && element.children.size() < 2)
        problems.push_back(where +
                           ": non-root agent must have two or more children");
    }
    if (!seen_nodes.insert(element.node).second)
      problems.push_back(where + ": platform node " +
                         std::to_string(element.node) +
                         " is used by more than one element");
    if (platform != nullptr && element.node >= platform->size())
      problems.push_back(where + ": node id " + std::to_string(element.node) +
                         " outside platform of size " +
                         std::to_string(platform->size()));
  }
  return problems;
}

/// The linkage checks of the sibling-count from_elements, as a predicate.
bool reference_from_elements_accepts(const Elements& elements) {
  const std::size_t n = elements.size();
  for (Hierarchy::Index i = 0; i < n; ++i) {
    const Hierarchy::Element& element = elements[i];
    if (i == 0) {
      if (element.parent != npos) return false;
    } else {
      if (element.parent == npos || element.parent >= n) return false;
      const auto& siblings = elements[element.parent].children;
      if (std::count(siblings.begin(), siblings.end(), i) != 1) return false;
    }
    for (const Hierarchy::Index child : element.children)
      if (child >= n || child == 0 || elements[child].parent != i) return false;
  }
  if (n == 0) return true;
  std::vector<Hierarchy::Index> stack{0};
  std::vector<bool> seen(n, false);
  seen[0] = true;
  std::size_t reached = 0;
  while (!stack.empty()) {
    const Hierarchy::Index current = stack.back();
    stack.pop_back();
    ++reached;
    for (const Hierarchy::Index child : elements[current].children)
      if (!seen[child]) {
        seen[child] = true;
        stack.push_back(child);
      }
  }
  return reached == n;
}

Elements elements_of(const Hierarchy& h) {
  Elements out;
  for (Hierarchy::Index i = 0; i < h.size(); ++i) out.push_back(h.element(i));
  return out;
}

Hierarchy::Index pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<Hierarchy::Index>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// Indices (excluding the root) whose role is `role`.
std::vector<Hierarchy::Index> non_root(const Elements& e, Role role) {
  std::vector<Hierarchy::Index> out;
  for (Hierarchy::Index i = 1; i < e.size(); ++i)
    if (e[i].role == role) out.push_back(i);
  return out;
}

void erase_one(std::vector<Hierarchy::Index>& list, Hierarchy::Index value) {
  list.erase(std::find(list.begin(), list.end(), value));
}

/// One named single mutation of a valid element vector. Every mutation
/// targets a seeded random element, so the corpus hits varied positions.
struct Mutation {
  const char* name;
  void (*apply)(Elements&, Rng&, std::size_t platform_size);
};

const Mutation kMutations[] = {
    {"dangling parent",
     [](Elements& e, Rng& rng, std::size_t) {
       e[pick(rng, 1, e.size() - 1)].parent = e.size() + pick(rng, 0, 3);
     }},
    {"non-root without parent",
     [](Elements& e, Rng& rng, std::size_t) {
       e[pick(rng, 1, e.size() - 1)].parent = npos;
     }},
    {"child does not point back",
     [](Elements& e, Rng& rng, std::size_t) {
       const auto agents = non_root(e, Role::Agent);
       const Hierarchy::Index agent =
           agents.empty() ? 0 : agents[pick(rng, 0, agents.size() - 1)];
       Hierarchy::Index stranger = pick(rng, 1, e.size() - 1);
       if (e[stranger].parent == agent) stranger = 0;
       e[agent].children.push_back(stranger);
     }},
    {"child index out of range",
     [](Elements& e, Rng& rng, std::size_t) {
       e[0].children.insert(e[0].children.begin(),
                            e.size() + pick(rng, 0, 3));
     }},
    {"missing from parent's list",
     [](Elements& e, Rng& rng, std::size_t) {
       const Hierarchy::Index victim = pick(rng, 1, e.size() - 1);
       erase_one(e[e[victim].parent].children, victim);
     }},
    {"listed twice",
     [](Elements& e, Rng& rng, std::size_t) {
       const Hierarchy::Index victim = pick(rng, 1, e.size() - 1);
       e[e[victim].parent].children.push_back(victim);
     }},
    {"server with children",
     [](Elements& e, Rng& rng, std::size_t) {
       const auto agents = non_root(e, Role::Agent);
       const Hierarchy::Index agent =
           agents.empty() ? 0 : agents[pick(rng, 0, agents.size() - 1)];
       e[agent].role = Role::Server;
     }},
    {"one-child non-root agent",
     [](Elements& e, Rng& rng, std::size_t) {
       // Either a server turned into a childless agent, or an agent
       // whose children but one move up to the root.
       const auto agents = non_root(e, Role::Agent);
       if (agents.empty() || rng.uniform() < 0.5) {
         const auto servers = non_root(e, Role::Server);
         e[servers[pick(rng, 0, servers.size() - 1)]].role = Role::Agent;
         return;
       }
       const Hierarchy::Index agent = agents[pick(rng, 0, agents.size() - 1)];
       while (e[agent].children.size() > 1) {
         const Hierarchy::Index moved = e[agent].children.back();
         e[agent].children.pop_back();
         e[moved].parent = 0;
         e[0].children.push_back(moved);
       }
     }},
    {"childless root",
     [](Elements& e, Rng&, std::size_t) {
       e.resize(1);
       e[0].children.clear();
     }},
    {"server root",
     [](Elements& e, Rng&, std::size_t) { e[0].role = Role::Server; }},
    {"duplicate node",
     [](Elements& e, Rng& rng, std::size_t) {
       const Hierarchy::Index a = pick(rng, 0, e.size() - 1);
       Hierarchy::Index b = pick(rng, 0, e.size() - 2);
       if (b >= a) ++b;
       e[b].node = e[a].node;
     }},
    {"out-of-range node",
     [](Elements& e, Rng& rng, std::size_t platform_size) {
       e[pick(rng, 0, e.size() - 1)].node =
           static_cast<NodeId>(platform_size + pick(rng, 0, 3));
     }},
    {"duplicate out-of-range node",
     [](Elements& e, Rng&, std::size_t platform_size) {
       e.front().node = static_cast<NodeId>(platform_size + 5);
       e.back().node = static_cast<NodeId>(platform_size + 5);
     }},
};

/// Valid plans to mutate: heuristic and sharded plans on seeded
/// heterogeneous platforms, plus the hand-built sample.
std::vector<std::pair<Platform, Hierarchy>> parity_corpus() {
  std::vector<std::pair<Platform, Hierarchy>> corpus;
  const ServiceSpec service = dgemm_service(310);
  const MiddlewareParams params = MiddlewareParams::diet_grid5000();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Platform uniform =
        gen::uniform(20 + 15 * seed, 200.0, 1200.0, 1000.0, rng);
    corpus.emplace_back(uniform,
                        plan_heterogeneous(uniform, params, service).hierarchy);
    const Platform clusters = gen::grid5000_multi_cluster(60 + 30 * seed, rng);
    PlanOptions options;
    options.shards = 2 + seed;
    corpus.emplace_back(clusters, test_util::run_planner("sharded", clusters,
                                                         service, options)
                                      .hierarchy);
  }
  corpus.emplace_back(gen::homogeneous(5, 1000.0, 1000.0), sample());
  return corpus;
}

TEST(HierarchyValidate, LinearCheckerMatchesQuadraticReference) {
  std::size_t cases = 0;
  std::size_t invalid = 0;
  for (const auto& entry : parity_corpus()) {
    const Platform& platform = entry.first;
    const Hierarchy& plan = entry.second;
    ASSERT_TRUE(plan.validate(&platform).empty());
    const Elements valid = elements_of(plan);
    Rng rng(platform.size());
    auto check = [&](const Elements& elements, const std::string& what) {
      const Hierarchy h = HierarchyTestAccess::raw(elements);
      for (const Platform* p : {&platform, static_cast<const Platform*>(nullptr)}) {
        const auto expected = reference_validate(elements, p);
        EXPECT_EQ(h.validate(p), expected)
            << what << (p != nullptr ? " (platform)" : " (no platform)");
        invalid += expected.empty() ? 0 : 1;
        ++cases;
      }
      bool accepted = true;
      try {
        Hierarchy::from_elements(elements);
      } catch (const Error&) {
        accepted = false;
      }
      EXPECT_EQ(accepted, reference_from_elements_accepts(elements)) << what;
    };
    check(valid, "unmutated");
    for (const Mutation& mutation : kMutations)
      for (int round = 0; round < 8; ++round) {
        Elements mutated = valid;
        mutation.apply(mutated, rng, platform.size());
        check(mutated, std::string(mutation.name) + " #" +
                           std::to_string(round) + " on " +
                           std::to_string(valid.size()) + " elements");
      }
  }
  // The corpus must actually exercise the failure paths.
  EXPECT_GT(invalid, cases / 2);
}

// ------------------------------------------------------------ adjacency --

TEST(Adjacency, RoundTripsSample) {
  const Hierarchy h = sample();
  const AdjacencyMatrix matrix = to_adjacency(h, 5);
  EXPECT_TRUE(matrix.at(0, 1));
  EXPECT_TRUE(matrix.at(1, 2));
  EXPECT_FALSE(matrix.at(2, 1));
  EXPECT_EQ(matrix.out_degree(0), 2u);
  EXPECT_EQ(matrix.in_degree(0), 0u);
  EXPECT_TRUE(matrix.is_used(4));

  const Hierarchy rebuilt = from_adjacency(matrix);
  EXPECT_TRUE(rebuilt.validate().empty());
  EXPECT_EQ(rebuilt.size(), h.size());
  EXPECT_EQ(rebuilt.agent_count(), h.agent_count());
  // Same edges, independent of construction order.
  const AdjacencyMatrix matrix2 = to_adjacency(rebuilt, 5);
  for (NodeId p = 0; p < 5; ++p)
    for (NodeId c = 0; c < 5; ++c) EXPECT_EQ(matrix.at(p, c), matrix2.at(p, c));
}

TEST(Adjacency, UnusedNodesStayUnused) {
  const Hierarchy h = sample();
  const AdjacencyMatrix matrix = to_adjacency(h, 10);
  for (NodeId n = 5; n < 10; ++n) EXPECT_FALSE(matrix.is_used(n));
}

TEST(Adjacency, RejectsForests) {
  AdjacencyMatrix matrix(6);
  matrix.set(0, 1);
  matrix.set(2, 3);  // second root
  EXPECT_THROW(from_adjacency(matrix), Error);
}

TEST(Adjacency, RejectsTwoParents) {
  AdjacencyMatrix matrix(4);
  matrix.set(0, 2);
  matrix.set(1, 2);
  matrix.set(0, 1);
  EXPECT_THROW(from_adjacency(matrix), Error);
}

TEST(Adjacency, RejectsSelfEdgeAndEmpty) {
  AdjacencyMatrix matrix(3);
  EXPECT_THROW(matrix.set(1, 1), Error);
  EXPECT_THROW(from_adjacency(matrix), Error);  // no deployment at all
}

// ------------------------------------------------------------------ xml --

TEST(GodietXml, WriteContainsStructure) {
  const Platform platform = gen::homogeneous(5, 1000.0, 1000.0);
  const std::string xml = write_godiet_xml(sample(), platform);
  EXPECT_NE(xml.find("<diet_hierarchy bandwidth=\"1000\">"), std::string::npos);
  EXPECT_NE(xml.find("name=\"MA\""), std::string::npos);
  EXPECT_NE(xml.find("name=\"LA-1\""), std::string::npos);
  EXPECT_NE(xml.find("name=\"SeD-1\""), std::string::npos);
  EXPECT_NE(xml.find("host=\"node-4\""), std::string::npos);
}

TEST(GodietXml, RoundTripPreservesShapeAndPowers) {
  Platform platform({{"a", 900.0}, {"b", 800.0}, {"c", 700.0}, {"d", 600.0},
                     {"e", 500.0}},
                    512.0);
  const Hierarchy h = sample();
  const Deployment deployment = parse_godiet_xml(write_godiet_xml(h, platform));
  EXPECT_TRUE(deployment.hierarchy.validate(&deployment.platform).empty());
  EXPECT_EQ(deployment.hierarchy.size(), h.size());
  EXPECT_EQ(deployment.hierarchy.agent_count(), h.agent_count());
  EXPECT_EQ(deployment.hierarchy.max_depth(), h.max_depth());
  EXPECT_DOUBLE_EQ(deployment.platform.bandwidth(), 512.0);
  // Document order in the XML is pre-order over the original hierarchy.
  EXPECT_EQ(deployment.platform.node(0).name, "a");
  EXPECT_DOUBLE_EQ(deployment.platform.node(0).power, 900.0);
}

TEST(GodietXml, ParserAcceptsCommentsAndDeclaration) {
  const std::string xml = R"(<?xml version="1.0"?>
<!-- generated by a human -->
<diet_hierarchy bandwidth="100">
  <agent name="MA" host="h1" power="10">
    <!-- one server -->
    <server name="S" host="h2" power="20"/>
  </agent>
</diet_hierarchy>)";
  const Deployment deployment = parse_godiet_xml(xml);
  EXPECT_EQ(deployment.hierarchy.size(), 2u);
  EXPECT_DOUBLE_EQ(deployment.platform.node(1).power, 20.0);
}

TEST(GodietXml, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_godiet_xml(""), Error);
  EXPECT_THROW(parse_godiet_xml("<diet_hierarchy>"), Error);  // no bandwidth
  EXPECT_THROW(parse_godiet_xml(
                   "<diet_hierarchy bandwidth=\"10\"><server name=\"s\" "
                   "host=\"h\" power=\"1\"/></diet_hierarchy>"),
               Error);  // server outside agent
  EXPECT_THROW(parse_godiet_xml("<diet_hierarchy bandwidth=\"10\">"
                                "<agent name=\"a\" host=\"h\" power=\"1\">"
                                "</diet_hierarchy>"),
               Error);  // unclosed agent
  EXPECT_THROW(parse_godiet_xml("<diet_hierarchy bandwidth=\"10\">"
                                "<agent name=\"a\" host=\"h\" power=\"1\">"
                                "<server name=\"s\" host=\"h\" power=\"1\"/>"
                                "</agent></diet_hierarchy>"),
               Error);  // duplicate host
  EXPECT_THROW(parse_godiet_xml("<diet_hierarchy bandwidth=\"-1\">"
                                "</diet_hierarchy>"),
               Error);  // bad bandwidth
}

// ------------------------------------------------------------------ dot --

TEST(Dot, RendersNodesAndEdges) {
  const Platform platform = gen::homogeneous(5, 1000.0, 1000.0);
  const std::string dot = write_dot(sample(), platform);
  EXPECT_NE(dot.find("digraph deployment"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // agents
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // servers
  EXPECT_NE(dot.find("e0 -> e1"), std::string::npos);
  EXPECT_THROW(write_dot(Hierarchy{}, platform), Error);
}

}  // namespace
}  // namespace adept
