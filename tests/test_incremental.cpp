/// \file test_incremental.cpp
/// \brief The incremental evaluation engine's exactness contract.
///
/// Four layers of defence:
///   1. randomized property: hundreds of random edit sequences, asserting
///      after *every* edit that the engine's throughput terms equal a
///      from-scratch model::evaluate bit-for-bit — homogeneous and
///      per-link platforms both;
///   2. golden pins: plan signatures (structure hash + exact Eq-16
///      floats) captured from the pre-rewrite planners, asserting the
///      rewritten planners reproduce them bit-identically, up to the
///      1000-node heterogeneous scale;
///   3. determinism: plans must be bit-identical with and without a
///      thread pool, directly and through the PlanningService;
///   4. reference parity: the bounded, root-attaching sweep returns the
///      plan, report and trace of bench/reference_planners.hpp's sweep
///      over every k with the original breadth-first agent scan;
///   5. the sweep's pruning: no candidate of any block exceeds its
///      detail::BlockBound, the bound prunes most blocks of a fixed mix,
///      and plan_candidate_beats is monotone, which makes a skip exact.
/// Plus unit coverage for the supporting pieces (NodeSet, IndexedHeap via
/// best_adopter, ThreadPool::for_each nesting).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/flat_set.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "model/hetero_comm.hpp"
#include "model/incremental.hpp"
#include "planner/heuristic_sweep.hpp"
#include "planner/planning_service.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"

#include "../bench/reference_planners.hpp"

namespace adept {
namespace {

using model::IncrementalEvaluator;
using test_util::run_planner;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();
constexpr MbitRate kB = 1000.0;

// ------------------------------------------------------ randomized edits --

// gtest ASSERT_* only works in void functions; tiny shim for the one
// non-void use below.
#define ASSERT_EQ_OR_RETURN(a, b)    \
  do {                               \
    if ((a) != (b)) {                \
      ADD_FAILURE() << #a " != " #b; \
      return false;                  \
    }                                \
  } while (false)

/// Applies the same edit to the engine and a shadow hierarchy, then
/// asserts every engine term equals the from-scratch evaluator's.
class EditDriver {
 public:
  EditDriver(const Platform& platform, const ServiceSpec& service,
             IncrementalEvaluator::CommModel comm)
      : platform_(platform), service_(service), comm_(comm),
        engine_(platform, kParams, service, comm) {}

  void start_pair(NodeId agent, NodeId server) {
    const auto root = shadow_.add_root(agent);
    shadow_.add_server(root, server);
    engine_.add_root(agent);
    engine_.add_server(0, server);
    used_.insert(agent);
    used_.insert(server);
  }

  /// One random edit; returns false when no edit was applicable.
  bool random_edit(Rng& rng) {
    switch (rng.uniform_int(0, 3)) {
      case 0: return add_server(rng);
      case 1: return add_agent(rng);
      case 2: return move_server(rng);
      default: return remove_last(rng);
    }
  }

  void verify(const std::string& what) const {
    const auto expected =
        comm_ == IncrementalEvaluator::CommModel::Homogeneous
            ? model::evaluate_unchecked(shadow_, platform_, kParams, service_)
            : model::evaluate_hetero_unchecked(shadow_, platform_, kParams,
                                               service_);
    ASSERT_EQ(engine_.sched_throughput(), expected.sched) << what;
    ASSERT_EQ(engine_.service_throughput(), expected.service) << what;
    ASSERT_EQ(engine_.throughput(), expected.overall) << what;
    ASSERT_EQ(engine_.bottleneck(), expected.bottleneck) << what;
    ASSERT_EQ(engine_.limiting_element(), expected.limiting_element) << what;
    const auto report = engine_.report();
    ASSERT_EQ(report.overall, expected.overall) << what;
    ASSERT_EQ(report.server_shares, expected.server_shares) << what;
  }

  std::size_t edits() const { return edits_; }

 private:
  NodeId free_node(Rng& rng) {
    if (used_.size() >= platform_.size()) return platform_.size();
    for (;;) {
      const auto id = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<long long>(platform_.size()) - 1));
      if (!used_.contains(id)) return id;
    }
  }

  Hierarchy::Index random_agent(Rng& rng) {
    const auto agents = shadow_.agents();
    return agents[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(agents.size()) - 1))];
  }

  bool add_server(Rng& rng) {
    const NodeId node = free_node(rng);
    if (node >= platform_.size()) return false;
    const auto parent = random_agent(rng);
    shadow_.add_server(parent, node);
    engine_.add_server(parent, node);
    used_.insert(node);
    ++edits_;
    return true;
  }

  /// Agents enter with one server child so every intermediate state is
  /// evaluable (evaluate refuses childless agents).
  bool add_agent(Rng& rng) {
    const NodeId agent_node = free_node(rng);
    if (agent_node >= platform_.size()) return false;
    used_.insert(agent_node);
    const NodeId server_node = free_node(rng);
    if (server_node >= platform_.size()) {
      used_.erase(agent_node);
      return false;
    }
    const auto parent = random_agent(rng);
    const auto agent = shadow_.add_agent(parent, agent_node);
    ASSERT_EQ_OR_RETURN(engine_.add_agent(parent, agent_node), agent);
    shadow_.add_server(agent, server_node);
    engine_.add_server(agent, server_node);
    used_.insert(server_node);
    edits_ += 2;
    return true;
  }

  bool move_server(Rng& rng) {
    if (shadow_.agent_count() < 2) return false;
    // A server child of an agent that can spare one (degree >= 2).
    std::vector<Hierarchy::Index> movable;
    for (Hierarchy::Index s : shadow_.servers())
      if (shadow_.degree(shadow_.element(s).parent) >= 2) movable.push_back(s);
    if (movable.empty()) return false;
    const auto moved = movable[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<long long>(movable.size()) - 1))];
    const auto old_parent = shadow_.element(moved).parent;
    Hierarchy::Index target = random_agent(rng);
    if (target == old_parent) return false;
    shadow_.reparent(moved, target);
    engine_.move_server(moved, target);
    ++edits_;
    return true;
  }

  bool remove_last(Rng&) {
    const Hierarchy::Index last = shadow_.size() - 1;
    if (shadow_.size() <= 2 || shadow_.is_agent(last)) return false;
    if (!shadow_.element(last).children.empty()) return false;
    const auto parent = shadow_.element(last).parent;
    if (shadow_.degree(parent) < 2) return false;  // keep the parent evaluable
    if (shadow_.element(parent).children.back() != last) return false;
    used_.erase(shadow_.node_of(last));
    shadow_.remove_last_child(parent);
    engine_.remove_last();
    ++edits_;
    return true;
  }

  const Platform& platform_;
  const ServiceSpec& service_;
  IncrementalEvaluator::CommModel comm_;
  Hierarchy shadow_;
  IncrementalEvaluator engine_;
  NodeSet used_;
  std::size_t edits_ = 0;
};

std::size_t drive_random_sequences(IncrementalEvaluator::CommModel comm) {
  std::size_t total_edits = 0;
  for (std::uint64_t seed = 1; seed <= 300 && !::testing::Test::HasFailure();
       ++seed) {
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(6, 40));
    Platform platform = gen::uniform(n, 150.0, 1400.0, kB, rng);
    if (comm == IncrementalEvaluator::CommModel::PerLink)
      platform = gen::with_heterogeneous_links(std::move(platform), 50.0,
                                               1000.0, rng);
    const ServiceSpec service =
        dgemm_service(static_cast<std::size_t>(rng.uniform_int(50, 600)));

    EditDriver driver(platform, service, comm);
    driver.start_pair(0, 1);
    driver.verify("seed " + std::to_string(seed) + " initial pair");
    for (int i = 0; i < 18 && !::testing::Test::HasFailure(); ++i) {
      if (!driver.random_edit(rng)) continue;
      driver.verify("seed " + std::to_string(seed) + " edit " +
                    std::to_string(i));
    }
    total_edits += driver.edits();
  }
  return total_edits;
}

TEST(IncrementalEvaluator_, RandomEditSequencesMatchEvaluateBitForBit) {
  const std::size_t edits =
      drive_random_sequences(IncrementalEvaluator::CommModel::Homogeneous);
  EXPECT_GE(edits, 2000u);  // 300 sequences x ~18 ops; the contract wants volume
}

TEST(IncrementalEvaluator_, RandomEditSequencesMatchHeteroEvaluatorBitForBit) {
  const std::size_t edits =
      drive_random_sequences(IncrementalEvaluator::CommModel::PerLink);
  EXPECT_GE(edits, 2000u);
}

TEST(IncrementalEvaluator_, InitFromMirrorsAnExistingHierarchy) {
  Rng rng(99);
  const Platform platform = gen::uniform(30, 200.0, 1200.0, kB, rng);
  const ServiceSpec service = dgemm_service(310);
  const auto plan = run_planner("balanced", platform, service);
  IncrementalEvaluator engine(platform, kParams, service);
  engine.init_from(plan.hierarchy);
  const auto expected =
      model::evaluate_unchecked(plan.hierarchy, platform, kParams, service);
  EXPECT_EQ(engine.throughput(), expected.overall);
  EXPECT_EQ(engine.sched_throughput(), expected.sched);
  EXPECT_EQ(engine.service_throughput(), expected.service);
  EXPECT_EQ(engine.limiting_element(), expected.limiting_element);
}

TEST(IncrementalEvaluator_, BestAdopterMatchesTheHistoricalScan) {
  Rng rng(7);
  const Platform platform = gen::uniform(25, 200.0, 1200.0, kB, rng);
  const ServiceSpec service = dgemm_service(310);
  const auto plan = run_planner("balanced", platform, service, {.degree = 3});
  IncrementalEvaluator engine(platform, kParams, service);
  engine.init_from(plan.hierarchy);

  auto scan = [&](Hierarchy::Index exclude) {
    Hierarchy::Index best = Hierarchy::npos;
    RequestRate best_rate = -1.0;
    for (Hierarchy::Index a : plan.hierarchy.agents()) {
      if (a == exclude) continue;
      const RequestRate rate = model::agent_sched_throughput(
          kParams, platform.power(plan.hierarchy.node_of(a)),
          plan.hierarchy.degree(a) + 1, platform.bandwidth());
      if (rate > best_rate) {
        best_rate = rate;
        best = a;
      }
    }
    return best;
  };
  EXPECT_EQ(engine.best_adopter(), scan(Hierarchy::npos));
  for (Hierarchy::Index a : plan.hierarchy.agents())
    EXPECT_EQ(engine.best_adopter(a), scan(a)) << "excluding " << a;
}

TEST(IncrementalEvaluator_, SnapshotMatchesLockStepHierarchy) {
  const Platform platform = gen::homogeneous(12, 1000.0, kB);
  const ServiceSpec service = dgemm_service(310);
  IncrementalEvaluator engine(platform, kParams, service);
  const auto root = engine.add_root(0);
  const auto a1 = engine.add_agent(root, 1);
  const auto a2 = engine.add_agent(root, 2);
  engine.add_server(a1, 3);
  engine.add_server(a1, 4);
  engine.add_server(a2, 5);
  engine.add_server(root, 6);
  engine.add_server(a2, 7);

  // snapshot() groups each agent's servers, like Algorithm 1's Builder.
  Hierarchy expected;
  const auto r = expected.add_root(0);
  const auto e1 = expected.add_agent(r, 1);
  const auto e2 = expected.add_agent(r, 2);
  expected.add_server(r, 6);
  expected.add_server(e1, 3);
  expected.add_server(e1, 4);
  expected.add_server(e2, 5);
  expected.add_server(e2, 7);
  EXPECT_EQ(engine.snapshot(), expected);
  EXPECT_EQ(engine.throughput(),
            model::evaluate(expected, platform, kParams, service).overall);
}

// ----------------------------------------------------------- golden pins --

/// FNV-1a over the element-structure string "A<node>:<parent>;S<node>:...".
std::uint64_t structure_hash(const Hierarchy& hierarchy) {
  std::string text;
  for (Hierarchy::Index i = 0; i < hierarchy.size(); ++i) {
    const auto& e = hierarchy.element(i);
    text += e.role == Role::Agent ? 'A' : 'S';
    text += std::to_string(e.node);
    text += ':';
    text += e.parent == Hierarchy::npos ? std::string("r")
                                        : std::to_string(e.parent);
    text += ';';
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct GoldenPin {
  const char* tag;
  const char* planner;
  std::uint64_t structure;
  double overall;
  double sched;
  double service;
};

/// Captured from the pre-incremental-engine build (PR 1, commit 78ce314)
/// with tools equivalent to structure_hash(); %.17g floats round-trip
/// exactly. P0 homogeneous(21); P1 uniform(40, seed 11); P2 orsay(60,
/// seed 5, dgemm-1000); P3 hetero links (seed 23, dgemm-100); P1d demand
/// = 0.4x the P1 heuristic optimum; S* orsay(seed 20080615) scale pins.
const GoldenPin kPins[] = {
    {"P0", "balanced", 0x20f71dce273efd85ULL, 284.791518117875, 3770.739064856712, 284.791518117875},
    {"P0", "heuristic", 0x6b164ef83e13f637ULL, 334.93914323237021, 1973.5543714229327, 334.93914323237021},
    {"P0", "homogeneous", 0x6b164ef83e13f637ULL, 334.93914323237021, 1973.5543714229327, 334.93914323237021},
    {"P0", "improver", 0x6b164ef83e13f637ULL, 334.93914323237021, 1973.5543714229327, 334.93914323237021},
    {"P0", "link-aware", 0x6b164ef83e13f637ULL, 334.93914323237021, 1973.5543714229327, 334.93914323237021},
    {"P0", "star", 0x6b164ef83e13f637ULL, 334.93914323237021, 1973.5543714229327, 334.93914323237021},
    {"P1", "balanced", 0xac5c4402abe8c99dULL, 388.38371163531576, 1207.5815383112074, 388.38371163531576},
    {"P1", "heuristic", 0x21e84157b3fc1761ULL, 427.8241531020139, 457.88985438935333, 427.8241531020139},
    {"P1", "homogeneous", 0xb4f92a2195fa10d1ULL, 411.5010729784874, 1333.9804294028952, 411.5010729784874},
    {"P1", "improver", 0xb4f92a2195fa10d1ULL, 411.5010729784874, 1333.9804294028952, 411.5010729784874},
    {"P1", "link-aware", 0x21e84157b3fc1761ULL, 427.8241531020139, 457.88985438935333, 427.8241531020139},
    {"P1", "star", 0xcb46ff27cdb81291ULL, 411.5010729784874, 1333.9804294028952, 411.5010729784874},
    {"P1d", "heuristic", 0xc129fbfea1ce012cULL, 181.96115575141707, 3242.8201962046887, 181.96115575141707},
    {"P1d", "improver", 0xc129fbfea1ce012cULL, 181.96115575141707, 3242.8201962046887, 181.96115575141707},
    {"P2", "balanced", 0x0cbf215f44ed0f64ULL, 4.1029186759479401, 480.61075741751284, 4.1029186759479401},
    {"P2", "heuristic", 0x987600f1e8df4de1ULL, 4.7906965662991841, 80.14840400794472, 4.7906965662991841},
    {"P2", "homogeneous", 0xf6af2bf83b5d3a79ULL, 4.7115230109763262, 322.06119162640903, 4.7115230109763262},
    {"P2", "improver", 0xf6af2bf83b5d3a79ULL, 4.7115230109763262, 322.06119162640903, 4.7115230109763262},
    {"P2", "link-aware", 0x987600f1e8df4de1ULL, 4.7906965662991841, 80.14840400794472, 4.7906965662991841},
    {"P2", "star", 0xfaaed9b987037567ULL, 4.7115230109763253, 322.06119162640903, 4.7115230109763253},
    {"P3", "balanced", 0x63fea78522db79bdULL, 1371.0618945675735, 1371.0618945675735, 6831.8132733964449},
    {"P3", "heuristic", 0x707b2c2752f08d2aULL, 4398.6221624565987, 4398.6221624565987, 4426.839099951254},
    {"P3", "homogeneous", 0x08c58e851d46699fULL, 4331.9208543866453, 4331.9208543866453, 4372.2669762682035},
    {"P3", "improver", 0xba7199af7bdf2025ULL, 3555.5487143178239, 3696.3177589062257, 3555.5487143178239},
    {"P3", "link-aware", 0xf3b8063524712bf1ULL, 3409.1573293606789, 3409.1573293606789, 3410.7062930244497},
    {"P3", "star", 0x1d249cee771af6e5ULL, 1933.5543406169861, 1933.5543406169861, 7311.1330451626609},
};

void expect_pin(const GoldenPin& pin, const PlanResult& plan) {
  EXPECT_EQ(structure_hash(plan.hierarchy), pin.structure)
      << pin.tag << ' ' << pin.planner << ": structure changed";
  EXPECT_EQ(plan.report.overall, pin.overall) << pin.tag << ' ' << pin.planner;
  EXPECT_EQ(plan.report.sched, pin.sched) << pin.tag << ' ' << pin.planner;
  EXPECT_EQ(plan.report.service, pin.service) << pin.tag << ' ' << pin.planner;
}

TEST(GoldenPins, AllSixPlannersReproduceThePreRewritePlans) {
  const Platform p0 = gen::homogeneous(21, 1000.0, kB);
  Rng r1(11);
  const Platform p1 = gen::uniform(40, 200.0, 1200.0, kB, r1);
  Rng r2(5);
  const Platform p2 = gen::grid5000_orsay_loaded(60, r2);
  Rng r3(23);
  const Platform p3 = gen::with_heterogeneous_links(
      gen::uniform(24, 200.0, 1200.0, kB, r3), 50.0, 1000.0, r3);

  for (const GoldenPin& pin : kPins) {
    const std::string tag = pin.tag;
    if (tag == "P0")
      expect_pin(pin, run_planner(pin.planner, p0, dgemm_service(310)));
    else if (tag == "P1")
      expect_pin(pin, run_planner(pin.planner, p1, dgemm_service(310)));
    else if (tag == "P1d")
      expect_pin(pin, run_planner(pin.planner, p1, dgemm_service(310),
                                  {.demand = 0.4 * 427.8241531020139}));
    else if (tag == "P2")
      expect_pin(pin, run_planner(pin.planner, p2, dgemm_service(1000)));
    else if (tag == "P3")
      expect_pin(pin, run_planner(pin.planner, p3, dgemm_service(100)));
  }
}

TEST(GoldenPins, ScalePinsHoldUpTo1000Nodes) {
  const GoldenPin scale_pins[] = {
      {"S100", "heuristic", 0x7ab92cb93b66e0d2ULL, 273.01555253965529, 361.5721155584481, 273.01555253965529},
      {"S100", "improver", 0x7a174de3f9ab4a29ULL, 8.3166437423761455, 216.77866897897243, 8.3166437423761455},
      {"S310", "heuristic", 0x569106ad4dc4c162ULL, 673.89985848102958, 673.89985848102958, 675.45744429880722},
      {"S310", "improver", 0x009e7743e18634b0ULL, 24.338587130413206, 79.808459696727851, 24.338587130413206},
      {"S1000", "heuristic", 0x962130a268965cedULL, 691.46729359701283, 691.46729359701283, 692.5146683550339},
  };
  for (const GoldenPin& pin : scale_pins) {
    const std::size_t n = static_cast<std::size_t>(
        std::stoul(std::string(pin.tag).substr(1)));
    Rng rng(20080615);
    const Platform platform = gen::grid5000_orsay_loaded(n, rng);
    const auto service =
        dgemm_service(std::string(pin.planner) == "heuristic" ? 310 : 1000);
    expect_pin(pin, run_planner(pin.planner, platform, service));
  }
}

TEST(GoldenPins, HeuristicTraceIsUnchanged) {
  Rng r1(11);
  const Platform p1 = gen::uniform(40, 200.0, 1200.0, kB, r1);
  const auto plan = run_planner("heuristic", p1, dgemm_service(310));
  ASSERT_EQ(plan.trace.size(), 2u);
  EXPECT_EQ(plan.trace[0],
            "k=1 (star family): best so far 411.501073 req/s with 40 nodes");
  EXPECT_EQ(plan.trace[1],
            "selected deployment: 1 agents, 39 servers, predicted "
            "427.824153 req/s");
}

// ----------------------------------------------- parallel k-sweep parity --

TEST(ParallelSweep, PoolAndSerialPlansAreBitIdentical) {
  Rng rng(31);
  const Platform platform = gen::uniform(120, 150.0, 1400.0, kB, rng);
  const ServiceSpec service = dgemm_service(310);
  const auto serial = plan_heterogeneous(platform, kParams, service);
  ThreadPool pool(4);
  const auto parallel =
      plan_heterogeneous(platform, kParams, service, kUnlimitedDemand, &pool);
  EXPECT_EQ(parallel.hierarchy, serial.hierarchy);
  EXPECT_EQ(parallel.report.overall, serial.report.overall);
  EXPECT_EQ(parallel.trace, serial.trace);
}

TEST(ParallelSweep, PlanningServiceInjectedPoolMatchesFreeFunction) {
  Rng rng(32);
  const Platform platform = gen::uniform(110, 150.0, 1400.0, kB, rng);
  const ServiceSpec service = dgemm_service(310);
  PlanningService planning(4);
  const auto run =
      planning.run(PlanRequest(platform, kParams, service), "heuristic");
  ASSERT_TRUE(run.ok) << run.error;
  const auto direct = plan_heterogeneous(platform, kParams, service);
  EXPECT_EQ(run.result.hierarchy, direct.hierarchy);
  EXPECT_EQ(run.result.report.overall, direct.report.overall);
  EXPECT_EQ(run.result.trace, direct.trace);
}

TEST(ParallelSweep, ForEachSupportsNestedUse) {
  ThreadPool pool(3);
  std::vector<std::vector<int>> hits(5, std::vector<int>(7, 0));
  pool.for_each(5, [&](std::size_t outer) {
    // Nested fan-out on the same pool: the submitting thread participates,
    // so this cannot deadlock even with every worker busy.
    pool.for_each(7, [&](std::size_t inner) { hits[outer][inner]++; });
  });
  for (const auto& row : hits)
    for (int count : row) EXPECT_EQ(count, 1);
}

// ------------------------------------- reference Algorithm-1 sweep parity --

/// The production sweep visits only the agent counts whose structural
/// minimum fits, prunes the blocks whose bound cannot win and attaches
/// every agent to the root; the reference planner sweeps every k with
/// the original breadth-first scan. Both must produce the same plan,
/// report and trace on every catalog preset, at every n mod 3 and the
/// single-agent edge (n = 2, 3), with and without a pool (which must not
/// change a plan).
TEST(ReferenceParity, HeuristicMatchesTheFullBreadthFirstSweep) {
  ThreadPool pool(3);
  const std::size_t sizes[] = {2,  3,  4,  5,  6,  7,  8,  9,  10,
                               11, 12, 13, 25, 37, 50, 64, 97};
  for (const auto& preset : gen::platform_catalog()) {
    const bool clustered =
        preset.name == "g5k-multi-cluster" || preset.name == "wan-clusters";
    for (const std::size_t n : sizes) {
      if (clustered && n < 8) continue;
      const Platform platform = gen::catalog_platform(preset.name, n, 15);
      for (const std::size_t grain : {10, 310, 1000}) {
        const ServiceSpec service = dgemm_service(grain);
        const auto unlimited = bench::reference_plan_heterogeneous(
            platform, kParams, service);
        // Half the unconstrained optimum: the demand stop always binds.
        for (const RequestRate demand :
             {kUnlimitedDemand, 0.5 * unlimited.report.overall}) {
          const auto reference = bench::reference_plan_heterogeneous(
              platform, kParams, service, demand);
          for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr),
                                      &pool}) {
            SCOPED_TRACE(preset.name + " n=" + std::to_string(n) +
                         " dgemm-" + std::to_string(grain) + " demand=" +
                         std::to_string(demand) +
                         (threads ? " pool" : " serial"));
            const auto plan = plan_heterogeneous(platform, kParams, service,
                                                 demand, threads);
            EXPECT_EQ(plan.hierarchy, reference.hierarchy);
            EXPECT_EQ(plan.report, reference.report);
            EXPECT_EQ(plan.trace, reference.trace);
          }
        }
      }
    }
  }
}

// ------------------------------------------------- pruned sweep (bound) --

/// Every block of every ReferenceParity platform (plus 150 and 310
/// nodes, and a demand that binds) is built in full, and no candidate
/// may exceed the block's bound: a pruned block can then never hold a
/// candidate the full sweep would have kept.
TEST(SweepBound, NoCandidateExceedsItsBlockBound) {
  const std::size_t sizes[] = {2,  3,  4,  5,  6,  7,  8,  9,  10,  11,
                               12, 13, 25, 37, 50, 64, 97, 150, 310};
  std::size_t candidates = 0;
  for (const auto& preset : gen::platform_catalog()) {
    const bool clustered =
        preset.name == "g5k-multi-cluster" || preset.name == "wan-clusters";
    for (const std::size_t n : sizes) {
      if (clustered && n < 8) continue;
      const Platform platform = gen::catalog_platform(preset.name, n, 15);
      const std::vector<NodeId> order =
          detail::potential_order(platform, kParams);
      for (const std::size_t grain : {10, 310, 1000}) {
        const ServiceSpec service = dgemm_service(grain);
        for (const RequestRate demand : {kUnlimitedDemand, 50.0}) {
          const detail::BlockBound bound(platform, kParams, service, demand,
                                         order);
          for (int polarity = 0; polarity < 2; ++polarity) {
            for (std::size_t k = 1; k <= detail::max_agents(n); ++k) {
              const RequestRate cap = bound(polarity, k);
              StopGuard stop(nullptr);
              detail::run_block(
                  platform, kParams, service, demand, order, polarity, k,
                  stop, [&](const detail::Candidate& candidate,
                            const detail::Builder&) {
                    ++candidates;
                    EXPECT_LE(candidate.objective, cap)
                        << preset.name << " n=" << n << " dgemm-" << grain
                        << " demand=" << demand << " polarity=" << polarity
                        << " k=" << k << " nodes=" << candidate.nodes;
                    EXPECT_GE(candidate.nodes,
                              k + detail::structural_servers(k));
                    return false;
                  });
            }
          }
        }
      }
    }
  }
  EXPECT_GT(candidates, 100000u);
}

/// Both sides of the bound must pull their weight: on a fixed mix shaped
/// like bench/e2e's serve-cold stream (50–200 nodes, three presets,
/// dgemm-310) the sweep builds few of its blocks. Dropping either side
/// only loosens the bound, so no soundness test can notice; this one
/// does.
TEST(SweepBound, PrunesMostBlocksOfAColdMix) {
  const char* const presets[] = {"uniform", "long-tail", "orsay"};
  const ServiceSpec service = dgemm_service(310);
  Rng rng(41);
  std::size_t built = 0, blocks = 0;
  for (std::size_t i = 0; i < 90; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(50, 200));
    const Platform platform =
        gen::catalog_platform(presets[i % 3], n, 1000 + i);
    const std::vector<NodeId> order =
        detail::potential_order(platform, kParams);
    StopGuard stop(nullptr);
    built += detail::sweep(platform, kParams, service, kUnlimitedDemand,
                           order, stop)
                 .blocks_built;
    blocks += (platform.is_homogeneous() ? 1 : 2) * detail::max_agents(n);
  }
  EXPECT_GT(blocks, 5000u);
  EXPECT_LE(built, 360u) << "of " << blocks << " blocks";
}

/// The skip rule tests the bound at the block's fewest nodes; that covers
/// every candidate of the block only because plan_candidate_beats never
/// turns from false to true as rho_new falls or nodes_new grows —
/// including across the 1e-9 near-tie band, one ulp at a time.
TEST(SweepBound, CandidateComparisonIsMonotone) {
  for (const RequestRate rho_old : {1e-3, 1.0, 427.8241531020139, 7.5e6}) {
    std::vector<RequestRate> rhos = {0.0, 0.5 * rho_old, 2.0 * rho_old};
    for (const RequestRate anchor :
         {rho_old * (1.0 + 1e-9), rho_old, rho_old * (1.0 - 1e-9)}) {
      RequestRate up = anchor, down = anchor;
      for (int step = 0; step < 200; ++step) {
        rhos.push_back(up);
        rhos.push_back(down);
        up = std::nextafter(up, 2.0 * rho_old);
        down = std::nextafter(down, 0.0);
      }
    }
    std::sort(rhos.begin(), rhos.end(), std::greater<>());
    const std::size_t nodes_old = 10;
    for (const std::size_t nodes_new : {1u, 9u, 10u, 11u, 40u}) {
      bool beaten = true;  // walking rho_new down: true, then false for good
      for (const RequestRate rho_new : rhos) {
        const bool beats =
            plan_candidate_beats(rho_new, nodes_new, rho_old, nodes_old);
        EXPECT_FALSE(beats && !beaten)
            << "rho_old=" << rho_old << " rho_new=" << rho_new
            << " nodes_new=" << nodes_new;
        beaten = beats;
      }
    }
    for (const RequestRate rho_new : rhos) {
      bool beaten = true;  // walking nodes_new up
      for (std::size_t nodes_new = 0; nodes_new < 20; ++nodes_new) {
        const bool beats =
            plan_candidate_beats(rho_new, nodes_new, rho_old, nodes_old);
        EXPECT_FALSE(beats && !beaten)
            << "rho_old=" << rho_old << " rho_new=" << rho_new
            << " nodes_new=" << nodes_new;
        beaten = beats;
      }
    }
  }
}

// ------------------------------------------------------ NodeSet coverage --

TEST(NodeSet_, BehavesLikeASortedSet) {
  NodeSet set{5, 1, 3, 3, 1};
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(1));
  EXPECT_EQ(set.count(3), 1u);
  EXPECT_EQ(set.count(2), 0u);
  set.insert(2);
  set.insert(2);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  set.erase(3);
  EXPECT_FALSE(set.contains(3));
  const std::set<NodeId> legacy{9, 4};
  const NodeSet converted = legacy;
  EXPECT_TRUE(converted.contains(4));
  EXPECT_TRUE(converted.contains(9));
  EXPECT_EQ(converted.size(), 2u);
}

}  // namespace
}  // namespace adept
