/// \file test_sharded.cpp
/// \brief The sharded planning backend: determinism pins (thread counts,
/// shard orderings), the quality floor, exclusion, and service dispatch.

#include "planner/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "planner/planning_service.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"

namespace adept {
namespace {

using test_util::run_planner;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();

Platform multi_cluster(std::size_t count, std::uint64_t seed = 42) {
  Rng rng(seed);
  return gen::grid5000_multi_cluster(count, rng);
}

PlanResult plan_with_pool(const Platform& platform, std::size_t threads,
                          const plat::Partition& partition,
                          PlanOptions options = {}) {
  if (threads == 0) {
    options.pool = nullptr;
    return plan_sharded(platform, kParams, dgemm_service(310), options,
                        partition);
  }
  ThreadPool pool(threads);
  options.pool = &pool;
  return plan_sharded(platform, kParams, dgemm_service(310), options,
                      partition);
}

// ---------------------------------------------------------- determinism --

TEST(Sharded, BitIdenticalForAnyThreadCount) {
  const Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const PlanResult serial = plan_with_pool(platform, 0, partition);
  for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
    const PlanResult parallel = plan_with_pool(platform, threads, partition);
    EXPECT_EQ(parallel.hierarchy, serial.hierarchy) << threads << " threads";
    EXPECT_EQ(parallel.report.overall, serial.report.overall);
    EXPECT_EQ(parallel.trace, serial.trace);
  }
}

TEST(Sharded, BitIdenticalForAnyShardOrdering) {
  const Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const PlanResult canonical = plan_with_pool(platform, 2, partition);
  std::mt19937 shuffle_rng(7);
  for (int round = 0; round < 5; ++round) {
    plat::Partition shuffled = partition;
    std::shuffle(shuffled.shards.begin(), shuffled.shards.end(), shuffle_rng);
    for (auto& shard : shuffled.shards)
      std::shuffle(shard.begin(), shard.end(), shuffle_rng);
    const PlanResult plan = plan_with_pool(platform, 2, shuffled);
    EXPECT_EQ(plan.hierarchy, canonical.hierarchy) << "round " << round;
    EXPECT_EQ(plan.trace, canonical.trace);
  }
}

// -------------------------------------------------------------- quality --

TEST(Sharded, NeverWorseThanTheBestSingleShard) {
  const Platform platform = multi_cluster(200);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const PlanResult whole = plan_with_pool(platform, 0, partition);
  for (const auto& shard : partition.shards) {
    const Platform sub = platform.subset(shard);
    const PlanResult alone =
        plan_heterogeneous(sub, kParams, dgemm_service(310));
    EXPECT_GE(whole.report.overall, alone.report.overall * (1.0 - 1e-9));
  }
}

TEST(Sharded, StitchedPlanIsValidAndDisjoint) {
  const Platform platform = multi_cluster(200);
  const PlanResult plan =
      run_planner("sharded", platform, dgemm_service(310));
  EXPECT_TRUE(plan.hierarchy.validate(&platform).empty());
  std::vector<NodeId> used = plan.hierarchy.used_nodes();
  std::sort(used.begin(), used.end());
  EXPECT_EQ(std::adjacent_find(used.begin(), used.end()), used.end())
      << "a node hosts two elements";
}

TEST(Sharded, SingleShardDegeneratesToTheHeuristic) {
  // A small single-label pool stays monolithic and must match the
  // heuristic planner bit for bit.
  Rng rng(5);
  const Platform platform = gen::grid5000_orsay_loaded(80, rng);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  const PlanResult heuristic =
      run_planner("heuristic", platform, dgemm_service(310));
  EXPECT_EQ(sharded.hierarchy, heuristic.hierarchy);
  EXPECT_EQ(sharded.report.overall, heuristic.report.overall);
}

TEST(Sharded, MeetsDemandWithFewerNodesThanUnlimited) {
  const Platform platform = multi_cluster(200);
  PlanOptions capped;
  capped.demand = 50.0;
  const PlanResult small =
      run_planner("sharded", platform, dgemm_service(310), capped);
  const PlanResult large = run_planner("sharded", platform, dgemm_service(310));
  EXPECT_GE(small.report.overall, 50.0);
  EXPECT_LE(small.nodes_used(), large.nodes_used());
}

// ------------------------------------------------------------ exclusion --

TEST(Sharded, ExcludedNodesNeverDeploy) {
  const Platform platform = multi_cluster(120);
  PlanOptions options;
  options.excluded = {0, 5, 17, 60, 119};
  const PlanResult plan =
      run_planner("sharded", platform, dgemm_service(310), options);
  EXPECT_TRUE(plan.hierarchy.validate(&platform).empty());
  for (const NodeId used : plan.hierarchy.used_nodes())
    EXPECT_FALSE(options.excluded.contains(used)) << used;
}

// ----------------------------------------------------------- validation --

TEST(Sharded, RejectsPartitionsThatDoNotCoverThePlatform) {
  const Platform platform = multi_cluster(12);
  plat::Partition partial;
  partial.shards = {{0, 1, 2, 3}};
  EXPECT_THROW(plan_sharded(platform, kParams, dgemm_service(310), {}, partial),
               Error);
}

TEST(Sharded, RejectsSingleNodeShards) {
  const Platform platform = multi_cluster(12);
  plat::Partition bad;
  bad.shards.push_back({0});
  std::vector<NodeId> rest;
  for (NodeId id = 1; id < platform.size(); ++id) rest.push_back(id);
  bad.shards.push_back(std::move(rest));
  EXPECT_THROW(plan_sharded(platform, kParams, dgemm_service(310), {}, bad),
               Error);
}

TEST(Sharded, RootOnlyLeafPlanIsATypedError) {
  // A leaf callback that answers one shard with a bare root (no
  // children) must surface as adept::Error from the stitch, not reach
  // the shard root's first child.
  const Platform platform = multi_cluster(60);
  const plat::Partition partition = plat::partition_platform(platform, 3);
  ASSERT_GE(partition.shards.size(), 2u);
  const auto leaves_fn = [](const std::vector<std::vector<NodeId>>& leaves) {
    std::vector<PlanResult> plans(leaves.size());
    for (std::size_t s = 0; s < leaves.size(); ++s) {
      Hierarchy& h = plans[s].hierarchy;
      const Hierarchy::Index root = h.add_root(leaves[s][0]);
      if (s == 1) continue;  // the root-only answer
      for (std::size_t i = 1; i < leaves[s].size(); ++i)
        h.add_server(root, leaves[s][i]);
    }
    return plans;
  };
  try {
    plan_sharded_with(platform, kParams, dgemm_service(310), {}, partition, 8,
                      leaves_fn);
    FAIL() << "a root-only shard plan was stitched";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shard plan root has no children"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------- service integration --

TEST(Sharded, RunsThroughThePlanningService) {
  const auto platform = std::make_shared<const Platform>(multi_cluster(160));
  PlanningService service(2);
  PlanRequest request(platform, kParams, dgemm_service(310));
  const PlannerRun run =
      service.submit(request, "sharded").wait();
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_TRUE(run.result.hierarchy.validate(platform.get()).empty());
  // The service path (pool plumbed in) matches the direct serial path.
  const PlanResult direct = run_planner("sharded", *platform, dgemm_service(310));
  EXPECT_EQ(run.result.hierarchy, direct.hierarchy);
}

TEST(Sharded, ExplicitShardCountIsHonoured) {
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 3;
  options.verbose_trace = true;
  const PlanResult plan =
      run_planner("sharded", platform, dgemm_service(310), options);
  ASSERT_FALSE(plan.trace.empty());
  EXPECT_NE(plan.trace.front().find("3 shards"), std::string::npos)
      << plan.trace.front();
}

// ---------------------------------------------------------- shard cache --

TEST(ShardCache, CachedPlansAreBitIdentical) {
  // Determinism rule 8: enabling the shard cache can never change a
  // result — cold (fills) and warm (all hits) both match the uncached
  // plan byte for byte, hierarchy, report and trace alike.
  const Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const PlanResult uncached = plan_with_pool(platform, 2, partition);

  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  const PlanResult cold = plan_with_pool(platform, 2, partition, options);
  EXPECT_EQ(cache.stats().misses, partition.shards.size());
  EXPECT_EQ(cache.stats().insertions, partition.shards.size());
  const PlanResult warm = plan_with_pool(platform, 2, partition, options);
  EXPECT_EQ(cache.stats().hits, partition.shards.size());

  for (const PlanResult* plan : {&cold, &warm}) {
    EXPECT_EQ(plan->hierarchy, uncached.hierarchy);
    EXPECT_EQ(plan->report.overall, uncached.report.overall);
    EXPECT_EQ(plan->trace, uncached.trace);
  }
}

TEST(ShardCache, WarmHitsAreBitIdenticalForAnyThreadCount) {
  const Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  const PlanResult serial = plan_with_pool(platform, 0, partition, options);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    const PlanResult parallel =
        plan_with_pool(platform, threads, partition, options);
    EXPECT_EQ(parallel.hierarchy, serial.hierarchy) << threads << " threads";
    EXPECT_EQ(parallel.trace, serial.trace) << threads << " threads";
  }
  // Concurrent probes from pool workers share one entry set: the cache
  // holds exactly one entry per shard however the rounds interleaved.
  EXPECT_EQ(cache.stats().insertions, partition.shards.size());
  EXPECT_EQ(cache.size(), partition.shards.size());
}

TEST(ShardCache, ContentChangeMissesOnlyTheTouchedShard) {
  // Content addressing: editing one node changes its shard's key and no
  // other — a replan after the edit hits every untouched shard.
  Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const std::size_t shards = partition.shards.size();
  ASSERT_GE(shards, 2u);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  plan_with_pool(platform, 2, partition, options);  // warm: all miss
  platform.set_power(partition.shards.front().front(), 1234.0);
  plan_with_pool(platform, 2, partition, options);
  EXPECT_EQ(cache.stats().hits, shards - 1);
  EXPECT_EQ(cache.stats().misses, shards + 1);
}

TEST(ShardCache, InvalidateNodeErasesOnlyThatShardsEntries) {
  const Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const std::size_t shards = partition.shards.size();
  ASSERT_GE(shards, 2u);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  plan_with_pool(platform, 2, partition, options);
  EXPECT_EQ(cache.size(), shards);

  const std::string name =
      platform.node(partition.shards.front().front()).name;
  EXPECT_EQ(cache.invalidate_node(name), 1u);
  EXPECT_EQ(cache.size(), shards - 1);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  plan_with_pool(platform, 2, partition, options);
  EXPECT_EQ(cache.stats().hits, shards - 1);  // only the erased one missed

  EXPECT_EQ(cache.clear(), shards);
  EXPECT_EQ(cache.stats().flushes, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardCache, CapacityBoundsTheLruAndZeroDisables) {
  const Platform platform = multi_cluster(160);
  const plat::Partition partition = plat::partition_platform(platform, 0);
  ASSERT_GE(partition.shards.size(), 2u);

  ShardPlanCache tiny(1);
  PlanOptions options;
  options.shard_cache = &tiny;
  plan_with_pool(platform, 0, partition, options);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.stats().evictions, partition.shards.size() - 1);

  ShardPlanCache off(0);
  options.shard_cache = &off;
  plan_with_pool(platform, 0, partition, options);
  EXPECT_EQ(off.size(), 0u);
  EXPECT_EQ(off.stats().hits, 0u);
  // A disabled cache's lookups are uncounted — it is not "all misses",
  // it is out of the path entirely.
  EXPECT_EQ(off.stats().misses, 0u);
}

TEST(ShardCache, ServicePlumbsItsCacheIntoShardedRuns) {
  // CacheConfig{plan=0, shard=64}: the whole-request cache stays off,
  // but sharded runs through the service reuse leaf plans.
  const auto platform = std::make_shared<const Platform>(multi_cluster(160));
  PlanningService service(2, PlannerRegistry::instance(),
                          CacheConfig{0, 64, true});
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const PlannerRun cold = service.submit(request, "sharded").wait();
  const PlannerRun warm = service.submit(request, "sharded").wait();
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_FALSE(warm.cached);  // plan cache off: the run truly re-ran
  EXPECT_EQ(warm.result.hierarchy, cold.result.hierarchy);
  EXPECT_EQ(warm.result.trace, cold.result.trace);

  const PlanningStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_GT(stats.shard_cache_hits, 0u);

  // And the service-cached result matches a direct uncached plan.
  const PlanResult direct =
      run_planner("sharded", *platform, dgemm_service(310));
  EXPECT_EQ(warm.result.hierarchy, direct.hierarchy);
}

}  // namespace
}  // namespace adept
