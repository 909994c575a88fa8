/// \file test_dist.cpp
/// \brief The distributed planning tier: bit-identity with the local
/// sharded planner (in-process fleets, real serve subprocesses, any
/// worker count, recursive stitching), and fault injection — crashed,
/// hung, and garbage-spewing workers must cost retries and fallbacks,
/// never the request or a single bit of the result.
///
/// Pipe-based tests spawn real subprocesses: shell one-liners rig the
/// faults, and ADEPT_CLI_BINARY (a compile definition pointing at the
/// built `adept` binary) provides genuine serve workers. The platform,
/// request, fault-command and identity helpers live in
/// tests/dist_test_util.hpp, shared with the socket suite.

#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/stats.hpp"
#include "dist/supervisor.hpp"
#include "dist/transport.hpp"
#include "dist/worker_pool.hpp"
#include "dist_test_util.hpp"
#include "io/serve.hpp"
#include "io/wire.hpp"
#include "planner/planner.hpp"
#include "planner/shard_cache.hpp"
#include "planner/sharded.hpp"
#include "planning_test_util.hpp"
#include "platform/partition.hpp"

namespace adept {
namespace {

using test_util::run_planner;
using namespace dist;
using namespace dist_test;

// ------------------------------------------------------- bit-identity --

TEST(Dist, InProcessFleetMatchesShardedForAnyWorkerCount) {
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  for (const std::size_t workers : {1u, 2u, 5u}) {
    InProcessTransport transport;
    CoordinatorConfig config;
    config.workers = workers;
    Coordinator coordinator(transport, config);
    const PlanResult distributed = coordinator.plan(make_request(platform));
    expect_identical(distributed, sharded,
                     std::to_string(workers) + " workers");
  }
}

TEST(Dist, InProcessWorkerAnswersBadLinesWithServesErrors) {
  // The in-process transport decodes with serve's decoders, so every line
  // serve refuses gets serve's error text and id echo from it too — one
  // bad budget, an unknown planner, both a bad budget and a bad planner
  // (the budget is reported first), and a line that is not JSON.
  const std::string platform = wire::to_json(multi_cluster(12)).dump();
  const std::vector<std::string> lines = {
      R"({"id":1,"platform":)" + platform +
          R"(,"service":"dgemm-310","budget_ms":-1})",
      R"({"id":2,"planner":"no-such","platform":)" + platform +
          R"(,"service":"dgemm-310"})",
      R"({"id":3,"planner":7,"platform":)" + platform +
          R"(,"service":"dgemm-310","budget_ms":1e11})",
      "not json",
  };
  std::stringstream in;
  std::stringstream out;
  for (const std::string& line : lines) in << line << "\n";
  io::ServeConfig config;
  config.threads = 1;
  io::serve_session(in, out, config);
  InProcessTransport transport;
  const std::unique_ptr<Worker> worker = transport.spawn();
  for (const std::string& line : lines) {
    std::string served;
    ASSERT_TRUE(std::getline(out, served));
    std::string answered;
    ASSERT_TRUE(worker->send(line));
    ASSERT_TRUE(worker->receive(answered, 0.0));
    const json::Value serve_doc = json::parse(served);
    const json::Value worker_doc = json::parse(answered);
    EXPECT_FALSE(worker_doc.at("ok").as_bool()) << answered;
    EXPECT_EQ(worker_doc.at("id").dump(), serve_doc.at("id").dump()) << line;
    EXPECT_EQ(worker_doc.at("error").as_string(),
              serve_doc.at("error").as_string());
  }
}

TEST(Dist, RegistryEntryMatchesShardedAndStaysOutOfPortfolios) {
  const Platform platform = multi_cluster(120, 7);
  expect_identical(run_planner("distributed", platform, dgemm_service(310)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "registry dispatch");
  const IPlanner& planner = PlannerRegistry::instance().at("distributed");
  EXPECT_TRUE(planner.info().caps.shard_aware);
  for (const IPlanner* member :
       PlannerRegistry::instance().applicable(make_request(platform)))
    EXPECT_NE(member->info().name, "distributed");
}

TEST(Dist, RealServeSubprocessesMatchSharded) {
  const Platform platform = multi_cluster(160);
  PipeTransport transport(serve_command());
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  const PlanResult distributed = coordinator.plan(make_request(platform));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310)),
                   "pipe fleet of real serve workers");
}

TEST(Dist, ExplicitShardCountAndDemandTravelToWorkers) {
  const Platform platform = multi_cluster(140, 3);
  PlanOptions options;
  options.shards = 5;
  options.demand = 40.0;
  InProcessTransport transport;
  Coordinator coordinator(transport);
  const PlanResult distributed =
      coordinator.plan(make_request(platform, options));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310),
                               options),
                   "shards=5 demand=40");
}

TEST(Dist, RecursiveStitchMatchesTheLocalCoreAtTheSameFanout) {
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 9;
  // Local reference: the shared core at fanout 3 with the serial leaf
  // path the in-process worker also runs.
  const plat::Partition partition = plat::partition_platform(platform, 9);
  const auto leaves_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves) {
        std::vector<PlanResult> plans;
        for (const std::vector<NodeId>& ids : leaves) {
          const Platform sub = platform.subset(ids);
          PlanResult plan = plan_heterogeneous(sub, kParams,
                                               dgemm_service(310),
                                               options.demand, nullptr,
                                               &options);
          for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
            plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
          plans.push_back(std::move(plan));
        }
        return plans;
      };
  const PlanResult local =
      plan_sharded_with(platform, kParams, dgemm_service(310), options,
                        partition, 3, leaves_fn);
  // 9 shards over fanout 3 forces at least one recursive stitch level.
  bool recursed = false;
  for (const std::string& line : local.trace)
    recursed = recursed || line.find("stitch level") != std::string::npos;
  EXPECT_TRUE(recursed) << "expected a recursive stitch in the trace";

  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 3;
  config.stitch_fanout = 3;
  Coordinator coordinator(transport, config);
  const PlanResult distributed =
      coordinator.plan(make_request(platform, options));
  expect_identical(distributed, local, "recursive stitch, fanout 3");
  EXPECT_TRUE(distributed.hierarchy.validate().empty());
}

// ----------------------------------------------------- streaming stitch --

/// Serial reference leaf plans in platform ids, one per shard — the
/// exact computation the local sharded core's leaf path runs.
std::vector<PlanResult> serial_leaf_plans(
    const Platform& platform, const PlanOptions& options,
    const std::vector<std::vector<NodeId>>& leaves) {
  std::vector<PlanResult> plans;
  plans.reserve(leaves.size());
  for (const std::vector<NodeId>& ids : leaves) {
    const Platform sub = platform.subset(ids);
    PlanResult plan = plan_heterogeneous(sub, kParams, dgemm_service(310),
                                         options.demand, nullptr, &options);
    for (Hierarchy::Index e = 0; e < plan.hierarchy.size(); ++e)
      plan.hierarchy.replace_node(e, ids[plan.hierarchy.node_of(e)]);
    plans.push_back(std::move(plan));
  }
  return plans;
}

TEST(Dist, StreamedArrivalOrderCannotChangeTheResult) {
  // Determinism rule #7, streaming extension: the stitch folds shard
  // plans in whatever order they arrive, and the result — hierarchy,
  // report, trace — must be bit-identical to the batch path for every
  // ordering. 9 shards over fanout 3 force recursive stitch levels, so
  // out-of-order arrival exercises group completion mid-stream.
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 9;
  const plat::Partition partition = plat::partition_platform(platform, 9);
  const auto batch_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves) {
        return serial_leaf_plans(platform, options, leaves);
      };
  const PlanResult batch =
      plan_sharded_with(platform, kParams, dgemm_service(310), options,
                        partition, 3, batch_fn);

  for (int mode = 0; mode < 3; ++mode) {
    const auto stream_fn =
        [&platform, &options, mode](
            const std::vector<std::vector<NodeId>>& leaves,
            const ShardResultSink& ready) {
          std::vector<PlanResult> plans =
              serial_leaf_plans(platform, options, leaves);
          std::vector<std::size_t> order(plans.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          if (mode == 0) {
            std::reverse(order.begin(), order.end());
          } else if (mode == 1) {
            std::rotate(order.begin(), order.begin() + order.size() / 2,
                        order.end());
          } else {
            std::mt19937 rng(20080615);
            std::shuffle(order.begin(), order.end(), rng);
          }
          for (const std::size_t i : order) ready(i, std::move(plans[i]));
        };
    const PlanResult streamed =
        plan_sharded_streamed(platform, kParams, dgemm_service(310), options,
                              partition, 3, stream_fn);
    expect_identical(streamed, batch, "arrival order " + std::to_string(mode));
  }
}

TEST(Dist, StreamedConcurrentDeliveryIsBitIdentical) {
  // Every shard delivered from its own racing thread: the engine's
  // internal synchronisation must serialize group completion without
  // letting the schedule leak into the result.
  const Platform platform = multi_cluster(160);
  PlanOptions options;
  options.shards = 9;
  const plat::Partition partition = plat::partition_platform(platform, 9);
  const auto batch_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves) {
        return serial_leaf_plans(platform, options, leaves);
      };
  const PlanResult batch =
      plan_sharded_with(platform, kParams, dgemm_service(310), options,
                        partition, 3, batch_fn);
  const auto stream_fn =
      [&platform, &options](const std::vector<std::vector<NodeId>>& leaves,
                            const ShardResultSink& ready) {
        std::vector<PlanResult> plans =
            serial_leaf_plans(platform, options, leaves);
        std::vector<std::thread> threads;
        threads.reserve(plans.size());
        for (std::size_t s = 0; s < plans.size(); ++s)
          threads.emplace_back(
              [&ready, &plans, s] { ready(s, std::move(plans[s])); });
        for (std::thread& thread : threads) thread.join();
      };
  for (int round = 0; round < 3; ++round)
    expect_identical(
        plan_sharded_streamed(platform, kParams, dgemm_service(310), options,
                              partition, 3, stream_fn),
        batch, "concurrent delivery round " + std::to_string(round));
}

TEST(Dist, StreamedMissingOrDuplicateDeliveryIsAnError) {
  const Platform platform = multi_cluster(120, 5);
  PlanOptions options;
  options.shards = 4;
  const plat::Partition partition = plat::partition_platform(platform, 4);
  // A leaf planner that never delivers: the stitch must refuse to
  // finalize rather than stitch a hole.
  EXPECT_THROW(
      plan_sharded_streamed(platform, kParams, dgemm_service(310), options,
                            partition, kDefaultStitchFanout,
                            [](const std::vector<std::vector<NodeId>>&,
                               const ShardResultSink&) {}),
      Error);
  // Delivering the same shard twice is a contract violation, not a
  // silent overwrite.
  EXPECT_THROW(
      plan_sharded_streamed(
          platform, kParams, dgemm_service(310), options, partition,
          kDefaultStitchFanout,
          [&platform, &options](const std::vector<std::vector<NodeId>>& leaves,
                                const ShardResultSink& ready) {
            std::vector<PlanResult> plans =
                serial_leaf_plans(platform, options, leaves);
            ready(0, plans[0]);
            ready(0, plans[0]);
          }),
      Error);
}

TEST(Dist, BatchModeCoordinatorMatchesStreamingAndCountsNoStreamed) {
  // --no-stream's A/B baseline: same plan bit for bit, but nothing may
  // reach the stitch before the batch barrier — dist.streamed stays 0.
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  reset_stats_for_test();
  {
    InProcessTransport transport;
    CoordinatorConfig config;
    config.workers = 2;
    config.streaming = false;
    Coordinator coordinator(transport, config);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "batch-mode coordinator");
    EXPECT_EQ(stats_snapshot().streamed, 0u);
  }
  {
    InProcessTransport transport;
    CoordinatorConfig config;
    config.workers = 2;
    Coordinator coordinator(transport, config);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "streaming coordinator");
    EXPECT_GT(stats_snapshot().streamed, 0u);
  }
}

// ----------------------------------------------------- fault injection --

TEST(Dist, CrashingFleetFallsBackInProcessBitIdentically) {
  const Platform platform = multi_cluster(160);
  reset_stats_for_test();
  PipeTransport transport(shell("read -r line; exit 1"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  const PlanResult distributed = coordinator.plan(make_request(platform));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310)),
                   "every worker crashed mid-request");
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.worker_failures, 2u);
  EXPECT_GT(stats.fallbacks, 0u);
  for (std::size_t i = 0; i < coordinator.pool().size(); ++i)
    EXPECT_EQ(coordinator.pool().phase(i), WorkerPhase::Failed);
}

TEST(Dist, GarbageResponsesFailTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(shell("while read -r line; do echo not-json; done"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "garbage on the wire");
}

TEST(Dist, TruncatedJsonFailsTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(
      shell(R"(read -r line; printf '%s\n' '{"id":0,"ok":tr'; exit 0)"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "truncated response line");
}

TEST(Dist, HangingWorkersTimeOutAndTheRequestStillSucceeds) {
  const Platform platform = multi_cluster(120, 5);
  reset_stats_for_test();
  PipeTransport transport(shell("sleep 30"));
  CoordinatorConfig config;
  config.workers = 2;
  config.shard_timeout_ms = 150.0;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "hung workers under a 150 ms shard timeout");
  EXPECT_EQ(stats_snapshot().worker_failures, 2u);
}

TEST(Dist, ExecFailureBehavesLikeWorkerLossNotAnError) {
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport({"/nonexistent/adept-no-such-binary"});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "worker binary missing");
}

TEST(Dist, MixedFleetRedispatchesToTheSurvivingWorker) {
  const Platform platform = multi_cluster(160);
  reset_stats_for_test();
  PipeTransport healthy(serve_command());
  PipeTransport rigged(shell("read -r line; exit 1"));
  std::vector<std::unique_ptr<Worker>> fleet;
  fleet.push_back(healthy.spawn());
  fleet.push_back(rigged.spawn());
  Coordinator coordinator(std::move(fleet));
  const PlanResult distributed = coordinator.plan(make_request(platform));
  expect_identical(distributed,
                   run_planner("sharded", platform, dgemm_service(310)),
                   "one worker killed mid-run");
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.worker_failures, 1u);
  EXPECT_GT(stats.retried, 0u);
  // The rigged worker's shards were answered by the survivor, not the
  // in-process fallback.
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(coordinator.pool().phase(0), WorkerPhase::Idle);
  EXPECT_EQ(coordinator.pool().phase(1), WorkerPhase::Failed);
  EXPECT_EQ(coordinator.pool().healthy_count(), 1u);
}

// ------------------------------------------------ pool-level behaviour --

TEST(Dist, HealthCheckFailsUnresponsiveWorkers) {
  PipeTransport healthy(serve_command());
  PipeTransport rigged(shell("read -r line; exit 1"));
  std::vector<std::unique_ptr<Worker>> fleet;
  fleet.push_back(healthy.spawn());
  fleet.push_back(rigged.spawn());
  WorkerPoolConfig config;
  config.shard_timeout_ms = 5000.0;
  WorkerPool pool(std::move(fleet), config);
  EXPECT_FALSE(pool.health_check());
  EXPECT_EQ(pool.healthy_count(), 1u);
  EXPECT_EQ(pool.phase(0), WorkerPhase::Idle);
  EXPECT_EQ(pool.phase(1), WorkerPhase::Failed);
}

TEST(Dist, HealthyFleetPassesTheHealthCheck) {
  InProcessTransport transport;
  WorkerPool pool(transport, 2);
  EXPECT_TRUE(pool.health_check());
  EXPECT_EQ(pool.healthy_count(), 2u);
}

TEST(Dist, PhaseNamesCoverTheStateMachine) {
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Idle), "idle");
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Dispatched), "dispatched");
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Responded), "responded");
  EXPECT_STREQ(worker_phase_name(WorkerPhase::Failed), "failed");
}

TEST(Dist, CleanRunLeavesWorkersIdleAndCountsNoFaults) {
  const Platform platform = multi_cluster(120, 9);
  reset_stats_for_test();
  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  const PlanResult result = coordinator.plan(make_request(platform));
  EXPECT_TRUE(result.hierarchy.validate().empty());
  for (std::size_t i = 0; i < coordinator.pool().size(); ++i)
    EXPECT_EQ(coordinator.pool().phase(i), WorkerPhase::Idle);
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.plans, 1u);
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_GT(stats.dispatched, 0u);
  EXPECT_EQ(stats.dispatched, stats.responded);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_EQ(stats.retried, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

// ------------------------------------------------ supervision / respawn --

TEST(Dist, CrashStormWithRespawnNeverFallsBack) {
  // Every worker answers exactly one shard and dies, every round — the
  // supervisor refills the fleet between rounds, so the whole request is
  // still answered by (a parade of) real workers, never the fallback.
  const Platform platform = multi_cluster(120, 5);
  reset_stats_for_test();
  PipeTransport transport(answer_one_then_die());
  SupervisorConfig config;
  config.workers = 2;
  config.pool.respawn_backoff_ms = 0.0;
  config.pool.max_retries = 32;
  FleetSupervisor fleet(transport, config);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  for (int round = 0; round < 2; ++round) {
    Coordinator coordinator(fleet);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "crash storm, plan " + std::to_string(round));
  }
  const DistStats stats = stats_snapshot();
  EXPECT_GT(stats.workers_respawned, 0u);
  EXPECT_GT(stats.worker_failures, 0u);
  EXPECT_GT(stats.retried, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(Dist, StormFallsBackBitIdenticallyThenFleetRecovers) {
  const Platform platform = multi_cluster(120, 5);
  const std::string sentinel = sentinel_path("storm");
  touch(sentinel);
  reset_stats_for_test();
  PipeTransport transport(storm_gated_worker(sentinel));
  SupervisorConfig config;
  config.workers = 2;
  config.pool.respawn_backoff_ms = 0.0;
  config.pool.max_retries = 1;
  FleetSupervisor fleet(transport, config);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  {
    // Storm: every worker (and every respawn) dies on first contact, so
    // the request is answered by the in-process fallback — bit-identical.
    Coordinator coordinator(fleet);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "full storm, fallback");
  }
  const DistStats storm = stats_snapshot();
  EXPECT_GT(storm.workers_respawned, 0u);
  EXPECT_GT(storm.fallbacks, 0u);
  // Storm over: the next heartbeat respawns genuine workers and the next
  // plan runs on them without a single new fault.
  std::filesystem::remove(sentinel);
  EXPECT_TRUE(fleet.heartbeat());
  EXPECT_EQ(fleet.healthy_count(), 2u);
  {
    Coordinator coordinator(fleet);
    expect_identical(coordinator.plan(make_request(platform)), sharded,
                     "recovered fleet");
  }
  const DistStats recovered = stats_snapshot();
  EXPECT_EQ(recovered.worker_failures, storm.worker_failures);
  EXPECT_EQ(recovered.fallbacks, storm.fallbacks);
  EXPECT_GT(recovered.responded, storm.responded);
}

TEST(Dist, ConcurrentPlansUnderHeartbeatStayDeterministic) {
  // Two planner threads race each other and the 5 ms monitor heartbeat
  // for the fleet lease while every worker keeps dying; the lease
  // serializes them, so both still match the local sharded planner.
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(answer_one_then_die());
  SupervisorConfig config;
  config.workers = 2;
  config.pool.respawn_backoff_ms = 0.0;
  config.pool.max_retries = 32;
  config.heartbeat_interval_ms = 5.0;
  FleetSupervisor fleet(transport, config);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  std::vector<PlanResult> results(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t)
    threads.emplace_back([&fleet, &platform, &results, t] {
      Coordinator coordinator(fleet);
      results[t] = coordinator.plan(make_request(platform));
    });
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < results.size(); ++t)
    expect_identical(results[t], sharded,
                     "concurrent plan " + std::to_string(t));
}

TEST(Dist, HealthCheckUsesTheShortHealthTimeout) {
  // A hung worker must fail a heartbeat in health_timeout_ms, not in the
  // two-minute shard timeout the pool grants real planning work.
  PipeTransport transport(shell("sleep 30"));
  std::vector<std::unique_ptr<Worker>> fleet;
  fleet.push_back(transport.spawn());
  WorkerPoolConfig config;
  config.health_timeout_ms = 100.0;
  WorkerPool pool(std::move(fleet), config);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(pool.health_check());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 5000.0);
  EXPECT_EQ(pool.healthy_count(), 0u);
}

// ----------------------------------------------- deadline-aware retries --

TEST(Dist, HungWorkerCannotOutliveTheCallersDeadline) {
  // Default shard timeout is two minutes; the caller's deadline is
  // 400 ms. The dispatch round must clip its receive timeout to the
  // remaining budget and surface the same deadline error the local
  // sharded planner would — not sit on the pipe for 120 s.
  const Platform platform = multi_cluster(120, 5);
  PipeTransport transport(shell("sleep 30"));
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  PlanOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(coordinator.plan(make_request(platform, std::move(options))),
               Error);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 20000.0);
}

TEST(Dist, DribblingWriterCannotRestartTheReceiveTimeout) {
  // A worker that emits one byte every 50 ms never completes a line; the
  // receive deadline is absolute, so partial reads must not extend it.
  PipeTransport transport(
      shell("while true; do printf x; sleep 0.05; done"));
  std::unique_ptr<Worker> worker = transport.spawn();
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(worker->receive(line, 300.0));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 250.0);
  EXPECT_LT(elapsed_ms, 10000.0);
}

TEST(Dist, SharedFleetStaysWarmAcrossRegistryPlans) {
  const Platform platform = multi_cluster(120, 9);
  // First plan warms the process-wide fleet (spawning it if this test
  // runs first); afterwards plans must reuse the same workers.
  run_planner("distributed", platform, dgemm_service(310));
  const DistStats warm = stats_snapshot();
  run_planner("distributed", platform, dgemm_service(310));
  const DistStats after = stats_snapshot();
  EXPECT_EQ(after.workers_spawned, warm.workers_spawned);
  EXPECT_EQ(after.plans, warm.plans + 1u);
  EXPECT_GT(after.responded, warm.responded);
}

// ----------------------------------------------------------- shard cache --

TEST(Dist, ShardCacheHitsSkipDispatchBitIdentically) {
  // A warm shard cache answers every leaf before the wire: the second
  // plan dispatches nothing, and both results match the local sharded
  // planner byte for byte.
  reset_stats_for_test();
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));

  InProcessTransport transport;
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  const PlanResult cold = coordinator.plan(make_request(platform, options));
  const std::uint64_t dispatched = stats_snapshot().dispatched;
  EXPECT_GT(dispatched, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const PlanResult warm = coordinator.plan(make_request(platform, options));
  EXPECT_EQ(stats_snapshot().dispatched, dispatched);
  EXPECT_EQ(cache.stats().hits, cache.stats().misses);

  expect_identical(cold, sharded, "cold vs sharded");
  expect_identical(warm, sharded, "warm vs sharded");
}

TEST(Dist, LocalShardedPlanWarmsTheCoordinatorsCache) {
  // The local leaf path and the coordinator (default leaf planner
  // "heuristic") key shard problems identically: a plan_sharded() run
  // fills the cache, and a distributed plan then dispatches zero shards.
  reset_stats_for_test();
  const Platform platform = multi_cluster(160);
  ShardPlanCache cache(64);
  PlanOptions options;
  options.shard_cache = &cache;
  const plat::Partition partition = plat::partition_platform(platform, 0);
  const PlanResult local = plan_sharded(platform, kParams, dgemm_service(310),
                                        options, partition);

  InProcessTransport transport;
  Coordinator coordinator(transport);
  const PlanResult distributed =
      coordinator.plan(make_request(platform, options));
  EXPECT_EQ(stats_snapshot().dispatched, 0u);
  expect_identical(distributed, local, "warmed distributed vs local");
}

}  // namespace
}  // namespace adept
