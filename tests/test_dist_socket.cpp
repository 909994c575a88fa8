/// \file test_dist_socket.cpp
/// \brief The TCP transport: a socket fleet backed by real `adept serve
/// --listen` processes must be bit-identical to the local sharded
/// planner for any session count and endpoint mix, and socket faults —
/// refused connections, mid-response disconnects, dribbling writers,
/// garbage, hangs — must cost workers and retries, never the request.
///
/// Real-process tests spawn the built CLI through dist::ServeListener
/// (ADEPT_CLI_BINARY compile definition); fault tests script a
/// dist_test::FakeTcpServer instead — misbehaviour per accepted
/// connection, no subprocess needed.

#include "dist/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "dist/coordinator.hpp"
#include "dist/stats.hpp"
#include "dist/worker_pool.hpp"
#include "dist_test_util.hpp"
#include "io/wire.hpp"
#include "planner/shard_cache.hpp"
#include "planning_test_util.hpp"

namespace adept {
namespace {

using test_util::run_planner;
using namespace dist;
using namespace dist_test;

// --------------------------------------------------------- bit-identity --

TEST(DistSocket, SocketFleetMatchesShardedForAnySessionCount) {
  // One warm `adept serve --listen` process; 1, 2 and 5 coordinator
  // sessions against it must all match the local sharded planner bit
  // for bit — and every response must have streamed into the stitch.
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  ServeListener listener(serve_listen_command(2));
  for (const std::size_t sessions : {1u, 2u, 5u}) {
    reset_stats_for_test();
    SocketTransport transport({listener.endpoint()});
    CoordinatorConfig config;
    config.workers = sessions;
    Coordinator coordinator(transport, config);
    const PlanResult distributed = coordinator.plan(make_request(platform));
    expect_identical(distributed, sharded,
                     std::to_string(sessions) + " socket sessions");
    const DistStats stats = stats_snapshot();
    EXPECT_EQ(stats.socket_connects, sessions);
    EXPECT_EQ(stats.socket_connect_failures, 0u);
    EXPECT_EQ(stats.worker_failures, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_GT(stats.streamed, 0u);
  }
}

TEST(DistSocket, EndpointListRoundRobinsAcrossServeProcesses) {
  const Platform platform = multi_cluster(160);
  ServeListener first(serve_listen_command(1));
  ServeListener second(serve_listen_command(1));
  SocketTransport transport({first.endpoint(), second.endpoint()});
  CoordinatorConfig config;
  config.workers = 4;  // two sessions per process
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "two serve processes, four sessions");
}

// ------------------------------------------------------ fault injection --

TEST(DistSocket, ConnectionRefusedBehavesLikeWorkerLossNotAnError) {
  const Platform platform = multi_cluster(120, 5);
  reset_stats_for_test();
  SocketTransport transport({refused_endpoint()}, 500.0);
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "nobody listening on the endpoint");
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.socket_connects, 0u);
  EXPECT_EQ(stats.socket_connect_failures, 2u);
  EXPECT_GT(stats.fallbacks, 0u);
}

TEST(DistSocket, MidResponseDisconnectFailsTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server([](int fd) {
    std::string request;
    if (!read_line(fd, request)) return;
    // Half a response and a hangup: the unterminated line must read as
    // EOF (a dead worker), never parse.
    write_all(fd, R"({"id":0,"ok":tr)");
  });
  SocketTransport transport({server.endpoint()});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "disconnect mid-response");
}

TEST(DistSocket, GarbageOverTheSocketFailsTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request))
      if (!write_all(fd, "not-json\n")) return;
  });
  SocketTransport transport({server.endpoint()});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "garbage on the socket");
}

/// A well-formed `ok` answer carrying `hierarchy`, echoing the request id.
std::string shard_answer(const std::string& request_line,
                         const Hierarchy& hierarchy) {
  PlannerRun run;
  run.planner = "heuristic";
  run.ok = true;
  run.result.hierarchy = hierarchy;
  json::Value doc = json::Value::object();
  doc.set("id", json::parse(request_line).at("id").as_index());
  doc.set("ok", true);
  doc.set("run", wire::to_json(run));
  return doc.dump() + "\n";
}

TEST(DistSocket, StructurallyInvalidShardAnswersFailTheWorkerNotTheCache) {
  // Answers that parse, link consistently and stay in node range, but
  // break the paper's structure rules: each would have reached the
  // shard cache and the stitch, which grafts a shard root by its first
  // child (a root-only or server-rooted plan has none) and evaluates
  // every candidate (a reused node fails all later requests on the
  // shard). The coordinator must reject them as malformed responses.
  Hierarchy root_only;
  root_only.add_root(0);
  Hierarchy duplicate_node;
  const Hierarchy::Index root = duplicate_node.add_root(0);
  duplicate_node.add_server(root, 1);
  duplicate_node.add_server(root, 1);
  Hierarchy::Element server_root;
  server_root.role = Role::Server;
  const std::pair<const char*, Hierarchy> answers[] = {
      {"root-only hierarchy", root_only},
      {"duplicate node", duplicate_node},
      {"server root", Hierarchy::from_elements({server_root})},
  };
  const Platform platform = multi_cluster(120, 5);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  for (const auto& [what, hierarchy] : answers) {
    FakeTcpServer server([&hierarchy = hierarchy](int fd) {
      std::string request;
      while (read_line(fd, request))
        if (!write_all(fd, shard_answer(request, hierarchy))) return;
    });
    SocketTransport transport({server.endpoint()});
    CoordinatorConfig config;
    config.workers = 2;
    Coordinator coordinator(transport, config);
    ShardPlanCache cache(64);
    PlanOptions options;
    options.shard_cache = &cache;

    reset_stats_for_test();
    expect_identical(coordinator.plan(make_request(platform, options)),
                     sharded, what);
    DistStats stats = stats_snapshot();
    EXPECT_GT(stats.worker_failures, 0u) << what;
    EXPECT_GT(stats.fallbacks, 0u) << what;
    EXPECT_EQ(stats.responded, 0u) << what;

    // Only the in-process fallback plans reached the cache: the repeat
    // is answered from it entirely, without touching the wire.
    reset_stats_for_test();
    expect_identical(coordinator.plan(make_request(platform, options)),
                     sharded, std::string(what) + ", cached repeat");
    stats = stats_snapshot();
    EXPECT_EQ(stats.dispatched, 0u) << what;
    EXPECT_EQ(cache.stats().hits, cache.stats().misses) << what;
  }
}

TEST(DistSocket, DribblingWriterCannotRestartTheReceiveTimeout) {
  // One byte every 50 ms never completes a line; the receive deadline
  // is absolute, so partial reads must not extend it — same contract as
  // the pipe transport, now across a socket.
  FakeTcpServer server([](int fd) {
    while (write_all(fd, "x"))
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  SocketTransport transport({server.endpoint()});
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

  // A line that takes hundreds of reads arrives whole, and so do two
  // lines that arrive in one read, each exactly once and in order.
  const std::string long_line(std::size_t{1} << 20 | 123, 'y');
  FakeTcpServer long_writer([&long_line](int fd) {
    const std::string framed = long_line + "\n";
    for (std::size_t at = 0; at < framed.size(); at += 4096)
      if (!write_all(fd, framed.substr(at, 4096))) return;
    write_all(fd, "first\nsecond\n");
    std::string request;
    read_line(fd, request);  // hold the connection until the client closes
  });
  SocketTransport long_transport({long_writer.endpoint()});
  std::unique_ptr<Worker> reader = long_transport.spawn();
  ASSERT_TRUE(reader->receive(line, 10000.0));
  EXPECT_EQ(line.size(), long_line.size());
  EXPECT_EQ(line, long_line);
  ASSERT_TRUE(reader->receive(line, 10000.0));
  EXPECT_EQ(line, "first");
  ASSERT_TRUE(reader->receive(line, 10000.0));
  EXPECT_EQ(line, "second");
}

TEST(DistSocket, HungSocketWorkerCannotOutliveTheCallersDeadline) {
  // The endpoint accepts and reads but never answers; a 400 ms caller
  // deadline must clip the receive timeout and surface the same
  // deadline error the local planner would — not wait out the
  // two-minute shard timeout.
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request)) {
    }
  });
  SocketTransport transport({server.endpoint()});
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

TEST(DistSocket, AReceiveTimeoutNeverEndsBeforeItsBudget) {
  // A silent peer: a receive times out only once its whole budget has
  // passed, sub-millisecond remainders included. Giving up early let the
  // pool plan a hung worker's job locally while it was still in budget,
  // so the deadline test above could see a plan instead of an error.
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request)) {
    }
  });
  SocketTransport transport({server.endpoint()});
  std::unique_ptr<Worker> worker = transport.spawn();
  std::string line;
  for (const double budget_ms : {0.2, 0.7, 1.3, 2.6}) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(worker->receive(line, budget_ms));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed_ms, budget_ms);
  }
}

TEST(DistSocket, KilledSocketWorkerReportsDeadNotHung) {
  // kill() must tear the session down (shutdown both directions) so a
  // pending receive fails fast instead of waiting out its timeout.
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request)) {
    }
  });
  SocketTransport transport({server.endpoint()});
  std::unique_ptr<Worker> worker = transport.spawn();
  EXPECT_TRUE(worker->alive());
  worker->kill();
  EXPECT_FALSE(worker->alive());
  std::string line;
  EXPECT_FALSE(worker->receive(line, 5000.0));
  EXPECT_FALSE(worker->send("{\"cmd\":\"stats\"}"));
}

// ---------------------------------------------------------- serve layer --

TEST(DistSocket, ServeListenerScrapesTheAnnouncedEphemeralPort) {
  ServeListener listener(serve_listen_command(1));
  // "host:port" with a real (non-zero) port, reachable right away.
  const std::string& endpoint = listener.endpoint();
  const auto colon = endpoint.rfind(':');
  ASSERT_NE(colon, std::string::npos);
  EXPECT_GT(std::stoi(endpoint.substr(colon + 1)), 0);
  SocketTransport transport({endpoint});
  std::unique_ptr<Worker> worker = transport.spawn();
  ASSERT_TRUE(worker->send(R"({"cmd":"stats"})"));
  std::string line;
  ASSERT_TRUE(worker->receive(line, 5000.0));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
}

}  // namespace
}  // namespace adept
