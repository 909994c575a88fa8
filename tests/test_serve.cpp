/// \file test_serve.cpp
/// \brief End-to-end JSON-lines sessions through io::serve_session — the
/// exact code path `adept serve` wires to stdin/stdout. Each test feeds a
/// scripted session through stringstreams and parses the response lines
/// back with the JSON kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "io/serve.hpp"
#include "io/wire.hpp"
#include "planner/registry.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"

namespace adept {
namespace {

constexpr MbitRate kB = 1000.0;

/// A deterministic slow planner for admission-control tests: holds its
/// service thread for a fixed beat, then answers homogeneously. Marked
/// shard_aware so portfolios never pick it up.
class SleeperPlanner final : public IPlanner {
 public:
  SleeperPlanner() {
    info_.name = "test-sleeper";
    info_.summary = "sleeps 200 ms, then plans homogeneously (test rig)";
    info_.caps.shard_aware = true;
  }
  const PlannerInfo& info() const override { return info_; }
  PlanResult plan(const PlanRequest& request) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return PlannerRegistry::instance().at("homogeneous").plan(request);
  }

 private:
  PlannerInfo info_;
};

const PlannerRegistration kSleeper(std::make_unique<SleeperPlanner>());

std::string platform_json(std::uint64_t seed = 9, std::size_t n = 14) {
  Rng rng(seed);
  return wire::to_json(gen::uniform(n, 300.0, 1200.0, kB, rng)).dump();
}

/// Runs a session over the given input lines; returns (answered count,
/// parsed response documents).
std::pair<std::size_t, std::vector<json::Value>> run_session(
    const std::vector<std::string>& lines, io::ServeConfig config = {}) {
  std::stringstream in, out;
  for (const std::string& line : lines) in << line << "\n";
  if (config.threads == 0) config.threads = 2;
  const std::size_t answered = io::serve_session(in, out, config);
  std::vector<json::Value> responses;
  std::string line;
  while (std::getline(out, line))
    if (!line.empty()) responses.push_back(json::parse(line));
  return {answered, responses};
}

TEST(Serve, AnswersAPipedSessionInOrder) {
  const std::string platform = platform_json();
  const auto [answered, responses] = run_session({
      R"({"id":"first","planner":"heuristic","platform":)" + platform +
          R"(,"service":"dgemm-310"})",
      R"({"id":2,"planner":"star","platform":)" + platform +
          R"(,"service":"dgemm-310"})",
      R"({"id":"third","planner":"balanced","platform":)" + platform +
          R"(,"service":{"name":"custom","wapp":120.5}})",
  });
  EXPECT_EQ(answered, 3u);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("id").as_string(), "first");
  EXPECT_EQ(responses[1].at("id").as_number(), 2.0);
  EXPECT_EQ(responses[2].at("id").as_string(), "third");
  for (const json::Value& response : responses) {
    EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
    const PlannerRun run = wire::planner_run_from_json(response.at("run"));
    EXPECT_TRUE(run.ok);
    EXPECT_GT(run.result.nodes_used(), 0u);
    EXPECT_TRUE(run.result.hierarchy.validate().empty());
  }
}

TEST(Serve, RepeatedRequestsHitThePlanCache) {
  const std::string platform = platform_json(21);
  const std::string request = R"({"planner":"heuristic","platform":)" +
                              platform + R"(,"service":"dgemm-310"})";
  // One worker serialises the pipelined jobs: the first request has
  // inserted its plan before the second is admitted, so the second is a
  // plain (non-coalesced) cache hit.
  io::ServeConfig config;
  config.threads = 1;
  const auto [answered, responses] =
      run_session({request, request, R"({"cmd":"stats"})"}, config);
  EXPECT_EQ(answered, 2u);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].at("run").at("cached").as_bool());
  EXPECT_TRUE(responses[1].at("run").at("cached").as_bool());
  // Both answers carry the identical plan.
  EXPECT_EQ(responses[0].at("run").at("result").dump(),
            responses[1].at("run").at("result").dump());
  const json::Value& stats = responses[2].at("stats");
  EXPECT_EQ(stats.at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache_misses").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache_coalesced").as_number(), 0.0);
  EXPECT_EQ(stats.at("jobs").as_number(), 2.0);
}

TEST(Serve, ConcurrentIdenticalRequestsCoalesceOntoOnePlan) {
  const std::string platform = platform_json(24);
  const std::string request = R"({"planner":"heuristic","platform":)" +
                              platform + R"(,"service":"dgemm-310"})";
  // Many workers admit the pipelined identical requests concurrently.
  // Single-flight coalescing guarantees exactly one of them plans (one
  // miss); every other job either waits on that leader (coalesced hit)
  // or finds the finished entry (plain hit) — under every scheduling,
  // misses == 1 and hits == N - 1, which is what this test pins.
  constexpr std::size_t kRequests = 8;
  io::ServeConfig config;
  config.threads = 4;
  std::vector<std::string> lines(kRequests, request);
  lines.push_back(R"({"cmd":"stats"})");
  const auto [answered, responses] = run_session(lines, config);
  EXPECT_EQ(answered, kRequests);
  ASSERT_EQ(responses.size(), kRequests + 1);
  for (std::size_t i = 1; i < kRequests; ++i)
    EXPECT_EQ(responses[0].at("run").at("result").dump(),
              responses[i].at("run").at("result").dump());
  const json::Value& stats = responses[kRequests].at("stats");
  EXPECT_EQ(stats.at("cache_misses").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache_hits").as_number(),
            static_cast<double>(kRequests - 1));
  EXPECT_EQ(stats.at("jobs").as_number(), static_cast<double>(kRequests));
}

TEST(Serve, CacheCanBeDisabledPerSession) {
  const std::string platform = platform_json(22);
  const std::string request = R"({"planner":"star","platform":)" + platform +
                              R"(,"service":"dgemm-100"})";
  io::ServeConfig config;
  config.cache = {};
  const auto [answered, responses] =
      run_session({request, request, R"({"cmd":"stats"})"}, config);
  EXPECT_EQ(answered, 2u);
  EXPECT_FALSE(responses[1].at("run").at("cached").as_bool());
  EXPECT_EQ(responses[2].at("stats").at("cache_hits").as_number(), 0.0);
}

TEST(Serve, StatsExposeTheShardCacheAndEchoTheCacheConfig) {
  // Shard cache on, whole-plan cache off: the second identical sharded
  // request re-plans but answers every shard from the worker's shard
  // cache — visible as exact hit/miss counts in the stats response,
  // which also echoes the session's effective CacheConfig.
  const std::string platform = platform_json(27, 16);
  const std::string request = R"({"planner":"sharded","platform":)" +
                              platform +
                              R"(,"service":"dgemm-310","options":{"shards":4}})";
  io::ServeConfig config;
  config.threads = 1;
  config.cache = CacheConfig{/*plan_capacity=*/0, /*shard_capacity=*/32,
                             /*coalesce=*/false};
  const auto [answered, responses] =
      run_session({request, request, R"({"cmd":"stats"})"}, config);
  EXPECT_EQ(answered, 2u);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[1].at("run").at("cached").as_bool());
  // Bit-identical answers: warm shard-cache hits change nothing.
  EXPECT_EQ(responses[0].at("run").at("result").dump(),
            responses[1].at("run").at("result").dump());
  const json::Value& shard = responses[2].at("stats").at("shard_cache");
  EXPECT_EQ(shard.at("capacity").as_number(), 32.0);
  EXPECT_EQ(shard.at("size").as_number(), 4.0);
  EXPECT_EQ(shard.at("misses").as_number(), 4.0);
  EXPECT_EQ(shard.at("insertions").as_number(), 4.0);
  EXPECT_EQ(shard.at("hits").as_number(), 4.0);
  EXPECT_EQ(shard.at("evictions").as_number(), 0.0);
  const json::Value& cache = responses[2].at("stats").at("serve").at("cache");
  EXPECT_EQ(cache.at("plan_capacity").as_number(), 0.0);
  EXPECT_EQ(cache.at("shard_capacity").as_number(), 32.0);
  EXPECT_FALSE(cache.at("coalesce").as_bool());
}

TEST(Serve, PortfolioRequestsReturnTheWholePortfolio) {
  const std::string platform = platform_json(25);
  const auto [answered, responses] = run_session({
      R"({"id":"p","planner":"portfolio","platform":)" + platform +
          R"(,"service":"dgemm-310","options":{"demand":50}})",
  });
  EXPECT_EQ(answered, 1u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool()) << responses[0].dump();
  const PortfolioResult portfolio =
      wire::portfolio_from_json(responses[0].at("portfolio"));
  ASSERT_TRUE(portfolio.has_winner());
  EXPECT_GE(portfolio.runs.size(), 2u);
  EXPECT_TRUE(portfolio.best().ok);
}

TEST(Serve, MalformedLinesProduceErrorsWithoutKillingTheSession) {
  const std::string platform = platform_json(27);
  const auto [answered, responses] = run_session({
      "this is not json",
      R"({"id":"bad-platform","planner":"star","platform":{"bandwidth":-1,"nodes":[]},"service":"dgemm-100"})",
      R"({"id":"bad-planner","planner":"no-such","platform":)" + platform +
          R"(,"service":"dgemm-100"})",
      R"({"id":"fine","planner":"star","platform":)" + platform +
          R"(,"service":"dgemm-100"})",
  });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_TRUE(responses[0].at("id").is_null());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_EQ(responses[1].at("id").as_string(), "bad-platform");
  EXPECT_FALSE(responses[2].at("ok").as_bool());
  EXPECT_NE(responses[2].at("error").as_string().find("unknown planner"),
            std::string::npos);
  EXPECT_TRUE(responses[3].at("ok").as_bool());
  // Only the request that actually planned counts as answered... plus the
  // two submitted ones that failed (planner error is still an answer).
  EXPECT_EQ(answered, 2u);  // bad-planner + fine went through the service
}

TEST(Serve, ErrorResponsesKeepRequestOrder) {
  // A line that fails deserialization must wait its response slot behind
  // earlier in-flight requests — clients reading positionally depend on
  // the one-response-per-request-in-order contract.
  const std::string platform = platform_json(37);
  const auto [answered, responses] = run_session({
      R"({"id":"slow","planner":"heuristic","platform":)" + platform +
          R"(,"service":"dgemm-310"})",
      R"({"id":"broken","planner":"star","platform":{"bandwidth":-5,"nodes":[]},"service":"dgemm-100"})",
  });
  EXPECT_EQ(answered, 1u);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].at("id").as_string(), "slow");
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[1].at("id").as_string(), "broken");
  EXPECT_FALSE(responses[1].at("ok").as_bool());
}

TEST(Serve, BudgetIsEnforced) {
  const std::string platform = platform_json(33);
  const auto [answered, responses] = run_session({
      R"({"id":"late","planner":"heuristic","platform":)" + platform +
          R"(,"service":"dgemm-310","budget_ms":0.000001})",
  });
  EXPECT_EQ(answered, 1u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  const PlannerRun run = wire::planner_run_from_json(responses[0].at("run"));
  EXPECT_TRUE(run.skipped);
  EXPECT_NE(run.error.find("deadline"), std::string::npos) << run.error;
}

TEST(Serve, QuitStopsTheSessionEarly) {
  const std::string platform = platform_json(35);
  const std::string request = R"({"planner":"star","platform":)" + platform +
                              R"(,"service":"dgemm-100"})";
  const auto [answered, responses] =
      run_session({request, R"({"cmd":"quit"})", request, request});
  EXPECT_EQ(answered, 1u);  // requests after quit are never read
  EXPECT_EQ(responses.size(), 1u);
}

TEST(Serve, OptionsExclusionsAreHonoured) {
  Rng rng(39);
  const Platform platform = gen::uniform(12, 300.0, 1200.0, kB, rng);
  const auto [answered, responses] = run_session({
      R"({"planner":"heuristic","platform":)" +
          wire::to_json(platform).dump() +
          R"(,"service":"dgemm-310","options":{"excluded":[0,3]}})",
  });
  EXPECT_EQ(answered, 1u);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].at("ok").as_bool()) << responses[0].dump();
  const PlannerRun run = wire::planner_run_from_json(responses[0].at("run"));
  for (const NodeId used : run.result.hierarchy.used_nodes()) {
    EXPECT_NE(used, 0u);
    EXPECT_NE(used, 3u);
  }
}

TEST(Serve, MetricsCommandExposesLatencyQuantilesAndCacheRates) {
  const std::string platform = platform_json(51);
  const std::string request = R"({"planner":"heuristic","platform":)" +
                              platform + R"(,"service":"dgemm-310"})";
  // One worker serialises the jobs: request #2 is a plain cache hit, so
  // the registry must show exactly one heuristic planning run alongside
  // two service-level jobs.
  io::ServeConfig config;
  config.threads = 1;
  const auto [answered, responses] =
      run_session({request, request, R"({"cmd":"metrics"})"}, config);
  EXPECT_EQ(answered, 2u);
  ASSERT_EQ(responses.size(), 3u);
  const json::Value& reply = responses[2];
  EXPECT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const json::Value& metrics = reply.at("metrics");
  const json::Value& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("service.cache.hits").as_number(), 1.0);
  EXPECT_EQ(counters.at("service.cache.misses").as_number(), 1.0);
  EXPECT_EQ(counters.at("service.planner.heuristic.cache_hits").as_number(),
            1.0);
  EXPECT_EQ(counters.at("serve.answered").as_number(), 2.0);

  const json::Value& histograms = metrics.at("histograms");
  // The aggregate job histogram doubles as the jobs/wall ledger: both
  // requests count, cached or not.
  EXPECT_EQ(histograms.at("service.plan.latency_ms").at("count").as_number(),
            2.0);
  // Per-planner latency counts *planning* runs only — the cache hit
  // never re-ran the heuristic.
  const json::Value& heuristic =
      histograms.at("service.planner.heuristic.latency_ms");
  EXPECT_EQ(heuristic.at("count").as_number(), 1.0);
  for (const char* q : {"p50", "p90", "p95", "p99"}) {
    EXPECT_GE(heuristic.at(q).as_number(), heuristic.at("min").as_number());
    EXPECT_LE(heuristic.at(q).as_number(), heuristic.at("max").as_number());
  }
  EXPECT_EQ(histograms.at("service.queue_wait_ms").at("count").as_number(),
            2.0);
  // Serve's own end-to-end span: the two counted answers.
  EXPECT_EQ(histograms.at("serve.request_ms").at("count").as_number(), 2.0);
}

TEST(Serve, RetryAfterFallsBackToTheDocumentedDefault) {
  const std::string platform = platform_json(53);
  io::ServeConfig config;
  config.threads = 1;
  config.cache = {};
  config.max_pending = 1;
  // The refusal happens while the sleeper still holds the only slot, i.e.
  // before *any* job has completed: the estimate has no observed per-job
  // wall time to scale and must return the documented 100 ms default —
  // not a degenerate 0 or a depth-scaled garbage value.
  const auto [answered, responses] = run_session(
      {
          R"({"id":"slow","planner":"test-sleeper","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"id":"refused","planner":"heuristic","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
      },
      config);
  EXPECT_EQ(answered, 1u);
  ASSERT_EQ(responses.size(), 2u);
  const json::Value& refused = responses[1];
  EXPECT_EQ(refused.at("status").as_string(), "overloaded");
  EXPECT_DOUBLE_EQ(refused.at("retry_after_ms").as_number(), 100.0);
}

TEST(Serve, UnknownCommandIsAnError) {
  const auto [answered, responses] = run_session({R"({"cmd":"reboot"})"});
  EXPECT_EQ(answered, 0u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_NE(responses[0].at("error").as_string().find("unknown command"),
            std::string::npos);
}

// --------------------------------------------------- admission control --

TEST(Serve, FullQueueRefusesWithAnOverloadedResponse) {
  const std::string platform = platform_json(41);
  io::ServeConfig config;
  config.threads = 1;
  config.cache = {};
  config.max_pending = 1;
  // The sleeper holds the admitted slot for 200 ms; the second request
  // arrives at a full queue and must be refused, not planned.
  const auto [answered, responses] = run_session(
      {
          R"({"id":"slow","planner":"test-sleeper","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"id":"refused","planner":"heuristic","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"cmd":"stats"})",
      },
      config);
  EXPECT_EQ(answered, 1u);  // the refusal is not an answered plan
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].at("ok").as_bool()) << responses[0].dump();
  const json::Value& refused = responses[1];
  EXPECT_EQ(refused.at("id").as_string(), "refused");
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("status").as_string(), "overloaded");
  EXPECT_GE(refused.at("retry_after_ms").as_number(), 1.0);
  EXPECT_NE(refused.at("error").as_string().find("overloaded"),
            std::string::npos);
  const json::Value& serve = responses[2].at("stats").at("serve");
  EXPECT_EQ(serve.at("max_pending").as_number(), 1.0);
  EXPECT_EQ(serve.at("overloaded").as_number(), 1.0);
  EXPECT_EQ(serve.at("degraded").as_number(), 0.0);
}

TEST(Serve, DegradeAnswersOverloadRequestsWithTheCheapPlanner) {
  const std::string platform = platform_json(43);
  io::ServeConfig config;
  config.threads = 1;
  config.cache = {};
  config.max_pending = 1;
  config.degrade = true;
  const auto [answered, responses] = run_session(
      {
          R"({"id":"slow","planner":"test-sleeper","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"id":"cheap","planner":"heuristic","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"cmd":"stats"})",
      },
      config);
  EXPECT_EQ(answered, 2u);  // a degraded answer is still an answer
  ASSERT_EQ(responses.size(), 3u);
  const json::Value& degraded = responses[1];
  EXPECT_EQ(degraded.at("id").as_string(), "cheap");
  EXPECT_TRUE(degraded.at("ok").as_bool()) << degraded.dump();
  EXPECT_TRUE(degraded.at("degraded").as_bool());
  const PlannerRun run = wire::planner_run_from_json(degraded.at("run"));
  EXPECT_TRUE(run.ok);
  EXPECT_TRUE(run.result.hierarchy.validate().empty());
  const json::Value& serve = responses[2].at("stats").at("serve");
  EXPECT_EQ(serve.at("degraded").as_number(), 1.0);
  EXPECT_EQ(serve.at("overloaded").as_number(), 0.0);
}

TEST(Serve, DegradeRescuesOverBudgetRequests) {
  // Same request BudgetIsEnforced uses — with degrade on, the deadline
  // error is replaced by a budget-free homogeneous answer.
  const std::string platform = platform_json(33);
  io::ServeConfig config;
  config.degrade = true;
  const auto [answered, responses] = run_session(
      {
          R"({"id":"late","planner":"heuristic","platform":)" + platform +
              R"(,"service":"dgemm-310","budget_ms":0.000001})",
      },
      config);
  EXPECT_EQ(answered, 1u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool()) << responses[0].dump();
  EXPECT_TRUE(responses[0].at("degraded").as_bool());
  const PlannerRun run = wire::planner_run_from_json(responses[0].at("run"));
  EXPECT_TRUE(run.ok);
  EXPECT_FALSE(run.skipped);
}

TEST(Serve, CancelReachesRequestsStillWaitingInTheQueue) {
  const std::string platform = platform_json(45);
  io::ServeConfig config;
  config.threads = 1;
  config.cache = {};
  // The sleeper occupies the single service thread, so "victim" is still
  // queued when the cancel command arrives.
  const auto [answered, responses] = run_session(
      {
          R"({"id":"slow","planner":"test-sleeper","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"id":"victim","planner":"heuristic","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
          R"({"cmd":"cancel","id":"victim"})",
          R"({"id":"after","planner":"heuristic","platform":)" + platform +
              R"(,"service":"dgemm-310"})",
      },
      config);
  EXPECT_EQ(answered, 3u);  // slow + victim (a cancelled run answers) + after
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].at("ok").as_bool()) << responses[0].dump();
  const json::Value& victim = responses[1];
  EXPECT_EQ(victim.at("id").as_string(), "victim");
  EXPECT_FALSE(victim.at("ok").as_bool());
  EXPECT_NE(victim.at("error").as_string().find("cancelled"),
            std::string::npos)
      << victim.dump();
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  EXPECT_EQ(responses[2].at("cancelled").as_number(), 1.0);
  EXPECT_TRUE(responses[3].at("ok").as_bool()) << responses[3].dump();
  EXPECT_EQ(responses[3].at("id").as_string(), "after");
}

TEST(Serve, CancelWithoutAnIdIsAnError) {
  const auto [answered, responses] = run_session({R"({"cmd":"cancel"})"});
  EXPECT_EQ(answered, 0u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_NE(responses[0].at("error").as_string().find("cancel"),
            std::string::npos);
}

/// An output sink whose flush stalls — a stand-in for a client that
/// reads its responses slowly. The writer thread blocks in write();
/// the reader must keep admitting and the order contract must hold.
class SlowSink : public std::streambuf {
 public:
  std::string text;

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) text.push_back(static_cast<char>(ch));
    return ch;
  }
  int sync() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return 0;
  }
};

TEST(Serve, SlowReaderStallsTheWriterNotTheSession) {
  const std::string platform = platform_json(47);
  std::stringstream in;
  for (const std::string& id : {"a", "b", "c", "d"})
    in << R"({"id":")" << id << R"(","planner":"star","platform":)"
       << platform << R"(,"service":"dgemm-100"})" << "\n";
  SlowSink sink;
  std::ostream out(&sink);
  io::ServeConfig config;
  config.threads = 2;
  config.cache = {};
  const std::size_t answered = io::serve_session(in, out, config);
  EXPECT_EQ(answered, 4u);
  std::vector<json::Value> responses;
  std::stringstream lines(sink.text);
  std::string line;
  while (std::getline(lines, line))
    if (!line.empty()) responses.push_back(json::parse(line));
  ASSERT_EQ(responses.size(), 4u);
  const std::vector<std::string> order = {"a", "b", "c", "d"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(responses[i].at("id").as_string(), order[i]);
    EXPECT_TRUE(responses[i].at("ok").as_bool()) << responses[i].dump();
  }
}


/// Counts how the session hands its answers to the stream.
class CountingSink : public std::streambuf {
 public:
  std::string text;
  std::size_t puts = 0;       ///< xsputn calls.
  std::size_t overflows = 0;  ///< Single-character writes.

 protected:
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    ++puts;
    text.append(data, static_cast<std::size_t>(count));
    return count;
  }
  int overflow(int ch) override {
    ++overflows;
    if (ch != traits_type::eof()) text.push_back(static_cast<char>(ch));
    return ch;
  }
};

TEST(Serve, EachAnswerIsOneWriteOfTheLineAndItsNewline) {
  const std::string platform = platform_json(53);
  std::stringstream in;
  in << R"({"id":1,"planner":"star","platform":)" << platform
     << R"(,"service":"dgemm-100"})" << "\n"
     << R"({"id":1,"planner":"star","platform":)" << platform
     << R"(,"service":"dgemm-100"})" << "\n"
     << "not json\n"
     << R"({"id":2,"planner":"portfolio","platform":)" << platform
     << R"(,"service":"dgemm-100"})" << "\n"
     << R"({"cmd":"stats"})" << "\n"
     << R"({"cmd":"cancel","id":9})" << "\n"
     << R"({"cmd":"metrics"})" << "\n";
  CountingSink sink;
  std::ostream out(&sink);
  io::ServeConfig config;
  config.threads = 2;
  io::serve_session(in, out, config);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(sink.text.begin(), sink.text.end(), '\n'));
  EXPECT_EQ(lines, 7u);
  EXPECT_EQ(sink.puts, lines);
  EXPECT_EQ(sink.overflows, 0u);
  EXPECT_EQ(sink.text.back(), '\n');
}

/// The envelope the DOM rules build from an answer's own fields: id, ok,
/// then status, degraded, an "error" only when ok is false, the retry
/// hint, and the payload encoded exactly as wire::to_json encodes the
/// decoded value.
json::Value dom_envelope(const json::Value& answer) {
  const bool ok = answer.at("ok").as_bool();
  json::Value out = json::Value::object();
  out.set("id", answer.at("id"));
  out.set("ok", ok);
  if (const json::Value* status = answer.find("status"))
    out.set("status", *status);
  if (answer.find("degraded") != nullptr) out.set("degraded", true);
  if (!ok) out.set("error", answer.at("error"));
  if (const json::Value* retry = answer.find("retry_after_ms"))
    out.set("retry_after_ms", *retry);
  if (const json::Value* run = answer.find("run"))
    out.set("run", wire::to_json(wire::planner_run_from_json(*run)));
  if (const json::Value* portfolio = answer.find("portfolio"))
    out.set("portfolio", wire::to_json(wire::portfolio_from_json(*portfolio)));
  return out;
}

/// Every answer line of a session over `lines` is canonical (it re-dumps
/// to itself) and equals dom_envelope of itself; returns the count.
std::size_t expect_dom_envelopes(const std::vector<std::string>& lines,
                                 const io::ServeConfig& config) {
  std::stringstream in, out;
  for (const std::string& line : lines) in << line << "\n";
  io::serve_session(in, out, config);
  std::string line;
  std::size_t answers = 0;
  while (std::getline(out, line)) {
    ++answers;
    const json::Value doc = json::parse(line);
    EXPECT_EQ(doc.dump(), line);
    EXPECT_EQ(dom_envelope(doc).dump(), line);
  }
  return answers;
}

TEST(Serve, StreamedAnswersAreTheDomEnvelopeByteForByte) {
  const std::string platform = platform_json(59);
  io::ServeConfig config;
  config.threads = 1;
  config.cache = CacheConfig{8, 0, true};
  EXPECT_EQ(
      expect_dom_envelopes(
          {R"({"id":"a\u0001\"q","planner":"heuristic","platform":)" +
               platform + R"(,"service":"dgemm-310"})",
           R"({"id":900000,"planner":"heuristic","platform":)" + platform +
               R"(,"service":"dgemm-310"})",
           R"({"id":900001,"planner":"heuristic","platform":)" + platform +
               R"(,"service":"dgemm-310"})",
           R"({"id":[1,{"k":null}],"planner":"no-such","platform":)" +
               platform + R"(,"service":"dgemm-310"})",
           R"({"id":4,"planner":"portfolio","platform":)" + platform +
               R"(,"service":"dgemm-310"})",
           R"({"id":5,"planner":"star","platform":)" + platform +
               R"(,"service":"dgemm-310","budget_ms":0})",
           "{\"id\":6,"},
          config),
      7u);
  // Overloaded refusals and degraded answers, behind a sleeper that
  // holds the only admission slot.
  config.cache = {};
  config.max_pending = 1;
  for (const bool degrade : {false, true}) {
    config.degrade = degrade;
    EXPECT_EQ(
        expect_dom_envelopes(
            {R"({"id":"slow","planner":"test-sleeper","platform":)" +
                 platform + R"(,"service":"dgemm-310"})",
             R"({"id":"late","planner":"heuristic","platform":)" + platform +
                 R"(,"service":"dgemm-310"})"},
            config),
        2u);
  }
}

TEST(Serve, LinesTheFastDecoderDeclinesKeepTheDomErrors) {
  // A repeated key is a parse error (no id to echo); a bad budget or a
  // non-string planner is a request error that echoes the id.
  const std::string platform = platform_json(61);
  const auto [answered, responses] = run_session({
      R"({"id":"dup","id":"again","platform":)" + platform +
          R"(,"service":"dgemm-310"})",
      R"({"id":"budget","platform":)" + platform +
          R"(,"service":"dgemm-310","budget_ms":-1})",
      R"({"id":"planner","planner":7,"platform":)" + platform +
          R"(,"service":"dgemm-310"})",
      R"({"id":"nested","platform":{"bandwidth":1000,"nodes":[{"name":"a","power":1,"power":2}]},"service":"dgemm-310"})",
  });
  EXPECT_EQ(answered, 0u);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].at("id").is_null());
  EXPECT_NE(responses[0].at("error").as_string().find(
                "duplicate object key 'id'"),
            std::string::npos);
  EXPECT_EQ(responses[1].at("id").as_string(), "budget");
  EXPECT_NE(responses[1].at("error").as_string().find(
                "budget_ms must be in (0, 8.64e10]"),
            std::string::npos);
  EXPECT_EQ(responses[2].at("id").as_string(), "planner");
  EXPECT_NE(responses[2].at("error").as_string().find(
                "JSON value is number, expected string"),
            std::string::npos);
  EXPECT_TRUE(responses[3].at("id").is_null());
  EXPECT_NE(responses[3].at("error").as_string().find(
                "duplicate object key 'power'"),
            std::string::npos);
}

// ------------------------------------------- which thread writes answers --

/// Records which thread hands each write to the stream; a reader can wait
/// for the n-th answer line.
class ThreadRecordingSink : public std::streambuf {
 public:
  struct Write {
    std::thread::id thread;
    std::string text;
  };

  std::vector<Write> writes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return writes_;
  }
  std::size_t overflows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return overflows_;
  }
  /// Blocks until `count` answer lines have been written (20 s cap).
  void wait_for_lines(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(20),
                 [&] { return lines_ >= count; });
  }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      writes_.push_back(
          {std::this_thread::get_id(),
           std::string(data, static_cast<std::size_t>(count))});
      lines_ += static_cast<std::size_t>(std::count(data, data + count, '\n'));
    }
    cv_.notify_all();
    return count;
  }
  int overflow(int ch) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++overflows_;
    return ch;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Write> writes_;
  std::size_t lines_ = 0;
  std::size_t overflows_ = 0;
};

/// Session input that hands out line i only once the sink holds
/// `after[i]` answers, then waits `settle` so that the writer thread is
/// idle, with nothing queued, when the line arrives.
class GatedInput : public std::streambuf {
 public:
  GatedInput(std::vector<std::string> lines, std::vector<std::size_t> after,
             ThreadRecordingSink& sink,
             std::chrono::milliseconds settle = std::chrono::milliseconds(0))
      : lines_(std::move(lines)), after_(std::move(after)), sink_(sink),
        settle_(settle) {}

 protected:
  int_type underflow() override {
    if (next_ == lines_.size()) return traits_type::eof();
    if (after_[next_] > 0) {
      sink_.wait_for_lines(after_[next_]);
      std::this_thread::sleep_for(settle_);
    }
    current_ = lines_[next_++] + "\n";
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_[0]);
  }

 private:
  std::vector<std::string> lines_;
  std::vector<std::size_t> after_;
  ThreadRecordingSink& sink_;
  std::chrono::milliseconds settle_;
  std::size_t next_ = 0;
  std::string current_;
};

/// Runs a session over gated input on this thread; returns the writes.
std::vector<ThreadRecordingSink::Write> run_gated_session(
    const std::vector<std::string>& lines, const std::vector<std::size_t>& after,
    const io::ServeConfig& config,
    std::chrono::milliseconds settle = std::chrono::milliseconds(0)) {
  ThreadRecordingSink sink;
  GatedInput input(lines, after, sink, settle);
  std::istream in(&input);
  std::ostream out(&sink);
  io::serve_session(in, out, config);
  EXPECT_EQ(sink.overflows(), 0u);
  std::vector<ThreadRecordingSink::Write> writes = sink.writes();
  for (const ThreadRecordingSink::Write& write : writes) {  // one per answer
    EXPECT_EQ(std::count(write.text.begin(), write.text.end(), '\n'), 1);
    EXPECT_EQ(write.text.back(), '\n');
  }
  return writes;
}

TEST(Serve, AHitAnsweredAtSubmitIsWrittenByTheWriter) {
  // The repeat arrives once the first answer is out, so submit() answers
  // it from the cache on the reading thread; the writer thread still
  // writes it — one write, the DOM envelope, the cached plan.
  const std::string platform = platform_json(67);
  const std::string request = R"({"planner":"heuristic","platform":)" +
                              platform + R"(,"service":"dgemm-310"})";
  io::ServeConfig config;
  config.threads = 2;
  config.cache = CacheConfig{8, 0, true};
  const std::vector<ThreadRecordingSink::Write> writes = run_gated_session(
      {R"({"id":1,)" + request.substr(1), R"({"id":2,)" + request.substr(1),
       R"({"cmd":"metrics"})"},
      {0, 1, 0}, config, std::chrono::milliseconds(100));
  ASSERT_EQ(writes.size(), 3u);
  for (const ThreadRecordingSink::Write& write : writes)
    EXPECT_NE(write.thread, std::this_thread::get_id()) << write.text;
  const std::string first = writes[0].text.substr(0, writes[0].text.size() - 1);
  const std::string hit = writes[1].text.substr(0, writes[1].text.size() - 1);
  const json::Value hit_doc = json::parse(hit);
  EXPECT_EQ(dom_envelope(hit_doc).dump(), hit);
  EXPECT_TRUE(hit_doc.at("run").at("cached").as_bool());
  EXPECT_EQ(hit_doc.at("run").at("result").dump(),
            json::parse(first).at("run").at("result").dump());
  // The ledger counts the hit like any job.
  const json::Value metrics = json::parse(writes[2].text).at("metrics");
  EXPECT_EQ(metrics.at("counters").at("service.cache.hits").as_number(), 1.0);
  EXPECT_EQ(metrics.at("counters").at("serve.answered").as_number(), 2.0);
  const json::Value& histograms = metrics.at("histograms");
  EXPECT_EQ(histograms.at("service.queue_wait_ms").at("count").as_number(),
            2.0);
  EXPECT_EQ(histograms.at("serve.request_ms").at("count").as_number(), 2.0);
}

TEST(Serve, AHitQueuedBehindASlowMissIsAnsweredAfterIt) {
  // The repeat is a hit answered inside submit(), but the sleeper's
  // answer is still owed ahead of it: the hit waits its turn in the
  // queue, and the writer thread writes both, in order.
  const std::string platform = platform_json(69);
  io::ServeConfig config;
  config.threads = 2;
  config.cache = CacheConfig{8, 0, true};
  const std::vector<ThreadRecordingSink::Write> writes = run_gated_session(
      {R"({"id":"warm","planner":"star","platform":)" + platform +
           R"(,"service":"dgemm-100"})",
       R"({"id":"slow","planner":"test-sleeper","platform":)" + platform +
           R"(,"service":"dgemm-310"})",
       R"({"id":"hit","planner":"star","platform":)" + platform +
           R"(,"service":"dgemm-100"})"},
      {0, 1, 0}, config);
  ASSERT_EQ(writes.size(), 3u);
  const std::vector<std::string> order = {"warm", "slow", "hit"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const json::Value doc = json::parse(writes[i].text);
    EXPECT_EQ(doc.at("id").as_string(), order[i]);
    EXPECT_TRUE(doc.at("ok").as_bool()) << writes[i].text;
    EXPECT_NE(writes[i].thread, std::this_thread::get_id()) << order[i];
  }
  EXPECT_TRUE(json::parse(writes[2].text).at("run").at("cached").as_bool());
}

TEST(Serve, WithThePlanCacheOffTheReaderWritesNoAnswer) {
  // No job is resolved inside submit() without a plan cache, so every
  // plan answer goes through the writer thread — even when the writer
  // is idle and nothing is queued as the line arrives.
  const std::string platform = platform_json(71);
  const std::string star = R"({"id":1,"planner":"star","platform":)" +
                           platform + R"(,"service":"dgemm-100"})";
  const std::string heuristic = R"({"id":2,"planner":"heuristic","platform":)" +
                                platform + R"(,"service":"dgemm-310"})";
  io::ServeConfig config;
  config.threads = 2;
  config.cache = CacheConfig{0, 256, true};
  const std::vector<ThreadRecordingSink::Write> writes = run_gated_session(
      {star, star, heuristic, heuristic}, {0, 1, 2, 3}, config,
      std::chrono::milliseconds(20));
  ASSERT_EQ(writes.size(), 4u);
  for (const ThreadRecordingSink::Write& write : writes) {
    EXPECT_NE(write.thread, std::this_thread::get_id()) << write.text;
    EXPECT_FALSE(json::parse(write.text).at("run").at("cached").as_bool());
  }
}

TEST(Serve, AClientThatWritesEverythingBeforeReadingIsServed) {
  // Every write blocks until the session has read all of its input, as
  // a client that sends every request before reading any answer leaves
  // the server's output pipe full. The reading thread must reach the end
  // of the input anyway: it never writes an answer itself — not an
  // error with nothing ahead of it, not a hit answered inside submit().
  class HeldSink : public std::streambuf {
   public:
    void release() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
      }
      cv_.notify_all();
    }
    bool timed_out() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return timed_out_;
    }
    std::string text() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return text_;
    }

   protected:
    std::streamsize xsputn(const char* data, std::streamsize count) override {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::seconds(20),
                        [this] { return released_; }))
        timed_out_ = true;
      text_.append(data, static_cast<std::size_t>(count));
      return count;
    }

   private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool released_ = false;
    bool timed_out_ = false;
    std::string text_;
  };
  /// Hands out the whole text, then releases the sink at end of input.
  class ReleasingInput : public std::streambuf {
   public:
    ReleasingInput(std::string text, HeldSink& sink)
        : text_(std::move(text)), sink_(sink) {}

   protected:
    int_type underflow() override {
      if (served_) {
        sink_.release();
        return traits_type::eof();
      }
      served_ = true;
      setg(text_.data(), text_.data(), text_.data() + text_.size());
      return traits_type::to_int_type(text_[0]);
    }

   private:
    std::string text_;
    HeldSink& sink_;
    bool served_ = false;
  };

  const std::string platform = platform_json(73);
  const std::string request = R"({"planner":"star","platform":)" + platform +
                              R"(,"service":"dgemm-100"})";
  io::ServeConfig config;
  config.threads = 2;
  config.cache = CacheConfig{8, 0, true};
  HeldSink sink;
  ReleasingInput input("not json\n" + request + "\n" + request + "\n" +
                           request + "\n",
                       sink);
  std::istream in(&input);
  std::ostream out(&sink);
  io::serve_session(in, out, config);
  EXPECT_FALSE(sink.timed_out());
  const std::string text = sink.text();
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find(R"("cached":true)"), std::string::npos);
}

}  // namespace
}  // namespace adept
