/// \file test_planning_service.cpp
/// \brief Tests for the unified planning API: the PlanRequest/registry
/// layer (golden parity against the legacy free functions), the
/// PlanOptions plumbing (exclusion, demand, trace, cancellation,
/// deadline), and the concurrent PlanningService (batch, portfolio,
/// stats sink) — plus seed reproducibility of the platform generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/hetero_comm.hpp"
#include "planner/planning_service.hpp"
#include "planner/registry.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"
#include "platform/io.hpp"

namespace adept {
namespace {

using test_util::run_planner;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();
constexpr MbitRate kB = 1000.0;

/// The three seed platforms the golden-parity suite pins: homogeneous,
/// uniform-heterogeneous, and the paper's background-loaded Orsay pool.
std::vector<Platform> parity_platforms() {
  std::vector<Platform> out;
  out.push_back(gen::homogeneous(21, 1000.0, kB));
  Rng uniform_rng(11);
  out.push_back(gen::uniform(40, 200.0, 1200.0, kB, uniform_rng));
  Rng orsay_rng(5);
  out.push_back(gen::grid5000_orsay_loaded(60, orsay_rng));
  return out;
}

/// Bit-identical plan comparison: same tree, same prediction, same trace.
void expect_identical(const PlanResult& a, const PlanResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.hierarchy, b.hierarchy) << what;
  EXPECT_EQ(a.report.overall, b.report.overall) << what;
  EXPECT_EQ(a.report.sched, b.report.sched) << what;
  EXPECT_EQ(a.report.service, b.report.service) << what;
  EXPECT_EQ(a.report.bottleneck, b.report.bottleneck) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
}

// ---------------------------------------------------------------- registry --

TEST(Registry, ListsTheBuiltinPlanners) {
  const auto names = PlannerRegistry::instance().names();
  for (const char* expected : {"star", "balanced", "homogeneous", "heuristic",
                               "link-aware", "improver"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, FindAndAtAgree) {
  auto& registry = PlannerRegistry::instance();
  EXPECT_EQ(registry.find("heuristic"), &registry.at("heuristic"));
  EXPECT_EQ(registry.find("no-such"), nullptr);
  EXPECT_THROW(registry.at("no-such"), Error);
}

TEST(Registry, CapabilityFlagsMatchTheLegacySignatures) {
  auto& registry = PlannerRegistry::instance();
  EXPECT_TRUE(registry.at("heuristic").info().caps.demand_aware);
  EXPECT_TRUE(registry.at("link-aware").info().caps.link_aware);
  EXPECT_TRUE(registry.at("balanced").info().caps.degree_parameterised);
  EXPECT_FALSE(registry.at("star").info().caps.demand_aware);
}

TEST(Registry, LinkAwareIsSkippedOnHomogeneousLinks) {
  const Platform homogeneous_links = gen::homogeneous(6, 1000.0, kB);
  Platform hetero_links = homogeneous_links;
  hetero_links.set_link(1, 10.0);
  const PlanRequest homo_req(homogeneous_links, kParams, dgemm_service(310));
  const PlanRequest hetero_req(hetero_links, kParams, dgemm_service(310));
  auto contains_link_aware = [](const std::vector<const IPlanner*>& planners) {
    return std::any_of(planners.begin(), planners.end(), [](const IPlanner* p) {
      return p->info().name == "link-aware";
    });
  };
  auto& registry = PlannerRegistry::instance();
  EXPECT_FALSE(contains_link_aware(registry.applicable(homo_req)));
  EXPECT_TRUE(contains_link_aware(registry.applicable(hetero_req)));
}

TEST(Registry, RejectsDuplicateAndNullRegistrations) {
  class Dummy : public IPlanner {
   public:
    const PlannerInfo& info() const override {
      static PlannerInfo info{"star", "duplicate", {}};
      return info;
    }
    PlanResult plan(const PlanRequest&) const override { return {}; }
  };
  EXPECT_THROW(PlannerRegistry::instance().add(std::make_unique<Dummy>()),
               Error);
  EXPECT_THROW(PlannerRegistry::instance().add(nullptr), Error);
}

// ----------------------------------------------------------- golden parity --

TEST(GoldenParity, RegistryPlannersMatchLegacyFreeFunctions) {
  const ServiceSpec service = dgemm_service(310);
  std::size_t index = 0;
  for (const Platform& platform : parity_platforms()) {
    const std::string tag = "platform " + std::to_string(index++);
    expect_identical(run_planner("star", platform, service),
                     plan_star(platform, kParams, service), tag + " star");
    expect_identical(run_planner("balanced", platform, service),
                     plan_balanced(platform, kParams, service),
                     tag + " balanced");
    expect_identical(run_planner("balanced", platform, service, {.degree = 3}),
                     plan_balanced(platform, kParams, service, 3),
                     tag + " balanced d=3");
    expect_identical(run_planner("homogeneous", platform, service),
                     plan_homogeneous_optimal(platform, kParams, service),
                     tag + " homogeneous");
    expect_identical(run_planner("heuristic", platform, service),
                     plan_heterogeneous(platform, kParams, service),
                     tag + " heuristic");
    expect_identical(run_planner("link-aware", platform, service),
                     plan_link_aware(platform, kParams, service),
                     tag + " link-aware");
  }
}

TEST(GoldenParity, DemandAwarePlannersMatchUnderDemand) {
  for (const Platform& platform : parity_platforms()) {
    const ServiceSpec service = dgemm_service(310);
    const RequestRate demand =
        0.4 * plan_heterogeneous(platform, kParams, service).report.overall;
    expect_identical(
        run_planner("heuristic", platform, service, {.demand = demand}),
        plan_heterogeneous(platform, kParams, service, demand), "heuristic");
    expect_identical(
        run_planner("link-aware", platform, service, {.demand = demand}),
        plan_link_aware(platform, kParams, service, demand), "link-aware");
  }
}

TEST(GoldenParity, LinkAwareMatchesOnHeterogeneousLinks) {
  Rng rng(23);
  const Platform platform = gen::with_heterogeneous_links(
      gen::uniform(24, 200.0, 1200.0, kB, rng), 50.0, 1000.0, rng);
  const ServiceSpec service = dgemm_service(100);
  expect_identical(run_planner("link-aware", platform, service),
                   plan_link_aware(platform, kParams, service), "link-aware");
}

TEST(GoldenParity, ImproverMatchesTheSeededFreeFunction) {
  for (const Platform& platform : parity_platforms()) {
    const ServiceSpec service = dgemm_service(1000);
    // The registered improver grows ref [7]'s pass from the strongest
    // scheduling pair; replicate that seed with the free function.
    const auto order = platform.ids_by_power_desc();
    Hierarchy pair;
    const auto root = pair.add_root(order[0]);
    pair.add_server(root, order[1]);
    expect_identical(
        run_planner("improver", platform, service),
        improve_deployment(std::move(pair), platform, kParams, service),
        "improver");
  }
}

// ------------------------------------------------------------- PlanOptions --

TEST(PlanOptions_, ExcludedNodesNeverAppearInAnyPlannersResult) {
  Rng rng(3);
  const Platform platform = gen::uniform(20, 200.0, 1200.0, kB, rng);
  PlanOptions options;
  options.excluded = {0, 3, 7};
  for (const auto& name : PlannerRegistry::instance().names()) {
    const auto plan = run_planner(name, platform, dgemm_service(310), options);
    EXPECT_TRUE(plan.hierarchy.validate(&platform).empty()) << name;
    for (NodeId used : plan.hierarchy.used_nodes())
      EXPECT_FALSE(options.excluded.count(used))
          << name << " deployed excluded node " << used;
  }
}

TEST(PlanOptions_, ExclusionMatchesPlanningTheSubPlatform) {
  const Platform platform = gen::homogeneous(12, 1000.0, kB);
  PlanOptions options;
  options.excluded = {1, 5};
  const auto via_options =
      run_planner("heuristic", platform, dgemm_service(310), options);
  // Same problem expressed as an explicit 10-node platform.
  const Platform survivors =
      platform.subset({0, 2, 3, 4, 6, 7, 8, 9, 10, 11});
  const auto direct = plan_heterogeneous(survivors, kParams, dgemm_service(310));
  EXPECT_EQ(via_options.nodes_used(), direct.nodes_used());
  EXPECT_EQ(via_options.report.overall, direct.report.overall);
}

TEST(PlanOptions_, ExcludingAlmostEverythingThrows) {
  const Platform platform = gen::homogeneous(4, 1000.0, kB);
  PlanOptions options;
  options.excluded = {0, 1, 2};
  EXPECT_THROW(run_planner("star", platform, dgemm_service(310), options),
               Error);
}

TEST(PlanOptions_, QuietTraceIsDropped) {
  const Platform platform = gen::homogeneous(8, 1000.0, kB);
  const auto verbose = run_planner("heuristic", platform, dgemm_service(310));
  EXPECT_FALSE(verbose.trace.empty());
  const auto quiet = run_planner("heuristic", platform, dgemm_service(310),
                                 {.verbose_trace = false});
  EXPECT_TRUE(quiet.trace.empty());
  EXPECT_EQ(quiet.hierarchy, verbose.hierarchy);
}

TEST(PlanOptions_, ImproverHonoursExclusionAndDemand) {
  const Platform platform = gen::homogeneous(10, 1000.0, kB);
  const ServiceSpec service = dgemm_service(1000);  // service-limited pair
  Hierarchy pair;
  const auto root = pair.add_root(0);
  pair.add_server(root, 1);

  // Every spare node is excluded: the improver must not grow at all.
  PlanOptions frozen;
  for (NodeId id = 2; id < platform.size(); ++id) frozen.excluded.insert(id);
  const auto stuck =
      improve_deployment(pair, platform, kParams, service, frozen);
  EXPECT_EQ(stuck.hierarchy.size(), 2u);

  // A demand the pair already meets stops the pass immediately.
  const auto before = model::evaluate(pair, platform, kParams, service);
  PlanOptions satisfied;
  satisfied.demand = 0.5 * before.overall;
  const auto unchanged =
      improve_deployment(pair, platform, kParams, service, satisfied);
  EXPECT_EQ(unchanged.hierarchy.size(), 2u);

  // Unconstrained, it grows (the legacy-behaviour baseline).
  const auto grown = improve_deployment(pair, platform, kParams, service);
  EXPECT_GT(grown.hierarchy.size(), 2u);

  // A non-positive demand is an input error, as for the heuristic.
  PlanOptions negative;
  negative.demand = -5.0;
  EXPECT_THROW(improve_deployment(pair, platform, kParams, service, negative),
               Error);
}

// --------------------------------------------------------- PlanningService --

TEST(PlanningService_, SingleRunMatchesDirectRegistryCall) {
  const Platform platform = gen::homogeneous(15, 1000.0, kB);
  PlanningService service(2);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const auto run = service.run(request, "heuristic");
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.planner, "heuristic");
  EXPECT_GE(run.wall_ms, 0.0);
  EXPECT_GT(run.evaluations, 0u);
  expect_identical(run.result, run_planner("heuristic", platform,
                                           dgemm_service(310)),
                   "service vs registry");
}

TEST(PlanningService_, BatchResultsAlignWithJobs) {
  Rng rng(17);
  const Platform platform = gen::uniform(30, 300.0, 1200.0, kB, rng);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  PlanningService service(4);
  const std::vector<std::string> names{"star", "balanced", "heuristic",
                                       "homogeneous", "improver"};
  std::vector<PlanningService::Job> jobs;
  for (const auto& name : names) jobs.push_back({request, name});
  const auto runs = service.run_batch(jobs);
  ASSERT_EQ(runs.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(runs[i].ok) << names[i] << ": " << runs[i].error;
    EXPECT_EQ(runs[i].planner, names[i]);
    expect_identical(runs[i].result,
                     run_planner(names[i], platform, dgemm_service(310)),
                     names[i]);
  }
}

TEST(PlanningService_, BatchCapturesFailuresWithoutPoisoningTheRest) {
  const Platform big = gen::homogeneous(10, 1000.0, kB);
  const Platform tiny = gen::homogeneous(1, 1000.0, kB);  // unplannable
  PlanningService service(2);
  const auto runs = service.run_batch(
      {{PlanRequest(big, kParams, dgemm_service(310)), "star"},
       {PlanRequest(tiny, kParams, dgemm_service(310)), "star"},
       {PlanRequest(big, kParams, dgemm_service(310)), "no-such-planner"}});
  EXPECT_TRUE(runs[0].ok);
  EXPECT_FALSE(runs[1].ok);
  EXPECT_NE(runs[1].error.find("two nodes"), std::string::npos);
  EXPECT_FALSE(runs[2].ok);
  EXPECT_NE(runs[2].error.find("unknown planner"), std::string::npos);
  EXPECT_EQ(service.stats().failures, 2u);
}

/// Satellite property: the portfolio's winner is at least as good as
/// every individual planner it ran.
TEST(PlanningService_, PortfolioWinnerDominatesEveryPlanner) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(6, 48));
    const Platform platform = gen::uniform(n, 150.0, 1400.0, kB, rng);
    const auto grain = static_cast<std::size_t>(rng.uniform_int(50, 600));
    const PlanRequest request(platform, kParams, dgemm_service(grain));
    PlanningService service;
    const auto portfolio = service.run_portfolio(request);
    ASSERT_TRUE(portfolio.has_winner()) << "seed " << seed;
    const auto& best = portfolio.best();
    for (const auto& run : portfolio.runs) {
      ASSERT_TRUE(run.ok) << run.planner << ": " << run.error;
      EXPECT_GE(best.result.report.overall,
                run.result.report.overall * (1.0 - 1e-9))
          << "seed " << seed << ": " << run.planner << " beat the winner";
    }
  }
}

TEST(PlanningService_, PortfolioPrefersSmallerDeploymentOnTies) {
  // With a demand every planner can satisfy, throughputs clip to the
  // demand and the tie-break must pick the smallest deployment.
  const Platform platform = gen::homogeneous(30, 1000.0, kB);
  PlanRequest request(platform, kParams, dgemm_service(310));
  request.options.demand = 10.0;  // trivially satisfiable
  PlanningService service;
  const auto portfolio = service.run_portfolio(request);
  ASSERT_TRUE(portfolio.has_winner());
  const auto& best = portfolio.best();
  for (const auto& run : portfolio.runs) {
    if (!run.ok) continue;
    if (std::min(run.result.report.overall, request.options.demand) + 1e-9 <
        request.options.demand)
      continue;  // did not meet the demand; not a tie candidate
    EXPECT_LE(best.result.nodes_used(), run.result.nodes_used())
        << run.planner;
  }
}

TEST(PlanningService_, PortfolioScoresUnderThePerLinkEvaluator) {
  // On heterogeneous links a link-blind planner's report is its
  // homogeneous-model belief, which can overstate the truth; the winner
  // must be chosen on the per-link evaluator's scale, where link-aware
  // dominates by construction.
  Rng rng(13);
  const Platform platform = gen::with_heterogeneous_links(
      gen::uniform(20, 200.0, 1200.0, kB, rng), 20.0, 1000.0, rng);
  const PlanRequest request(platform, kParams, dgemm_service(100));
  PlanningService service;
  const auto portfolio = service.run_portfolio(request);
  ASSERT_TRUE(portfolio.has_winner());
  auto truth = [&](const PlannerRun& run) {
    return model::evaluate_hetero(run.result.hierarchy, platform, kParams,
                                  request.service)
        .overall;
  };
  const double best_truth = truth(portfolio.best());
  for (const auto& run : portfolio.runs) {
    ASSERT_TRUE(run.ok) << run.planner << ": " << run.error;
    EXPECT_GE(best_truth, truth(run) * (1.0 - 1e-9)) << run.planner;
  }
}

TEST(PlanningService_, ExplicitPlannerListIsHonoured) {
  const Platform platform = gen::homogeneous(12, 1000.0, kB);
  PlanningService service(2);
  const auto portfolio = service.run_portfolio(
      PlanRequest(platform, kParams, dgemm_service(310)), {"star", "balanced"});
  ASSERT_EQ(portfolio.runs.size(), 2u);
  EXPECT_EQ(portfolio.runs[0].planner, "star");
  EXPECT_EQ(portfolio.runs[1].planner, "balanced");
}

TEST(PlanningService_, CancelledRequestsAreSkipped) {
  const Platform platform = gen::homogeneous(10, 1000.0, kB);
  CancelToken token;
  token.cancel();
  PlanRequest request(platform, kParams, dgemm_service(310));
  request.options.cancel = &token;
  PlanningService service(2);
  const auto run = service.run(request, "heuristic");
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.error, "cancelled");
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().failures, 0u);
}

TEST(PlanningService_, PastDeadlineRequestsAreSkipped) {
  const Platform platform = gen::homogeneous(10, 1000.0, kB);
  PlanRequest request(platform, kParams, dgemm_service(310));
  request.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  PlanningService service(2);
  const auto run = service.run(request, "heuristic");
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.error, "deadline exceeded");
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(PlanningService_, StatsSinkAccumulatesAcrossRuns) {
  const Platform platform = gen::homogeneous(20, 1000.0, kB);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  PlanningService service(2);
  service.run(request, "homogeneous");  // many Eq-16 evaluations
  service.run(request, "star");
  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.evaluations, 10u);  // the d-ary sweep alone does hundreds
  EXPECT_GE(stats.wall_ms, 0.0);
}

TEST(PlanningService_, MetricsRegistryMirrorsTheStatsView) {
  // PlanningStats is a thin view over the metrics registry: every field
  // must be derivable from the obs names, and the per-planner histograms
  // must split what the aggregate lumps together.
  const Platform platform = gen::homogeneous(20, 1000.0, kB);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  PlanningService service(2);
  service.run(request, "homogeneous");
  service.run(request, "star");
  service.run(request, "star");

  const auto stats = service.stats();
  const obs::RegistrySnapshot snapshot = service.metrics().snapshot();
  const obs::HistogramSnapshot& plan =
      snapshot.histograms.at("service.plan.latency_ms");
  EXPECT_EQ(plan.count, stats.jobs);
  EXPECT_DOUBLE_EQ(plan.sum, stats.wall_ms);
  EXPECT_EQ(snapshot.counters.at("service.evaluations"), stats.evaluations);
  EXPECT_EQ(snapshot.counters.at("service.plan.failures"), 0u);
  EXPECT_EQ(
      snapshot.histograms.at("service.planner.homogeneous.latency_ms").count,
      1u);
  const obs::HistogramSnapshot& star =
      snapshot.histograms.at("service.planner.star.latency_ms");
  EXPECT_EQ(star.count, 2u);
  EXPECT_GE(star.quantile(0.5), star.min);
  EXPECT_LE(star.quantile(0.99), star.max);
}

TEST(PlanningService_, AcceptsAnExternalMetricsRegistry) {
  // Two services sharing one registry accumulate into the same metrics —
  // the embedding an application uses to get one process-wide snapshot.
  obs::MetricsRegistry shared;
  const Platform platform = gen::homogeneous(12, 1000.0, kB);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  PlanningService first(1, PlannerRegistry::instance(), CacheConfig{}, &shared);
  PlanningService second(1, PlannerRegistry::instance(), CacheConfig{},
                         &shared);
  first.run(request, "star");
  second.run(request, "star");
  EXPECT_EQ(&first.metrics(), &shared);
  EXPECT_EQ(shared.snapshot().histograms.at("service.plan.latency_ms").count,
            2u);
  EXPECT_EQ(first.stats().jobs, 2u);  // the view reads the shared registry
}

// ------------------------------------------------- hits answered at submit --

/// Holds its worker until the test opens the gate (or 20 s pass), then
/// plans homogeneously: the deterministic way to keep a service's only
/// thread busy for exactly as long as a test needs.
class GatePlanner final : public IPlanner {
 public:
  GatePlanner() {
    info_.name = "test-gate";
    info_.summary = "waits for the test's gate, then plans homogeneously";
    info_.caps.shard_aware = true;  // never in a portfolio
  }
  const PlannerInfo& info() const override { return info_; }
  PlanResult plan(const PlanRequest& request) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(20), [this] { return open_; });
    }
    return PlannerRegistry::instance().at("homogeneous").plan(request);
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
    entered_ = 0;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks until `count` runs have entered plan().
  void wait_entered(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(20),
                 [&] { return entered_ >= count; });
  }

 private:
  PlannerInfo info_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = true;
  mutable std::size_t entered_ = 0;
};

GatePlanner& gate() {
  static GatePlanner* const planner = [] {
    auto owned = std::make_unique<GatePlanner>();
    GatePlanner* raw = owned.get();
    PlannerRegistry::instance().add(std::move(owned));
    return raw;
  }();
  return *planner;
}

PlanRequest cached_request(const Platform& platform) {
  return PlanRequest(platform, kParams, dgemm_service(310));
}

TEST(HitsAtSubmit, ACachedRequestIsDoneBeforeTheOnlyWorkerFrees) {
  const Platform platform = gen::homogeneous(14, 1000.0, kB);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  const PlannerRun first = service.run(cached_request(platform), "heuristic");
  ASSERT_TRUE(first.ok);
  gate().close();
  PlanTicket busy = service.submit(
      PlanRequest(platform, kParams, dgemm_service(100)), "test-gate");
  gate().wait_entered(1);
  const PlanTicket hit = service.submit(cached_request(platform), "heuristic");
  EXPECT_TRUE(hit.poll());  // answered inside submit(): the worker is held
  EXPECT_TRUE(hit.progress().started);
  EXPECT_FALSE(busy.poll());
  EXPECT_EQ(service.pending_jobs(), 1u);  // only the gated job
  gate().open();
  const PlannerRun& run = hit.wait();
  EXPECT_TRUE(run.ok);
  EXPECT_TRUE(run.cached);
  EXPECT_EQ(run.planner, "heuristic");
  EXPECT_EQ(run.wall_ms, 0.0);
  EXPECT_EQ(run.evaluations, 0u);
  expect_identical(run.result, first.result, "hit answered at submit");
  EXPECT_TRUE(busy.wait().ok);
}

TEST(HitsAtSubmit, TheLedgerMatchesThePoolPaths) {
  // `inline_service` answers the repeat inside submit() while a gated
  // job holds its only worker; `pool_service` queues both copies behind
  // a gated job, so its repeat finds the finished entry on a pool
  // worker. Every counter and histogram count must agree.
  const Platform platform = gen::homogeneous(14, 1000.0, kB);
  const PlanRequest gated(platform, kParams, dgemm_service(100));
  PlanningService inline_service(1, PlannerRegistry::instance(),
                                 CacheConfig{8});
  EXPECT_FALSE(
      inline_service.submit(cached_request(platform), "heuristic").wait().cached);
  gate().close();
  const PlanTicket inline_busy = inline_service.submit(gated, "test-gate");
  gate().wait_entered(1);
  const PlanTicket inline_hit =
      inline_service.submit(cached_request(platform), "heuristic");
  EXPECT_TRUE(inline_hit.poll());
  gate().open();
  EXPECT_TRUE(inline_busy.wait().ok);

  PlanningService pool_service(1, PlannerRegistry::instance(), CacheConfig{8});
  gate().close();
  const PlanTicket busy = pool_service.submit(gated, "test-gate");
  const PlanTicket miss =
      pool_service.submit(cached_request(platform), "heuristic");
  const PlanTicket pool_hit =
      pool_service.submit(cached_request(platform), "heuristic");
  EXPECT_FALSE(pool_hit.poll());  // queued behind the gated job
  gate().open();
  EXPECT_TRUE(busy.wait().ok);
  EXPECT_FALSE(miss.wait().cached);
  EXPECT_TRUE(pool_hit.wait().cached);
  expect_identical(inline_hit.wait().result, pool_hit.wait().result,
                   "inline vs pool hit");

  const auto ledger = [](const PlanningService& service) {
    const PlanningStats stats = service.stats();
    const obs::RegistrySnapshot snapshot = service.metrics().snapshot();
    const auto count = [&](const std::string& name) {
      return snapshot.histograms.at(name).count;
    };
    return std::vector<std::uint64_t>{
        stats.jobs,
        stats.failures,
        stats.cancelled,
        stats.evaluations,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_coalesced,
        snapshot.counters.at("service.planner.heuristic.cache_hits"),
        count("service.plan.latency_ms"),
        count("service.queue_wait_ms"),
        count("service.planner.heuristic.latency_ms"),
        count("service.planner.test-gate.latency_ms")};
  };
  EXPECT_EQ(ledger(inline_service), ledger(pool_service));
  EXPECT_EQ(inline_service.stats().jobs, 3u);
  EXPECT_EQ(inline_service.stats().cache_hits, 1u);
  // The queue-wait histogram still counts every job.
  EXPECT_EQ(ledger(inline_service)[9], inline_service.stats().jobs);
}

TEST(HitsAtSubmit, AnIdenticalRequestWhoseLeaderIsPlanningCoalesces) {
  const Platform platform = gen::homogeneous(14, 1000.0, kB);
  const PlanRequest request(platform, kParams, dgemm_service(100));
  PlanningService service(2, PlannerRegistry::instance(), CacheConfig{8});
  gate().close();
  const PlanTicket leader = service.submit(request, "test-gate");
  gate().wait_entered(1);  // the leader holds the in-flight entry
  const PlanTicket follower = service.submit(request, "test-gate");
  // Let the second worker pick the follower up and reach the in-flight
  // entry before the leader may finish.
  for (int i = 0; i < 2000 && !follower.progress().started; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(follower.poll());
  gate().open();
  EXPECT_FALSE(leader.wait().cached);
  const PlannerRun& run = follower.wait();
  EXPECT_TRUE(run.cached);
  expect_identical(run.result, leader.wait().result, "coalesced follower");
  const PlanningStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_coalesced, 1u);
  EXPECT_EQ(service.metrics()
                .snapshot()
                .histograms.at("service.planner.test-gate.latency_ms")
                .count,
            1u);  // planned once
}

TEST(HitsAtSubmit, CancelledOrLateCachedRequestsReportSkipped) {
  const Platform platform = gen::homogeneous(14, 1000.0, kB);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  ASSERT_TRUE(service.run(cached_request(platform), "heuristic").ok);
  CancelToken token;
  token.cancel();
  PlanRequest cancelled = cached_request(platform);
  cancelled.options.cancel = &token;
  PlanRequest late = cached_request(platform);
  late.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const PlanTicket cancelled_ticket = service.submit(cancelled, "heuristic");
  const PlanTicket late_ticket = service.submit(late, "heuristic");
  const PlannerRun& cancelled_run = cancelled_ticket.wait();
  EXPECT_TRUE(cancelled_run.skipped);
  EXPECT_EQ(cancelled_run.error, "cancelled");
  const PlannerRun& late_run = late_ticket.wait();
  EXPECT_TRUE(late_run.skipped);
  EXPECT_EQ(late_run.error, "deadline exceeded");
  EXPECT_EQ(service.stats().cancelled, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(HitsAtSubmit, NonFiniteNumbersFailTheRunThroughRunAndSubmit) {
  // Keying a NaN demand throws on the caller's thread inside submit();
  // the request must still reach its job and fail there, in run.error.
  const Platform platform = gen::homogeneous(14, 1000.0, kB);
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  PlanRequest request = cached_request(platform);
  request.options.demand = std::numeric_limits<double>::quiet_NaN();
  const PlannerRun direct = service.run(request, "heuristic");
  const PlanTicket ticket = service.submit(request, "heuristic");
  const PlannerRun async = ticket.wait();
  for (const PlannerRun* run : {&direct, &async}) {
    EXPECT_FALSE(run->ok);
    EXPECT_FALSE(run->skipped);
    EXPECT_NE(run->error.find("non-finite"), std::string::npos) << run->error;
  }
  EXPECT_EQ(service.stats().failures, 2u);
}

// -------------------------------------------------- seed reproducibility --

TEST(GeneratorSeeds, SameSeedSamePlatformFile) {
  Rng a(42), b(42), c(43);
  const Platform pa = gen::uniform(50, 200.0, 1200.0, kB, a);
  const Platform pb = gen::uniform(50, 200.0, 1200.0, kB, b);
  const Platform pc = gen::uniform(50, 200.0, 1200.0, kB, c);
  EXPECT_EQ(io::serialize_platform(pa), io::serialize_platform(pb));
  EXPECT_NE(io::serialize_platform(pa), io::serialize_platform(pc));
}

TEST(GeneratorSeeds, OrsayPoolIsSeedDeterministic) {
  Rng a(7), b(7);
  EXPECT_EQ(io::serialize_platform(gen::grid5000_orsay_loaded(64, a)),
            io::serialize_platform(gen::grid5000_orsay_loaded(64, b)));
}

}  // namespace
}  // namespace adept
