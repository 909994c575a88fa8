/// \file bench_micro_perf.cpp
/// \brief google-benchmark microbenchmarks: cost scaling of the model
/// evaluation, the planners, the wire codecs, the simulator, and the
/// DGEMM kernel. These guard the "plans a 200-node cluster
/// interactively" property the CLI relies on.

#include <benchmark/benchmark.h>

#include "common/json.hpp"
#include "io/wire.hpp"
#include "model/evaluate.hpp"
#include "planner/planner.hpp"
#include "planner/planning_service.hpp"
#include "planner/registry.hpp"
#include "platform/generator.hpp"
#include "sim/simulator.hpp"
#include "workload/dgemm.hpp"

namespace {

using namespace adept;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();

Hierarchy star_over(std::size_t n) {
  Hierarchy h;
  const auto root = h.add_root(0);
  for (NodeId id = 1; id < n; ++id) h.add_server(root, id);
  return h;
}

void BM_EvaluateHierarchy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Platform platform = gen::homogeneous(n, 1000.0, 1000.0);
  const Hierarchy h = star_over(n);
  const ServiceSpec service = dgemm_service(310);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::evaluate_unchecked(h, platform, kParams, service));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateHierarchy)->Range(8, 512)->Complexity(benchmark::oN);

/// A sharded-stitch-shaped plan: the root over agents of `group` servers
/// each, leftover nodes as root servers (19 x 50 + 30 at n = 1000, close
/// to the 20 x 50 serve-drift stitch candidate).
Hierarchy stitched_over(std::size_t n, std::size_t group) {
  Hierarchy h;
  const auto root = h.add_root(0);
  NodeId next = 1;
  while (next + group < n) {
    const auto agent = h.add_agent(root, next++);
    for (std::size_t k = 0; k < group; ++k) h.add_server(agent, next++);
  }
  while (next < n) h.add_server(root, next++);
  return h;
}

/// Hierarchy::validate runs inside every checked model::evaluate; the
/// star is its worst case for a per-element scan of the sibling list.
void BM_ValidateHierarchy(benchmark::State& state, bool stitched) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Platform platform = gen::homogeneous(n, 1000.0, 1000.0);
  const Hierarchy h = stitched ? stitched_over(n, 50) : star_over(n);
  for (auto _ : state) benchmark::DoNotOptimize(h.validate(&platform));
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_ValidateHierarchy, star, false)
    ->Range(64, 16384)
    ->Complexity(benchmark::oN);
BENCHMARK_CAPTURE(BM_ValidateHierarchy, stitched, true)
    ->Range(64, 16384)
    ->Complexity(benchmark::oN);

void BM_PlanHeuristic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Platform platform = gen::uniform(n, 200.0, 1200.0, 1000.0, rng);
  const ServiceSpec service = dgemm_service(310);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_heterogeneous(platform, kParams, service));
  }
}
BENCHMARK(BM_PlanHeuristic)->Range(8, 256)->Unit(benchmark::kMillisecond);

/// A serve plan-request line for an n-node platform, and its request.
PlanRequest wire_request(std::size_t n) {
  Rng rng(7);
  return PlanRequest(
      std::make_shared<const Platform>(
          gen::uniform(n, 200.0, 1200.0, 1000.0, rng)),
      kParams, dgemm_service(310));
}

/// serve's request decode, straight from the line's bytes.
void BM_WireDecode(benchmark::State& state) {
  const PlanRequest request =
      wire_request(static_cast<std::size_t>(state.range(0)));
  json::Value doc = wire::to_json(request);
  doc.set("id", 1);
  doc.set("planner", "heuristic");
  const std::string line = doc.dump();
  for (auto _ : state) benchmark::DoNotOptimize(wire::decode_plan_line(line));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(line.size()));
}
BENCHMARK(BM_WireDecode)
    ->Name("BM_WireDecode/stream")
    ->Arg(50)
    ->Arg(125)
    ->Arg(310);

/// serve's answer encode for a heuristic plan's run, through the
/// streaming writer.
void BM_WireEncode(benchmark::State& state) {
  const PlanRequest request =
      wire_request(static_cast<std::size_t>(state.range(0)));
  PlanningService service(1);
  const PlannerRun run = service.run(request, "heuristic");
  for (auto _ : state) {
    std::string line;
    json::Writer out(line);
    out.begin_object().key("id").index(1).key("ok").boolean(run.ok);
    out.key("run");
    wire::write(out, run);
    out.end_object();
    benchmark::DoNotOptimize(line);
  }
}
BENCHMARK(BM_WireEncode)
    ->Name("BM_WireEncode/stream")
    ->Arg(50)
    ->Arg(125)
    ->Arg(310);

/// The plan-cache key: request_fingerprint's writers walk the request
/// into two keyed SipHash-2-4 streams as bits. Bytes are the
/// fingerprint's length, the text the key no longer formats.
void BM_RequestKey(benchmark::State& state) {
  const PlanRequest request =
      wire_request(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(wire::request_key(request, "heuristic"));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<long long>(
          wire::request_fingerprint(request, "heuristic").size()));
}
BENCHMARK(BM_RequestKey)->Arg(50)->Arg(125)->Arg(310);

/// A warmed plan-cache hit through the async front door: submit() keys
/// the request and answers it on this thread, wait() returns at once.
void BM_ServiceHit(benchmark::State& state) {
  const PlanRequest request =
      wire_request(static_cast<std::size_t>(state.range(0)));
  PlanningService service(1, PlannerRegistry::instance(), CacheConfig{8});
  service.run(request, "heuristic");
  for (auto _ : state) {
    PlanTicket ticket = service.submit(request, "heuristic");
    benchmark::DoNotOptimize(ticket.wait().cached);
  }
}
BENCHMARK(BM_ServiceHit)->Arg(310);

void BM_PlanHomogeneousOptimal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Platform platform = gen::homogeneous(n, 1000.0, 1000.0);
  const ServiceSpec service = dgemm_service(310);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_homogeneous_optimal(platform, kParams, service));
  }
}
BENCHMARK(BM_PlanHomogeneousOptimal)->Range(8, 128)->Unit(benchmark::kMillisecond);

void BM_SimulateStar(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  const Platform platform = gen::homogeneous(9, 1000.0, 1000.0);
  const Hierarchy h = star_over(9);
  const ServiceSpec service = dgemm_service(310);
  sim::SimConfig config;
  config.warmup = 0.2;
  config.measure = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(h, platform, kParams, service, clients, config));
  }
}
BENCHMARK(BM_SimulateStar)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_DgemmKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = workload::make_matrix(n, 1);
  const auto b = workload::make_matrix(n, 2);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    workload::dgemm(a.data(), b.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(2 * n * n * n));
}
BENCHMARK(BM_DgemmKernel)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
