/// \file bench_service.cpp
/// \brief Sustained planning-service throughput through the async front
/// door (submit → ticket → wait): the plan cache off vs on, and the
/// metrics instrumentation on vs off.
///
/// Workload: a repeated-request stream — `--distinct` different planning
/// problems (same platform, DGEMM grains varied), cycled `--repeats`
/// times, all submitted up front and drained. This is the shape real
/// serving traffic has (a handful of hot platforms × services asked for
/// again and again), and exactly what the LRU cache exists for.
///
/// Reports requests/s for both configurations, asserts the cached stream
/// returns bit-identical plans, and emits the machine-readable record to
/// --json. The headline claim: cache-on answers 176 of the 192 requests
/// from the cache and sustains ≥ 0.5× the cache-off request rate on this
/// workload (the ratio divides by the planner's own speed, so it shrinks
/// as Algorithm 1 gets faster; a 40-node plan now costs about as much as
/// its cache key).
///
/// The sustained arms replay a longer stream through the *sharded*
/// planner at full concurrency with the whole-plan cache off, so every
/// request actually plans; the on-arm adds only the shard-level
/// sub-plan cache (CacheConfig::shard_capacity). This isolates the
/// shard cache's contribution on the serving shape the ROADMAP names
/// (sustained high-concurrency stream), asserts bit-identity against
/// the uncached stream, and emits `sustained_speedup` + `hit_rate`
/// into the trajectory for the CI gate.
///
/// The metrics arms measure the observability subsystem's overhead on
/// the cache-off (real planning) workload: a service recording into an
/// enabled registry vs one recording into a *disabled* registry (every
/// record reduced to one branch). Each arm replays the stream for at
/// least kArmMs (200 ms) of wall time and is measured in process CPU time
/// (getrusage), which a descheduled thread does not accrue; the arms run
/// in ABBA order (off, on, on, off) so a drift in host speed weighs on
/// both alike, and the reported efficiency is the median over --rounds
/// rounds of off CPU over on CPU. The release perf gate floors
/// `metrics_efficiency` at 0.98, i.e. instrumentation may cost at most
/// ~2% CPU per job; the measure's own spread lets only a regression of
/// about 3% fail it reliably (see the gate's note in ci.yml).
///
///   ./bench_service [--nodes 40] [--distinct 16] [--repeats 12]
///                   [--jobs 0] [--seed N] [--rounds 5] [--json path]
///                   [--metrics-out path]

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>

#include "common/rng.hpp"
#include "io/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "planner/planning_service.hpp"

namespace {

using namespace adept;

struct StreamResult {
  double wall_ms = 0.0;
  double requests_per_s = 0.0;
  std::vector<PlanResult> plans;
  PlanningStats stats;
};

/// Submits the whole stream to `service` asynchronously and drains it.
StreamResult drain_stream(PlanningService& service, const Platform& platform,
                          const std::vector<ServiceSpec>& services,
                          std::size_t repeats,
                          const std::string& planner = "heuristic",
                          std::size_t shards = 0) {
  const std::size_t total = services.size() * repeats;
  std::vector<PlanTicket> tickets;
  tickets.reserve(total);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    PlanRequest request(platform, bench::params(),
                        services[i % services.size()]);
    request.options.shards = shards;
    tickets.push_back(service.submit(request, planner));
  }
  StreamResult out;
  out.plans.reserve(total);
  for (PlanTicket& ticket : tickets) {
    const PlannerRun& run = ticket.wait();
    ADEPT_CHECK(run.ok, "stream request failed: " + run.error);
    out.plans.push_back(run.result);
  }
  const auto end = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  out.requests_per_s = 1000.0 * static_cast<double>(total) / out.wall_ms;
  out.stats = service.stats();
  return out;
}

/// drain_stream through a fresh service.
StreamResult run_stream(const Platform& platform,
                        const std::vector<ServiceSpec>& services,
                        std::size_t repeats, std::size_t jobs,
                        const CacheConfig& cache,
                        obs::MetricsRegistry* metrics = nullptr,
                        const std::string& planner = "heuristic",
                        std::size_t shards = 0) {
  PlanningService service(jobs, PlannerRegistry::instance(), cache, metrics);
  return drain_stream(service, platform, services, repeats, planner, shards);
}

/// Least wall time of one metrics-overhead arm in a round.
constexpr double kArmMs = 200.0;

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser(argv[0] ? argv[0] : "bench_service",
                   "Sustained service throughput, plan cache off vs on.");
  parser.add_option("nodes", "platform size", "40");
  parser.add_option("distinct", "distinct planning problems", "16");
  parser.add_option("repeats", "times the problem set is replayed", "12");
  parser.add_option("jobs", "service worker threads (0 = all cores)", "0");
  parser.add_option("seed", "RNG seed for the platform", "1");
  parser.add_option("rounds", "ABBA rounds of the metrics-overhead arms "
                              "(median round's CPU ratio)", "5");
  parser.add_option("sustained-repeats",
                    "times the problem set is replayed in the sustained "
                    "high-concurrency sharded arm", "24");
  parser.add_option("sustained-shards",
                    "explicit shard count for the sustained arm", "4");
  parser.add_option("json", "write the bench trajectory to this file");
  parser.add_option("metrics-out",
                    "write the metrics-on arm's registry snapshot (JSON)");
  try {
    parser.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  const auto nodes = static_cast<std::size_t>(parser.get_int("nodes"));
  const auto distinct = static_cast<std::size_t>(parser.get_int("distinct"));
  const auto repeats = static_cast<std::size_t>(parser.get_int("repeats"));
  const auto jobs = static_cast<std::size_t>(parser.get_int("jobs"));
  Rng rng(static_cast<std::uint64_t>(parser.get_int("seed")));
  const Platform platform = gen::uniform(nodes, 200.0, 1400.0, 1000.0, rng);

  std::vector<ServiceSpec> services;
  services.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i)
    services.push_back(dgemm_service(80 + 15 * i));

  bench::banner("Planning service: sustained req/s, cache off vs on");
  std::cout << "platform: " << nodes << " nodes, stream: " << distinct
            << " distinct problems x " << repeats << " repeats = "
            << distinct * repeats << " requests, planner: heuristic\n\n";

  const StreamResult off =
      run_stream(platform, services, repeats, jobs, CacheConfig{});
  const StreamResult on = run_stream(platform, services, repeats, jobs,
                                     CacheConfig{/*plan_capacity=*/2 * distinct});

  // The cache must be invisible in the results: every repeat of problem i
  // gets the bit-identical plan the uncached stream computed.
  for (std::size_t i = 0; i < on.plans.size(); ++i) {
    ADEPT_CHECK(on.plans[i].hierarchy == off.plans[i].hierarchy &&
                    on.plans[i].report.overall == off.plans[i].report.overall,
                "cached stream diverged at request " + std::to_string(i));
  }

  Table table("Sustained service throughput");
  table.set_header({"cache", "req/s", "wall (ms)", "hits", "misses",
                    "evictions", "model evals"});
  auto row = [&](const char* name, const StreamResult& r) {
    table.add_row({name, Table::num(r.requests_per_s, 1),
                   Table::num(r.wall_ms, 2), Table::num(static_cast<long long>(
                                                 r.stats.cache_hits)),
                   Table::num(static_cast<long long>(r.stats.cache_misses)),
                   Table::num(static_cast<long long>(r.stats.cache_evictions)),
                   Table::num(static_cast<long long>(r.stats.evaluations))});
  };
  row("off", off);
  row("on", on);
  std::cout << table;

  const double speedup = on.requests_per_s / off.requests_per_s;
  std::cout << "\nspeedup (cache on / off): " << Table::num(speedup, 2)
            << "x\n";
  bench::verdict("cache-on sustains >= 0.5x the cache-off request rate",
                 speedup >= 0.5);
  bench::verdict("cached plans are bit-identical to uncached ones", true);

  // ---- metrics instrumentation overhead: enabled vs disabled registry --
  // On the cache-off workload (every request actually plans, so the
  // per-job recording cost is maximally visible). Two services live for
  // the whole measurement, one recording into an enabled registry, one
  // into a disabled one. A round drains the stream through them in ABBA
  // order (off, on, on, off), over and over, until each side has run for
  // kArmMs, and sums each side's process CPU time (getrusage: every
  // thread's user + system time). The host's speed swings by more than
  // the ~1% measured here within a second; passes this short and this
  // finely interleaved make both sides sample the same speeds, and CPU
  // time leaves out the time a descheduled thread waits. A round's
  // efficiency is off CPU over on CPU; the reported one is the median
  // round's.
  const auto rounds = static_cast<std::size_t>(parser.get_int("rounds"));
  ADEPT_CHECK(rounds >= 1, "--rounds must be at least 1");
  obs::MetricsRegistry disabled(false);
  obs::MetricsRegistry enabled(true);
  PlanningService off_service(jobs, PlannerRegistry::instance(), CacheConfig{},
                              &disabled);
  PlanningService on_service(jobs, PlannerRegistry::instance(), CacheConfig{},
                             &enabled);
  struct Arm {
    double cpu_ms = 0.0;
    double wall_ms = 0.0;
    std::size_t jobs = 0;
    std::uint64_t evaluations = 0;  ///< 0 on the disabled registry.
  };
  const auto pass = [&](PlanningService& service, Arm& arm) {
    const std::uint64_t evaluations = service.stats().evaluations;
    const double cpu_before = bench::process_cpu_ms();
    const StreamResult stream =
        drain_stream(service, platform, services, repeats);
    arm.cpu_ms += bench::process_cpu_ms() - cpu_before;
    arm.wall_ms += stream.wall_ms;
    arm.jobs += stream.plans.size();
    arm.evaluations += stream.stats.evaluations - evaluations;
  };
  struct Round {
    double efficiency = 0.0;
    Arm off, on;
  };
  std::vector<Round> paired(rounds);
  for (Round& round : paired) {
    while (round.off.wall_ms < kArmMs || round.on.wall_ms < kArmMs) {
      pass(off_service, round.off);
      pass(on_service, round.on);
      pass(on_service, round.on);
      pass(off_service, round.off);
    }
    round.efficiency = round.off.cpu_ms / round.on.cpu_ms;
  }
  std::sort(paired.begin(), paired.end(), [](const Round& a, const Round& b) {
    return a.efficiency < b.efficiency;
  });
  const Round& median = paired[rounds / 2];
  const double metrics_efficiency = median.efficiency;
  const obs::RegistrySnapshot on_snapshot = enabled.snapshot();
  const obs::HistogramSnapshot plan_latency =
      on_snapshot.histograms.at("service.plan.latency_ms");
  const double round_jobs = static_cast<double>(median.on.jobs);

  Table overhead("Metrics instrumentation overhead (cache off, ABBA, " +
                 std::to_string(median.on.jobs) +
                 " jobs a side; median of " + std::to_string(rounds) +
                 " rounds)");
  overhead.set_header({"metrics", "CPU ms/job", "req/s", "wall (ms)",
                       "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  overhead.add_row({"off",
                    Table::num(median.off.cpu_ms /
                                   static_cast<double>(median.off.jobs), 5),
                    Table::num(1000.0 * static_cast<double>(median.off.jobs) /
                                   median.off.wall_ms, 1),
                    Table::num(median.off.wall_ms, 2), "-", "-", "-"});
  overhead.add_row({"on", Table::num(median.on.cpu_ms / round_jobs, 5),
                    Table::num(1000.0 * round_jobs / median.on.wall_ms, 1),
                    Table::num(median.on.wall_ms, 2),
                    Table::num(plan_latency.quantile(0.50), 3),
                    Table::num(plan_latency.quantile(0.95), 3),
                    Table::num(plan_latency.quantile(0.99), 3)});
  std::cout << '\n' << overhead;
  std::cout << "rounds (off CPU / on CPU):";
  for (const Round& round : paired)
    std::cout << ' ' << Table::num(round.efficiency, 4);
  std::cout << "\nmetrics efficiency (off CPU / on CPU): "
            << Table::num(metrics_efficiency, 4) << "x\n";
  bench::verdict("metrics instrumentation costs <= ~2% CPU per job",
                 metrics_efficiency >= 0.98);

  // ---- sustained high-concurrency stream: shard cache off vs on -------
  // The whole-plan cache is OFF in both arms (plan_capacity = 0), so
  // every request runs the sharded planner; what the on-arm measures is
  // the shard-level sub-plan cache alone. After the first replay of the
  // problem set the cache holds every (shard, service) sub-plan, so a
  // sustained stream answers each shard from the LRU — the ROADMAP's
  // "sustained high-concurrency stream" serving shape.
  const auto sustained_repeats =
      static_cast<std::size_t>(parser.get_int("sustained-repeats"));
  const auto sustained_shards =
      static_cast<std::size_t>(parser.get_int("sustained-shards"));
  const std::size_t sustained_total = distinct * sustained_repeats;
  const StreamResult sustained_off =
      run_stream(platform, services, sustained_repeats, jobs, CacheConfig{},
                 nullptr, "sharded", sustained_shards);
  const StreamResult sustained_on = run_stream(
      platform, services, sustained_repeats, jobs,
      CacheConfig{/*plan_capacity=*/0,
                  /*shard_capacity=*/2 * distinct * sustained_shards,
                  /*coalesce=*/true},
      nullptr, "sharded", sustained_shards);
  for (std::size_t i = 0; i < sustained_on.plans.size(); ++i) {
    ADEPT_CHECK(
        sustained_on.plans[i].hierarchy == sustained_off.plans[i].hierarchy &&
            sustained_on.plans[i].report.overall ==
                sustained_off.plans[i].report.overall,
        "sustained cached stream diverged at request " + std::to_string(i));
  }
  const double sustained_speedup =
      sustained_on.requests_per_s / sustained_off.requests_per_s;
  const std::uint64_t shard_lookups = sustained_on.stats.shard_cache_hits +
                                      sustained_on.stats.shard_cache_misses;
  const double hit_rate =
      shard_lookups > 0
          ? static_cast<double>(sustained_on.stats.shard_cache_hits) /
                static_cast<double>(shard_lookups)
          : 0.0;

  Table sustained("Sustained high-concurrency stream (sharded, " +
                  std::to_string(sustained_shards) + " shards, " +
                  std::to_string(sustained_total) + " requests)");
  sustained.set_header({"shard cache", "req/s", "wall (ms)", "hits",
                        "misses", "hit rate"});
  sustained.add_row({"off", Table::num(sustained_off.requests_per_s, 1),
                     Table::num(sustained_off.wall_ms, 2), "-", "-", "-"});
  sustained.add_row(
      {"on", Table::num(sustained_on.requests_per_s, 1),
       Table::num(sustained_on.wall_ms, 2),
       Table::num(
           static_cast<long long>(sustained_on.stats.shard_cache_hits)),
       Table::num(
           static_cast<long long>(sustained_on.stats.shard_cache_misses)),
       Table::num(100.0 * hit_rate, 1) + "%"});
  std::cout << '\n' << sustained;

  std::cout << "\nsustained speedup (shard cache on / off): "
            << Table::num(sustained_speedup, 2) << "x\n";
  bench::verdict("sustained cached stream is bit-identical to uncached",
                 true);
  bench::verdict("sustained shard-cache hit rate >= 70%", hit_rate >= 0.70);

  if (parser.has("metrics-out")) {
    std::ofstream snapshot_out(parser.get("metrics-out"));
    if (!snapshot_out) {
      std::cerr << "error: cannot write metrics snapshot to '"
                << parser.get("metrics-out") << "'\n";
      return 2;
    }
    snapshot_out << obs::to_json(on_snapshot).dump() << '\n';
  }

  if (parser.has("json")) {
    bench::JsonBenchWriter writer("bench_service");
    writer.add({"cache-off", nodes, off.wall_ms, off.stats.evaluations,
                off.requests_per_s,
                {{"requests", static_cast<double>(distinct * repeats)}}});
    writer.add({"cache-on", nodes, on.wall_ms, on.stats.evaluations,
                on.requests_per_s,
                {{"requests", static_cast<double>(distinct * repeats)},
                 {"speedup", speedup},
                 {"cache_hits", static_cast<double>(on.stats.cache_hits)},
                 {"cache_misses", static_cast<double>(on.stats.cache_misses)}}});
    writer.add({"metrics-off", nodes, median.off.wall_ms,
                median.off.evaluations,
                1000.0 * static_cast<double>(median.off.jobs) /
                    median.off.wall_ms,
                {{"requests", static_cast<double>(median.off.jobs)},
                 {"cpu_ms", median.off.cpu_ms}}});
    writer.add({"metrics-on", nodes, median.on.wall_ms,
                median.on.evaluations,
                1000.0 * round_jobs / median.on.wall_ms,
                {{"requests", round_jobs},
                 {"cpu_ms", median.on.cpu_ms},
                 {"metrics_efficiency", metrics_efficiency},
                 {"p50_ms", plan_latency.quantile(0.50)},
                 {"p95_ms", plan_latency.quantile(0.95)},
                 {"p99_ms", plan_latency.quantile(0.99)}}});
    writer.add({"sustained-off", nodes, sustained_off.wall_ms,
                sustained_off.stats.evaluations,
                sustained_off.requests_per_s,
                {{"requests", static_cast<double>(sustained_total)}}});
    writer.add(
        {"sustained-on", nodes, sustained_on.wall_ms,
         sustained_on.stats.evaluations, sustained_on.requests_per_s,
         {{"requests", static_cast<double>(sustained_total)},
          {"sustained_speedup", sustained_speedup},
          {"hit_rate", hit_rate},
          {"shard_cache_hits",
           static_cast<double>(sustained_on.stats.shard_cache_hits)},
          {"shard_cache_misses",
           static_cast<double>(sustained_on.stats.shard_cache_misses)}}});
    writer.write(parser.get("json"));
  }
  return 0;
}
