/// \file bench_shard.cpp
/// \brief Sharded vs monolithic planning at multi-cluster scale.
///
/// Two acceptance cases, both ISSUE-5 headline numbers:
///   - orsay-1000          — the 1000-node heterogeneous pool of
///                           bench_plan_scale (single cluster label; the
///                           automatic partitioner affinity-splits it);
///   - multi-cluster-10000 — a 10k-node four-site Grid'5000-like grid
///                           (label partition, oversized sites affinity-
///                           subdivided).
///
/// For each case the harness plans with the monolithic heuristic and
/// with the sharded backend (auto shards), both offered the same thread
/// pool, and reports wall clock, predicted throughput, the sharded
/// speedup and the retained-throughput ratio. It asserts (exit 1 on
/// violation):
///   - sharded retains >= 95% of the monolithic predicted throughput in
///     every case;
///   - sharded runs at a fixed fraction of the monolithic speed or
///     better: >= 0.2x in every case, >= 0.08x on the 10k multi-cluster
///     case (the monolithic heuristic's bound-pruned sweep is the faster
///     of the two; the floors catch the sharded path slowing down);
///   - sharded is bit-identical with and without the pool (the PR-2
///     determinism discipline at bench scale);
///   - a warm shard-cache pass (ShardPlanCache filled by a cold pass)
///     answers every shard from the LRU, bit-identical to the
///     cache-less plan — the `cache_warm_speedup` series the release
///     perf gate floors.
///
///   ./bench_shard [--cases orsay-1000,multi-cluster-10000] [--seed N]
///                 [--json BENCH_shard.json]
///
/// A case spec is "<preset>-<count>" with preset one of orsay |
/// multi-cluster; CI may run smaller counts, the committed baseline
/// carries the full-size records.

#include "bench_util.hpp"

#include <chrono>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "planner/shard_cache.hpp"
#include "planner/sharded.hpp"
#include "platform/partition.hpp"

namespace {

using namespace adept;

struct Case {
  std::string preset;  ///< "orsay" or "multi-cluster".
  std::size_t count = 0;
};

Case parse_case(const std::string& spec) {
  const auto dash = spec.rfind('-');
  ADEPT_CHECK(dash != std::string::npos && dash + 1 < spec.size(),
              "case spec must be <preset>-<count>, got '" + spec + "'");
  const auto count = strings::parse_int(spec.substr(dash + 1));
  ADEPT_CHECK(count.has_value() && *count >= 4,
              "bad node count in case '" + spec + "'");
  return {spec.substr(0, dash), static_cast<std::size_t>(*count)};
}

Platform build_platform(const Case& c, std::uint64_t seed) {
  Rng rng(seed);
  if (c.preset == "orsay") return gen::grid5000_orsay_loaded(c.count, rng);
  if (c.preset == "multi-cluster")
    return gen::grid5000_multi_cluster(c.count, rng);
  throw Error("unknown case preset '" + c.preset +
              "' (known: orsay, multi-cluster)");
}

struct Measured {
  PlanResult plan;
  double wall_ms = 0.0;
};

Measured measure(const std::string& planner, const Platform& platform,
                 const ServiceSpec& service, ThreadPool* pool,
                 ShardPlanCache* cache = nullptr) {
  PlanOptions options;
  options.pool = pool;
  options.verbose_trace = false;
  options.shard_cache = cache;
  Measured out;
  const auto start = std::chrono::steady_clock::now();
  out.plan = PlannerRegistry::instance().at(planner).plan(
      {platform, bench::params(), service, options});
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser(argv[0] ? argv[0] : "bench_shard",
                   "Sharded vs monolithic planning at multi-cluster scale.");
  parser.add_option("cases", "comma-separated <preset>-<count> case specs",
                    "orsay-1000,multi-cluster-10000");
  parser.add_option("seed", "RNG seed for synthetic platforms", "20080615");
  parser.add_option("json", "output path for the perf-trajectory JSON",
                    "BENCH_shard.json");
  try {
    parser.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n' << parser.usage();
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  bench::banner("Sharded multi-cluster planning vs the monolithic heuristic");
  const ServiceSpec service = dgemm_service(310);
  ThreadPool pool;

  bench::JsonBenchWriter json("shard");
  Table table("heuristic (monolithic) vs sharded backend, auto shards, "
              "dgemm-310, unlimited demand");
  table.set_header({"case", "series", "wall ms", "rho (req/s)", "nodes",
                    "speedup", "retained"});
  bool all_ok = true;

  for (const std::string& spec : strings::split(parser.get("cases"), ',')) {
    const Case c = parse_case(spec);
    const Platform platform = build_platform(c, seed);
    const std::size_t shard_count =
        plat::partition_platform(platform, 0).size();

    const Measured mono = measure("heuristic", platform, service, &pool);
    const Measured shard = measure("sharded", platform, service, &pool);
    const Measured shard_serial = measure("sharded", platform, service, nullptr);

    // Shard-cache arm: the first pass fills the per-shard LRU, the
    // second answers every shard from it. The warm pass must be
    // bit-identical to the cache-less plan — the cache is a pure
    // memoization, never a different answer.
    ShardPlanCache cache(2 * shard_count);
    const Measured cold = measure("sharded", platform, service, &pool, &cache);
    const Measured warm = measure("sharded", platform, service, &pool, &cache);
    const ShardPlanCache::Stats cache_stats = cache.stats();
    // The warm pass does exactly one lookup per shard; all of them hit.
    const double warm_hit_rate =
        shard_count > 0 ? static_cast<double>(cache_stats.hits) /
                              static_cast<double>(shard_count)
                        : 0.0;
    const double cache_warm_speedup =
        warm.wall_ms > 0.0 ? cold.wall_ms / warm.wall_ms : 0.0;
    const bool identical_warm =
        warm.plan.hierarchy == shard.plan.hierarchy &&
        warm.plan.report.overall == shard.plan.report.overall &&
        cold.plan.hierarchy == shard.plan.hierarchy;

    const bool identical =
        shard.plan.hierarchy == shard_serial.plan.hierarchy &&
        shard.plan.report.overall == shard_serial.plan.report.overall;
    const double speedup =
        shard.wall_ms > 0.0 ? mono.wall_ms / shard.wall_ms : 0.0;
    const double retained =
        mono.plan.report.overall > 0.0
            ? shard.plan.report.overall / mono.plan.report.overall
            : 0.0;

    table.add_row({spec, "monolithic", Table::num(mono.wall_ms, 1),
                   Table::num(mono.plan.report.overall, 2),
                   Table::num(static_cast<long long>(mono.plan.nodes_used())),
                   "-", "-"});
    table.add_row({spec,
                   "sharded (" + std::to_string(shard_count) + " shards)",
                   Table::num(shard.wall_ms, 1),
                   Table::num(shard.plan.report.overall, 2),
                   Table::num(static_cast<long long>(shard.plan.nodes_used())),
                   Table::num(speedup, 2) + "x",
                   Table::num(100.0 * retained, 1) + "%"});
    table.add_row({spec, "cache-warm", Table::num(warm.wall_ms, 1),
                   Table::num(warm.plan.report.overall, 2),
                   Table::num(static_cast<long long>(warm.plan.nodes_used())),
                   Table::num(cache_warm_speedup, 1) + "x", "-"});

    json.add({"monolithic-" + c.preset, c.count, mono.wall_ms, 0,
              mono.plan.report.overall});
    json.add({"sharded-" + c.preset, c.count, shard.wall_ms, 0,
              shard.plan.report.overall,
              {{"speedup_vs_monolithic", speedup},
               {"retained_throughput", retained},
               {"shards", static_cast<double>(shard_count)},
               {"threads", static_cast<double>(pool.thread_count())},
               {"bit_identical_serial", identical ? 1.0 : 0.0}}});
    json.add({"cache-warm-" + c.preset, c.count, warm.wall_ms, 0,
              warm.plan.report.overall,
              {{"cache_warm_speedup", cache_warm_speedup},
               {"warm_hit_rate", warm_hit_rate},
               {"bit_identical_warm", identical_warm ? 1.0 : 0.0}}});

    bench::verdict(spec + ": sharded retains >= 95% of monolithic throughput "
                          "(" + Table::num(100.0 * retained, 2) + "%)",
                   retained >= 0.95);
    all_ok = all_ok && retained >= 0.95;
    const double need = c.preset == "multi-cluster" && c.count >= 10000
                            ? 0.08
                            : 0.2;
    bench::verdict(spec + ": sharded runs at >= " + Table::num(need, 2) +
                       "x the monolithic speed (got " +
                       Table::num(speedup, 2) + "x)",
                   speedup >= need);
    all_ok = all_ok && speedup >= need;
    bench::verdict(spec + ": sharded plan bit-identical with/without pool",
                   identical);
    all_ok = all_ok && identical;
    bench::verdict(spec + ": warm shard-cache pass bit-identical to the "
                          "cache-less plan (" +
                       Table::num(cache_warm_speedup, 1) + "x faster)",
                   identical_warm);
    all_ok = all_ok && identical_warm;
    bench::verdict(spec + ": warm pass answers every shard from the cache",
                   warm_hit_rate >= 1.0);
    all_ok = all_ok && warm_hit_rate >= 1.0;
  }

  std::cout << table << '\n';
  json.write(parser.get("json"));
  return all_ok ? 0 : 1;
}
