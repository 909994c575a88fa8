/// \file bench_plan_scale.cpp
/// \brief Planning-cost scaling sweep: the incremental evaluation engine
/// vs the preserved pre-rewrite planners, on heterogeneous platforms of
/// 100 / 310 / 1000 nodes (the paper's §5.3 pool, scaled to its Fig-7
/// headline claim of 1000-node platforms).
///
/// For every size the harness runs
///   - `heuristic-serial`     — Algorithm 1 on the incremental engine,
///                              its bound-pruned sweep (single-threaded:
///                              the heuristic has no parallel path);
///   - `heuristic-reference`  — the pre-rewrite O(candidates × hierarchy)
///                              implementation (reference_planners.hpp);
///   - `improver` / `improver-reference` — the bottleneck improver grown
///                              from a pair, new vs pre-rewrite;
/// asserts the new planners produce **identical plans** to the reference
/// (runtime golden parity at sizes the unit tests do not reach), prints a
/// table, and emits the machine-readable trajectory to --json
/// (BENCH_plan_scale.json), including speedup and evaluation ratios.
///
///   ./bench_plan_scale [--sizes 100,310,1000] [--seed N] [--json path]
///                      [--skip-reference]
///
/// --skip-reference drops the slow baselines (CI smoke uses small sizes
/// instead, keeping the reference comparison alive there).

#include "bench_util.hpp"
#include "reference_planners.hpp"

#include <chrono>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace {

using namespace adept;

struct Measured {
  PlanResult plan;
  double wall_ms = 0.0;
  std::uint64_t evaluations = 0;
};

template <typename Fn>
Measured measure(Fn&& run) {
  Measured out;
  const std::uint64_t evals_before = model::evaluations_on_this_thread();
  const auto start = std::chrono::steady_clock::now();
  out.plan = run();
  const auto end = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  out.evaluations = model::evaluations_on_this_thread() - evals_before;
  return out;
}

Hierarchy improver_seed(const Platform& platform) {
  const auto& order = platform.ids_by_power_desc();
  Hierarchy pair;
  const auto root = pair.add_root(order[0]);
  pair.add_server(root, order[1]);
  return pair;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser(argv[0] ? argv[0] : "bench_plan_scale",
                   "Planning-cost scaling sweep (incremental engine vs "
                   "pre-rewrite reference).");
  parser.add_option("sizes", "comma-separated platform sizes", "100,310,1000");
  parser.add_option("seed", "RNG seed for synthetic platforms", "20080615");
  parser.add_option("json", "output path for the perf-trajectory JSON",
                    "BENCH_plan_scale.json");
  parser.add_flag("skip-reference", "skip the slow pre-rewrite baselines");
  try {
    parser.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n' << parser.usage();
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const bool with_reference = !parser.get_flag("skip-reference");

  bench::banner("Planning cost vs platform size — incremental engine");
  const MiddlewareParams params = bench::params();
  const ServiceSpec service = dgemm_service(310);
  const ServiceSpec improver_service = dgemm_service(1000);

  bench::JsonBenchWriter json("plan_scale");
  Table table("plan_heterogeneous + improve_deployment, heterogeneous "
              "Orsay-like pool (dgemm-310 / dgemm-1000)");
  table.set_header({"nodes", "series", "wall ms", "evals", "rho (req/s)",
                    "speedup", "plan"});
  bool all_identical = true;

  for (const std::string& size_text : strings::split(parser.get("sizes"), ',')) {
    const auto n = static_cast<std::size_t>(std::stoull(size_text));
    ADEPT_CHECK(n >= 2, "--sizes entries must be >= 2");
    Rng rng(seed);
    const Platform platform = gen::grid5000_orsay_loaded(n, rng);

    // --- Algorithm 1 ----------------------------------------------------
    const Measured serial = measure(
        [&] { return plan_heterogeneous(platform, params, service); });
    Measured reference;
    if (with_reference)
      reference = measure([&] {
        return bench::reference_plan_heterogeneous(platform, params, service);
      });

    const bool reference_same =
        !with_reference || reference.plan.hierarchy == serial.plan.hierarchy;
    all_identical = all_identical && reference_same;

    auto row = [&](const std::string& series, const Measured& m,
                   double baseline_ms, bool identical) {
      const double speedup = m.wall_ms > 0.0 ? baseline_ms / m.wall_ms : 0.0;
      table.add_row({Table::num(static_cast<long long>(n)), series,
                     Table::num(m.wall_ms, 2),
                     Table::num(static_cast<long long>(m.evaluations)),
                     Table::num(m.plan.report.overall, 2),
                     baseline_ms > 0.0 ? Table::num(speedup, 1) + "x" : "-",
                     identical ? "identical" : "DIVERGES"});
    };
    const double baseline_ms = with_reference ? reference.wall_ms : 0.0;
    row("heuristic-serial", serial, baseline_ms, true);
    if (with_reference) row("heuristic-reference", reference, 0.0, reference_same);

    auto record = [&](const std::string& series, const Measured& m,
                      std::vector<std::pair<std::string, double>> extra = {}) {
      json.add({series, n, m.wall_ms, m.evaluations, m.plan.report.overall,
                std::move(extra)});
    };
    record("heuristic-serial", serial,
           {{"speedup_vs_reference",
             with_reference && serial.wall_ms > 0.0
                 ? reference.wall_ms / serial.wall_ms
                 : 0.0}});
    if (with_reference) record("heuristic-reference", reference);

    // --- bottleneck improver (eval-count story) -------------------------
    const Measured improver = measure([&] {
      return improve_deployment(improver_seed(platform), platform, params,
                                improver_service, PlanOptions{});
    });
    Measured improver_reference;
    bool improver_same = true;
    if (with_reference) {
      improver_reference = measure([&] {
        return bench::reference_improve_deployment(
            improver_seed(platform), platform, params, improver_service,
            PlanOptions{});
      });
      improver_same =
          improver_reference.plan.hierarchy == improver.plan.hierarchy;
      all_identical = all_identical && improver_same;
    }
    row("improver", improver,
        with_reference ? improver_reference.wall_ms : 0.0, true);
    if (with_reference)
      row("improver-reference", improver_reference, 0.0, improver_same);
    record("improver", improver,
           {{"eval_ratio_vs_reference",
             with_reference && improver.evaluations > 0
                 ? static_cast<double>(improver_reference.evaluations) /
                       static_cast<double>(improver.evaluations)
                 : 0.0}});
    if (with_reference) record("improver-reference", improver_reference);
  }

  std::cout << table << '\n';
  if (with_reference)
    bench::verdict(
        "incremental planners reproduce the reference plans bit-for-bit",
        all_identical);
  json.write(parser.get("json"));
  return all_identical ? 0 : 1;
}
