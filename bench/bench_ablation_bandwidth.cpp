/// \file bench_ablation_bandwidth.cpp
/// \brief Ablation: sensitivity of Eq 16 to the homogeneous-link
/// bandwidth B — quantifying when the paper's homogeneous-communication
/// assumption matters, because the paper defers heterogeneous
/// communication to future work (the `link-aware` planner and
/// bench_ablation_links cover that extension).

#include "bench_util.hpp"

int main() {
  using namespace adept;
  bench::banner("Ablation — bandwidth sensitivity of the planned deployment");

  const MiddlewareParams params = bench::params();
  const ServiceSpec service = dgemm_service(310);

  Table table("50 homogeneous nodes, heuristic plan per bandwidth");
  table.set_header({"B (Mbit/s)", "rho (req/s)", "nodes used", "depth",
                    "bottleneck", "rho vs B=1000"});
  RequestRate reference = 0.0;
  std::vector<std::pair<MbitRate, RequestRate>> points;
  for (const MbitRate bandwidth : {10.0, 50.0, 100.0, 500.0, 1000.0, 10000.0}) {
    const Platform platform = gen::homogeneous(50, 1000.0, bandwidth);
    const auto plan = bench::run_planner("heuristic", platform, params, service);
    if (bandwidth == 1000.0) reference = plan.report.overall;
    points.emplace_back(bandwidth, plan.report.overall);
    table.add_row(
        {Table::num(bandwidth, 0), Table::num(plan.report.overall, 1),
         Table::num(static_cast<long long>(plan.nodes_used())),
         Table::num(static_cast<long long>(plan.hierarchy.max_depth())),
         model::bottleneck_name(plan.report.bottleneck),
         reference > 0.0 ? Table::num(plan.report.overall / reference, 2)
                         : "-"});
  }
  std::cout << table << '\n';

  bool monotone = true;
  for (std::size_t i = 1; i < points.size(); ++i)
    monotone = monotone && points[i].second >= points[i - 1].second - 1e-9;
  bench::verdict("throughput is monotone in bandwidth", monotone);
  bench::verdict("10x bandwidth above gigabit changes little (compute-bound)",
                 points.back().second < 1.25 * reference);
  return 0;
}
