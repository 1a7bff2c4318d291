// Figure 16 (Appendix B.1): accumulated 50-hour total-cost breakup —
// ObjStore-Agg communication vs computation cost vs FLStore — per workload
// and model.
//
// Paper headlines: I/O dominates baseline cost (87.46 % Resnet18, 76.96 %
// EfficientNet, 85.80 % MobileNet, 53.32 % Swin); average cost decrease
// 94.73 % (Resnet18), 92.72 % (MobileNet), 86.81 % (EfficientNet), 77.83 %
// (Swin).
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig16");
  bench::banner("Figure 16",
                "Total cost breakup over 50 h / 3000 requests ($)");

  struct PaperNums {
    const char* model;
    double io_share_pct;
    double reduction_pct;
  };
  const PaperNums paper[] = {{"resnet18", 87.46, 94.73},
                             {"mobilenet_v3_small", 85.80, 92.72},
                             {"efficientnet_v2_s", 76.96, 86.81},
                             {"swin_v2_t", 53.32, 77.83}};

  for (const auto& [model, paper_io, paper_red] : paper) {
    sim::Scenario sc(bench::paper_scenario(model, args.scale));
    const auto trace = sc.trace();
    const auto fl_run = sim::run_trace(sc.flstore(), sc.job(), trace,
                                       sc.config().duration_s,
                                       sc.config().round_interval_s);
    const auto base_run = sim::run_trace(sc.objstore_agg(), sc.job(), trace,
                                         sc.config().duration_s,
                                         sc.config().round_interval_s);
    const auto fl_by = sim::by_workload(fl_run);
    const auto base_by = sim::by_workload(base_run);

    const double vm_rate = 0.922 / 3600.0;
    Table table({"application", "ObjStore comm ($)", "ObjStore comp ($)",
                 "FLStore ($)"});
    for (const auto type : fed::paper_workloads()) {
      const auto& b = base_by.at(type);
      const auto& f = fl_by.at(type);
      table.add_row({fed::paper_label(type),
                     fmt(b.comm.sum() * vm_rate, 2),
                     fmt(b.comp.sum() * vm_rate, 3), fmt(f.cost.sum(), 4)});
    }
    std::printf("\n-- %s --\n%s", bench::panel_label(model).c_str(),
                table.to_string().c_str());

    const double io_share = base_run.total_comm_s() /
                            (base_run.total_comm_s() + base_run.total_comp_s()) *
                            100.0;
    report.headline(std::string("I/O share of baseline total / ") + model,
                    paper_io, io_share, "%");
    report.headline(std::string("avg cost reduction / ") + model, paper_red,
                    percent_reduction(base_run.total_serving_usd(),
                                      fl_run.total_serving_usd()),
                    "%");
  }
  report.write(args);
  return 0;
}
