// Figure 15 (Appendix B.1): accumulated 50-hour total-time breakup —
// ObjStore-Agg communication vs computation, against FLStore's total — per
// workload and model.
//
// Paper headlines: communication ≈ 98.9 % of ObjStore-Agg inference time;
// average latency decrease 82.04 % (Resnet18), 47.33 % (MobileNet),
// 50.44 % (EfficientNet), 20.45 % (Swin).
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig15");
  bench::banner("Figure 15",
                "Total time breakup over 50 h / 3000 requests (hours)");

  struct PaperAvg {
    const char* model;
    double reduction_pct;
  };
  const PaperAvg paper[] = {{"resnet18", 82.04},
                            {"mobilenet_v3_small", 47.33},
                            {"efficientnet_v2_s", 50.44},
                            {"swin_v2_t", 20.45}};

  for (const auto& [model, paper_red] : paper) {
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

    Table table({"application", "ObjStore comm (h)", "ObjStore comp (h)",
                 "FLStore total (h)"});
    for (const auto type : fed::paper_workloads()) {
      const auto& b = base_by.at(type);
      const auto& f = fl_by.at(type);
      table.add_row({fed::paper_label(type), fmt(b.comm.sum() / 3600.0, 2),
                     fmt(b.comp.sum() / 3600.0, 3),
                     fmt(f.latency.sum() / 3600.0, 3)});
    }
    std::printf("\n-- %s --\n%s", bench::panel_label(model).c_str(),
                table.to_string().c_str());

    const double comm_share = base_run.total_comm_s() /
                              (base_run.total_comm_s() + base_run.total_comp_s()) *
                              100.0;
    report.headline(std::string("comm share of baseline total / ") + model,
                    98.9, comm_share, "%");
    report.headline(std::string("avg latency reduction / ") + model, paper_red,
                    percent_reduction(base_run.total_latency_s(),
                                      fl_run.total_latency_s()),
                    "%");
  }
  report.write(args);
  return 0;
}
