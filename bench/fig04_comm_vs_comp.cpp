// Figure 4 (§2.3): communication vs computation latency of non-training
// workloads executed on a serverless function that fetches its inputs from
// the cloud object store (no FLStore caching) — five workloads, three
// models.
//
// Paper headlines: average communication 89.1 s vs average computation
// 2.8 s — a 31x gap, the motivation for unifying the planes.
#include "bench_common.hpp"

#include "core/flstore.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig04");
  bench::banner("Figure 4",
                "Comm vs comp latency on a cloud function + object store");

  const std::vector<fed::WorkloadType> workloads = {
      fed::WorkloadType::kCosineSimilarity, fed::WorkloadType::kDebugging,
      fed::WorkloadType::kInference, fed::WorkloadType::kMaliciousFilter,
      fed::WorkloadType::kSchedulingCluster};
  const std::vector<std::string> models = {"resnet18", "efficientnet_v2_s",
                                           "mobilenet_v3_small"};

  double comm_sum = 0.0, comp_sum = 0.0;
  std::size_t n = 0;

  Table table({"application", "model", "communication (s)",
               "computation (s)", "comm/comp"});
  for (const auto& model : models) {
    fed::FLJobConfig job_cfg;
    job_cfg.model = model;
    job_cfg.rounds =
        std::max<RoundId>(1, static_cast<RoundId>(30 * args.scale));
    fed::FLJob job(job_cfg);
    backend::ObjectStoreBackend store(sim::objstore_link(),
                                      PricingCatalog::aws());
    const auto fn_profile = core::function_runtime_config(job.model()).profile;

    // Populate the data plane.
    std::vector<fed::RoundRecord> records;
    for (RoundId r = 0; r < job_cfg.rounds; ++r) {
      records.push_back(job.make_round(r));
    }
    // Compute happens *on the function*.
    baselines::ObjStoreAggregator fn_like(fn_profile, job, store);
    for (const auto& rec : records) fn_like.ingest_round(rec, 0.0);

    RequestId id = 1;
    for (const auto type : workloads) {
      fed::NonTrainingRequest req{id++, type, job_cfg.rounds - 1, kNoClient,
                                  0.0};
      const auto res = fn_like.serve(req, 0.0);
      table.add_row({fed::paper_label(type), bench::panel_label(model),
                     fmt(res.comm_s, 1), fmt(res.comp_s, 2),
                     fmt(res.comm_s / std::max(res.comp_s, 1e-9), 1) + "x"});
      comm_sum += res.comm_s;
      comp_sum += res.comp_s;
      ++n;
    }
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("average communication latency", 89.1,
                  comm_sum / static_cast<double>(n), "s");
  report.headline("average computation latency", 2.8,
                  comp_sum / static_cast<double>(n), "s");
  report.headline("communication / computation ratio", 31.0,
                  comm_sum / comp_sum, "x");
  report.write(args);
  return 0;
}
