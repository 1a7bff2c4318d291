// Figure 12 (Appendix A.1): FLStore scalability — bursts of 1..10 parallel
// requests against 5 cached parallel function instances, EfficientNet.
//
// Paper headlines: latency and cost are flat while parallel requests <= 5
// (e.g. 1.05 s Malicious Filtering, 6.067 s Clustering averages), rise only
// past the cached-function count, and scaling more functions restores them.
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig12");
  bench::banner("Figure 12",
                "Latency/cost vs parallel requests (5 cached functions)");

  const std::vector<fed::WorkloadType> workloads = {
      fed::WorkloadType::kMaliciousFilter, fed::WorkloadType::kCosineSimilarity,
      fed::WorkloadType::kSchedulingCluster, fed::WorkloadType::kClustering,
      fed::WorkloadType::kInference};
  constexpr int kCachedFunctions = 5;

  auto cfg = bench::paper_scenario("efficientnet_v2_s", 0.05 * args.scale);
  // The burst targets the round ingested at t=200s (interval 10s) — the
  // figure's structure; --scale must not shrink the job below it.
  cfg.rounds = std::max<RoundId>(cfg.rounds, 21);
  sim::Scenario sc(cfg);

  Table lat({"parallel requests", "Malicious Filt. (s)", "Cosine sim. (s)",
             "Sched. clust. (s)", "Clustering (s)", "Inference (s)"});
  Table cost({"parallel requests", "Malicious Filt. ($)", "Cosine sim. ($)",
              "Sched. clust. ($)", "Clustering ($)", "Inference ($)"});

  double flat_lat_at_5 = 0.0, lat_at_10 = 0.0;

  for (int parallel = 1; parallel <= 10; ++parallel) {
    std::vector<std::string> lat_row{std::to_string(parallel)};
    std::vector<std::string> cost_row{std::to_string(parallel)};
    for (const auto type : workloads) {
      // Fresh store per cell so warm-up is identical everywhere; the runner
      // ingests training rounds on its own clock, and the burst targets the
      // round that is newest (and therefore cached) at burst time.
      auto cold = sc.make_cold_backend(backend::BackendKind::kObjectStore);
      auto store = sc.make_flstore_over(*cold, core::PolicyMode::kTailored);
      constexpr double kBurstAt = 200.0;
      constexpr double kRoundInterval = 10.0;
      const auto target = static_cast<RoundId>(kBurstAt / kRoundInterval);
      // Burst of `parallel` identical requests at t0 over `kCachedFunctions`
      // server slots (replica copies of the cached function).
      std::vector<fed::NonTrainingRequest> burst;
      for (int i = 0; i < parallel; ++i) {
        burst.push_back(fed::NonTrainingRequest{
            static_cast<RequestId>(i + 1), type, target, kNoClient, kBurstAt});
      }
      sim::RunnerOptions opts;
      opts.servers = kCachedFunctions;
      const auto run = sim::run_trace(*store, sc.job(), burst, kBurstAt + 100.0,
                                      kRoundInterval, opts);
      SampleSet latency, usd;
      for (const auto& rec : run.records) {
        latency.add(rec.latency_s());
        usd.add(rec.cost_usd);
      }
      lat_row.push_back(fmt(latency.mean(), 2));
      cost_row.push_back(fmt_usd(usd.mean()));
      if (type == fed::WorkloadType::kMaliciousFilter) {
        if (parallel == 5) flat_lat_at_5 = latency.mean();
        if (parallel == 10) lat_at_10 = latency.mean();
      }
    }
    lat.add_row(lat_row);
    cost.add_row(cost_row);
  }
  std::printf("\nPer-request latency:\n%s", lat.to_string().c_str());
  std::printf("\nPer-request cost:\n%s", cost.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("malicious-filter latency at <=5 parallel", 1.05,
                  flat_lat_at_5, "s");
  report.headline("latency growth factor at 10 parallel", 2.0,
                  lat_at_10 / flat_lat_at_5, "x");
  bench::note(
      "Shape check: flat latency until requests exceed the cached function\n"
      "count, then queueing doubles it by 10 parallel requests.");
  report.write(args);
  return 0;
}
