// Figure 18 (Appendix C): FLStore vs FLStore-Static when the workload
// switches from model inference to malicious filtering. FLStore-Static
// keeps the inference-era P1 policy (only the aggregated model cached), so
// every filtering request re-fetches the round from the persistent store.
//
// Paper headlines: FLStore cuts per-request latency by ~99 % (8 s) and
// costs by ~3x against the static configuration.
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig18");
  bench::banner("Figure 18",
                "FLStore vs FLStore-Static across a workload switch");

  auto cfg = bench::paper_scenario("mobilenet_v3_small", 0.1 * args.scale);
  // The two 30-round phases below are the figure's structure; --scale
  // shrinks the trace but the job must still own at least 60 rounds.
  constexpr RoundId kPhaseRounds = 30;
  cfg.rounds = std::max<RoundId>(cfg.rounds, 2 * kPhaseRounds);
  sim::Scenario sc(cfg);

  auto adaptive_cold = sc.make_cold_backend(backend::BackendKind::kObjectStore);
  auto static_cold = sc.make_cold_backend(backend::BackendKind::kObjectStore);
  auto adaptive =
      sc.make_flstore_over(*adaptive_cold, core::PolicyMode::kTailored);
  auto static_store =
      sc.make_flstore_over(*static_cold, core::PolicyMode::kTailoredStatic);

  // One request 5 s after each round: model inference for the first 30
  // rounds (both caches tuned for P1 work), then malicious filtering, where
  // FLStore's selector applies P2 and the static variant keeps P1.
  std::vector<fed::NonTrainingRequest> trace;
  for (RoundId round = 0; round < 2 * kPhaseRounds; ++round) {
    trace.push_back({static_cast<RequestId>(round + 1),
                     round < kPhaseRounds ? fed::WorkloadType::kInference
                                          : fed::WorkloadType::kMaliciousFilter,
                     round, kNoClient,
                     static_cast<double>(round) * cfg.round_interval_s + 5.0});
  }
  // The run ends at the last request, so it ingests rounds 0..59.
  const auto runs = sim::run_trace({adaptive.get(), static_store.get()},
                                   sc.job(), trace, trace.back().arrival_s,
                                   cfg.round_interval_s);

  // The figure reads the filtering phase.
  SampleSet adaptive_lat, static_lat, adaptive_cost, static_cost;
  for (std::size_t i = kPhaseRounds; i < trace.size(); ++i) {
    const auto& a = runs[0].records[i];
    const auto& s = runs[1].records[i];
    adaptive_lat.add(a.latency_s());
    static_lat.add(s.latency_s());
    adaptive_cost.add(a.cost_usd);
    static_cost.add(s.cost_usd);
  }

  Table table({"variant", "latency med [q1,q3] (s)", "mean cost ($)"});
  table.add_row({"FLStore", sim::quartile_cell(adaptive_lat),
                 fmt_usd(adaptive_cost.mean())});
  table.add_row({"FLStore-Static", sim::quartile_cell(static_lat),
                 fmt_usd(static_cost.mean())});
  std::printf("%s", table.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("latency reduction vs static policy", 99.0,
                  percent_reduction(static_lat.mean(), adaptive_lat.mean()),
                  "%");
  report.headline("absolute latency reduction", 8.0,
                  static_lat.mean() - adaptive_lat.mean(), "s");
  report.headline("cost ratio static / adaptive", 3.0,
                  static_cost.mean() / adaptive_cost.mean(), "x");
  report.write(args);
  return 0;
}
