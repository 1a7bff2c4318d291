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
  cfg.rounds = std::max<RoundId>(cfg.rounds, 60);
  sim::Scenario sc(cfg);

  auto adaptive_cold = sc.make_cold_backend(backend::BackendKind::kObjectStore);
  auto static_cold = sc.make_cold_backend(backend::BackendKind::kObjectStore);
  auto adaptive =
      sc.make_flstore_over(*adaptive_cold, core::PolicyMode::kTailored);
  auto static_store =
      sc.make_flstore_over(*static_cold, core::PolicyMode::kTailoredStatic);

  // Phase 1: inference era (both caches tuned for P1 work).
  RoundId round = 0;
  double now = 0.0;
  RequestId id = 1;
  for (; round < 30; ++round, now += cfg.round_interval_s) {
    const auto rec = sc.job().make_round(round);
    adaptive->ingest_round(rec, now);
    static_store->ingest_round(rec, now);
    fed::NonTrainingRequest req{id++, fed::WorkloadType::kInference, round,
                                kNoClient, now + 5.0};
    (void)adaptive->serve(req, req.arrival_s);
    req.id = id++;
    (void)static_store->serve(req, req.arrival_s);
  }

  // Phase 2: the workload switches to malicious filtering. FLStore's
  // selector applies P2; the static variant keeps P1.
  SampleSet adaptive_lat, static_lat, adaptive_cost, static_cost;
  for (; round < 60; ++round, now += cfg.round_interval_s) {
    const auto rec = sc.job().make_round(round);
    adaptive->ingest_round(rec, now);
    static_store->ingest_round(rec, now);
    fed::NonTrainingRequest req{id++, fed::WorkloadType::kMaliciousFilter,
                                round, kNoClient, now + 5.0};
    const auto a = adaptive->serve(req, req.arrival_s);
    req.id = id++;
    const auto s = static_store->serve(req, req.arrival_s);
    adaptive_lat.add(a.latency_s);
    static_lat.add(s.latency_s);
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
