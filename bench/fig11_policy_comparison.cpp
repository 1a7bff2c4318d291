// Figure 11: FLStore's tailored policies vs traditional ones hosted in the
// same serverless cache — FLStore, FLStore-limited (half capacity),
// FLStore-Random, FLStore-LRU, FLStore-FIFO. Latency (left) and cost
// (right) per request over the 50-hour trace.
//
// Paper headline (§5.4): tailored policies cut the debugging workload by
// 97.15 % (380 s) and ~$0.1 per request against the traditional variants.
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig11");
  bench::banner("Figure 11",
                "Tailored vs traditional caching policies in FLStore");

  auto cfg = bench::paper_scenario("efficientnet_v2_s", 0.5 * args.scale);
  sim::Scenario sc(cfg);
  const auto trace = sc.trace();

  struct Variant {
    std::string label;
    std::unique_ptr<core::FLStore> store;
  };
  // FLStore's tailored working set: two rounds of updates + aggregates +
  // metadata windows, plus headroom for in-flight prefetches (the measured
  // steady-state footprint). FLStore-limited runs at half of this.
  const auto working_set =
      (2ULL * static_cast<units::Bytes>(cfg.clients_per_round) + 4ULL) *
      sc.job().model().object_bytes;

  // Traditional variants get the same capacity FLStore's tailored policies
  // actually use; FLStore-limited gets half of it (§5.4).
  std::vector<Variant> variants;
  variants.push_back({"FLStore-LRU",
                      sc.make_flstore_variant(core::PolicyMode::kLru,
                                              working_set)});
  variants.push_back({"FLStore-FIFO",
                      sc.make_flstore_variant(core::PolicyMode::kFifo,
                                              working_set)});
  variants.push_back({"FLStore-Random",
                      sc.make_flstore_variant(core::PolicyMode::kTailoredRandom)});
  variants.push_back({"FLStore-limited",
                      sc.make_flstore_variant(core::PolicyMode::kTailored,
                                              working_set / 2)});
  variants.push_back({"FLStore",
                      sc.make_flstore_variant(core::PolicyMode::kTailored)});

  std::map<std::string, std::map<fed::WorkloadType, sim::WorkloadStats>> all;
  for (auto& v : variants) {
    const auto run = sim::run_trace(*v.store, sc.job(), trace, cfg.duration_s,
                                    cfg.round_interval_s);
    all[v.label] = sim::by_workload(run);
  }

  Table lat({"application", "LRU (s)", "FIFO (s)", "Random (s)",
             "limited (s)", "FLStore (s)"});
  Table cost({"application", "LRU ($)", "FIFO ($)", "Random ($)",
              "limited ($)", "FLStore ($)"});
  for (const auto type : fed::paper_workloads()) {
    auto cell_lat = [&](const char* label) {
      return fmt(all[label].at(type).latency.mean(), 2);
    };
    auto cell_cost = [&](const char* label) {
      return fmt_usd(all[label].at(type).cost.mean());
    };
    lat.add_row({fed::paper_label(type), cell_lat("FLStore-LRU"),
                 cell_lat("FLStore-FIFO"), cell_lat("FLStore-Random"),
                 cell_lat("FLStore-limited"), cell_lat("FLStore")});
    cost.add_row({fed::paper_label(type), cell_cost("FLStore-LRU"),
                  cell_cost("FLStore-FIFO"), cell_cost("FLStore-Random"),
                  cell_cost("FLStore-limited"), cell_cost("FLStore")});
  }
  std::printf("\nPer-request latency:\n%s", lat.to_string().c_str());
  std::printf("\nPer-request cost:\n%s", cost.to_string().c_str());

  const auto dbg = fed::WorkloadType::kDebugging;
  const double dbg_lru = all["FLStore-LRU"].at(dbg).latency.mean();
  const double dbg_fl = all["FLStore"].at(dbg).latency.mean();
  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("debugging latency reduction vs traditional", 97.15,
                  percent_reduction(dbg_lru, dbg_fl), "%");
  report.headline("debugging absolute reduction", 380.0, dbg_lru - dbg_fl,
                  "s");
  bench::note(
      "Shape check: FLStore <= FLStore-limited << Random < LRU/FIFO on the\n"
      "iterative workloads; even FLStore-limited beats every traditional\n"
      "policy, as in the paper.");
  report.write(args);
  return 0;
}
