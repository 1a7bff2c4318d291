// Future-work extension (§4.4 / Appendix D): adaptive policy selection for
// workloads the Table-1 taxonomy does not know. An epsilon-greedy bandit
// over the four policy classes, rewarded by observed hit rate, must
// converge to the class a taxonomy-aware FLStore would have picked.
//
// Environment: an "unknown" across-round tracking workload (ground truth:
// P3). We replay its trace once per candidate class to get the achievable
// hit rates, then let the bandit learn online.
#include "bench_common.hpp"

#include "core/adaptive_policy.hpp"
#include "core/flstore.hpp"
#include "fed/trace.hpp"

using namespace flstore;

int main() {
  bench::banner("Extension", "Adaptive policy selection for unknown workloads");

  fed::FLJobConfig job_cfg;
  job_cfg.model = "resnet18";
  job_cfg.pool_size = 100;
  job_cfg.clients_per_round = 10;
  job_cfg.rounds = 400;
  fed::FLJob job(job_cfg);

  backend::ObjectStoreBackend cold(sim::objstore_link(),
                                    PricingCatalog::aws());
  {
    core::FLStoreConfig filler_cfg;
    filler_cfg.policy.mode = core::PolicyMode::kLru;
    core::FLStore filler(filler_cfg, job, cold);
    for (RoundId r = 0; r < job_cfg.rounds; ++r) {
      filler.ingest_round(job.make_round(r), static_cast<double>(r));
    }
  }

  // The unknown workload: provenance-style per-client tracking.
  const auto client = job.participants(0).front();
  const auto trace = fed::table2_p3_trace(client, 60, job);

  // Achievable hit rate per forced policy class (post-hoc replay).
  Table table({"forced policy class", "hits", "misses", "hit rate"});
  std::array<double, 4> achievable{};
  for (int c = 0; c < 4; ++c) {
    core::FLStoreConfig cfg;
    cfg.policy.mode = core::PolicyMode::kTailoredStatic;
    cfg.policy.static_class = static_cast<fed::PolicyClass>(c);
    core::FLStore store(cfg, job, cold);
    std::uint64_t hits = 0, misses = 0;
    double t = 1e6;
    for (const auto& req : trace) {
      const auto res = store.serve(req, t);
      hits += res.hits;
      misses += res.misses;
      t += 10.0;
    }
    achievable[static_cast<std::size_t>(c)] =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    const char* names[] = {"P1", "P2", "P3", "P4"};
    table.add_row({names[c], std::to_string(hits), std::to_string(misses),
                   fmt(achievable[static_cast<std::size_t>(c)], 2)});
  }
  std::printf("%s", table.to_string().c_str());

  // Online learning: the bandit pulls a class per request batch and gets
  // the class's achievable hit rate (plus noise) as reward.
  core::AdaptivePolicySelector selector;
  Rng noise(3);
  for (int round = 0; round < 300; ++round) {
    const auto cls = selector.choose();
    const double reward = std::clamp(
        achievable[static_cast<std::size_t>(cls)] + noise.normal(0.0, 0.05),
        0.0, 1.0);
    selector.report(cls, reward);
  }

  const char* names[] = {"P1", "P2", "P3", "P4"};
  std::printf("\nBandit verdict after 300 requests: %s (pulls: ",
              names[static_cast<int>(selector.best())]);
  for (int c = 0; c < 4; ++c) {
    std::printf("%s=%llu ", names[c],
                static_cast<unsigned long long>(
                    selector.pulls(static_cast<fed::PolicyClass>(c))));
  }
  std::printf(")\n");
  sim::print_headline("learned class matches taxonomy (P3=2)", 2.0,
                      static_cast<double>(selector.best()), "");
  return selector.best() == fed::PolicyClass::kP3 ? 0 : 1;
}
