// Quickstart: stand up FLStore next to a running FL job and serve a few
// non-training requests, printing latency/cost against what the same
// requests cost on a conventional object-store aggregator.
//
//   ./examples/quickstart
#include <cstdio>

#include "backend/object_store_backend.hpp"
#include "baselines/aggregator_baseline.hpp"
#include "common/table.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "sim/calibration.hpp"

using namespace flstore;

int main() {
  // 1. An FL training job: 10 of 250 clients per round, EfficientNetV2-S.
  fed::FLJobConfig job_cfg;
  job_cfg.model = "efficientnet_v2_s";
  job_cfg.pool_size = 250;
  job_cfg.clients_per_round = 10;
  job_cfg.rounds = 50;
  fed::FLJob job(job_cfg);

  // 2. A persistent data plane (S3/MinIO-like) shared by every system.
  backend::ObjectStoreBackend cold(sim::objstore_link(), PricingCatalog::aws());

  // 3. FLStore with default tailored policies, and the ObjStore-Agg
  //    baseline for comparison.
  core::FLStore store(core::FLStoreConfig{}, job, cold);
  baselines::ObjStoreAggregator baseline(sim::vm_profile(), job, cold);

  // 4. Stream training rounds in (one per 180 s of virtual time).
  double now = 0.0;
  for (RoundId r = 0; r < job_cfg.rounds; ++r) {
    const auto record = job.make_round(r);
    store.ingest_round(record, now);
    baseline.ingest_round(record, now);
    now += 180.0;
  }

  // 5. Serve a few non-training requests against the freshest round.
  const RoundId latest = job_cfg.rounds - 1;
  const auto tracked = job.participants(latest).front();
  const fed::NonTrainingRequest requests[] = {
      {1, fed::WorkloadType::kMaliciousFilter, latest, kNoClient, now},
      {2, fed::WorkloadType::kClustering, latest, kNoClient, now + 1},
      {3, fed::WorkloadType::kInference, latest, kNoClient, now + 2},
      {4, fed::WorkloadType::kReputation, latest, tracked, now + 3},
  };

  Table table({"workload", "FLStore lat (s)", "ObjStore-Agg lat (s)",
               "FLStore cost", "ObjStore-Agg cost", "result"});
  for (const auto& req : requests) {
    const auto mine = store.serve(req, req.arrival_s);
    auto base_req = req;
    base_req.id += 100;
    const auto theirs = baseline.serve(base_req, req.arrival_s);
    table.add_row({fed::paper_label(req.type), fmt(mine.latency_s, 2),
                   fmt(theirs.latency_s, 2), fmt_usd(mine.cost_usd),
                   fmt_usd(theirs.cost_usd), mine.output.summary});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nFLStore served every request from function memory next to the\n"
      "compute (hits: %llu, misses: %llu); the baseline shipped ~%.1f GB\n"
      "across the network instead.\n",
      static_cast<unsigned long long>(store.engine().hits()),
      static_cast<unsigned long long>(store.engine().misses()),
      units::to_gb(4 * 10 * job.model().object_bytes));
  return 0;
}
