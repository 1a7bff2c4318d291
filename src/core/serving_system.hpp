// ServingSystem — the one contract FLStore and the paper's two aggregator
// baselines (ObjStore-Agg, Cache-Agg) serve through.
//
// sim::run_trace drives any ServingSystem on the discrete-event clock: it
// streams training rounds in, replays the request trace, and books the
// always-on fees. All three systems run the same workloads through the same
// runner, so every gap between them in the paper figures is the data path's.
#pragma once

#include <cstdint>
#include <string>

#include "common/ids.hpp"
#include "fed/metadata.hpp"
#include "fed/request.hpp"
#include "workloads/workload.hpp"

namespace flstore::core {

struct ServeResult {
  double latency_s = 0.0;  ///< comm_s + comp_s
  double comm_s = 0.0;     ///< routing, data fetches, failover, waits
  double comp_s = 0.0;     ///< workload execution (function or VM)
  double cost_usd = 0.0;   ///< compute time + store request fees
  std::size_t hits = 0;    ///< data needs served from the system's cache
  std::size_t misses = 0;
  workloads::WorkloadOutput output;
  FunctionId executed_on = kNoFunction;  ///< the serving function, if any
};

class ServingSystem {
 public:
  ServingSystem() = default;
  virtual ~ServingSystem() = default;
  ServingSystem(const ServingSystem&) = delete;
  ServingSystem& operator=(const ServingSystem&) = delete;

  /// Stream a finished training round in at simulated time `now`.
  virtual void ingest_round(const fed::RoundRecord& record, double now) = 0;

  /// Serve one non-training request at simulated time `now`.
  virtual ServeResult serve(const fed::NonTrainingRequest& req,
                            double now) = 0;

  /// Always-on fees (VMs, provisioned nodes, keep-alive, storage) for an
  /// interval of `seconds`.
  [[nodiscard]] virtual double infrastructure_cost(double seconds) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Reclaim the rank-th function instance (Zipf fault injection). Returns
  /// true if a whole replica group died with it. Systems without
  /// reclaimable instances ignore the fault.
  virtual bool inject_fault(std::int32_t function_rank) {
    (void)function_rank;
    return false;
  }
};

}  // namespace flstore::core
