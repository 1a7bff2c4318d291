// The FL job the workload tests run against, with helpers that build
// requests and inputs for it.
#pragma once

#include "fed/fl_job.hpp"
#include "workloads/workload.hpp"

namespace flstore::workloads {

/// 10 of 60 clients per round for 40 rounds, a tenth of them malicious.
inline fed::FLJobConfig workload_job_config(const char* model) {
  fed::FLJobConfig cfg;
  cfg.model = model;
  cfg.pool_size = 60;
  cfg.clients_per_round = 10;
  cfg.rounds = 40;
  cfg.malicious_fraction = 0.1;
  cfg.seed = 2024;
  return cfg;
}

/// Mixed into the gtest fixtures: one job on `model`.
class WorkloadJob {
 protected:
  explicit WorkloadJob(const char* model) : job_(workload_job_config(model)) {}

  [[nodiscard]] fed::NonTrainingRequest request(
      fed::WorkloadType type, RoundId round,
      ClientId client = kNoClient) const {
    fed::NonTrainingRequest req;
    req.id = 1;
    req.type = type;
    req.round = round;
    req.client = client;
    return req;
  }

  [[nodiscard]] WorkloadInput materialize(
      const fed::NonTrainingRequest& req) const {
    return input_from_job(job_, req);
  }

  fed::FLJob job_;
};

}  // namespace flstore::workloads
