#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/report.hpp"

namespace flstore::sim {
namespace {

/// A ServingSystem that records every call run_trace makes, in order, and
/// serves each request in a fixed kServiceS of communication. With a
/// `journal`, it also notes each call there as "<name>: <call>", so several
/// systems can share one ordered record.
class RecordingSystem final : public core::ServingSystem {
 public:
  static constexpr double kServiceS = 10.0;

  explicit RecordingSystem(std::string name = "recording",
                           std::vector<std::string>* journal = nullptr)
      : name_(std::move(name)), journal_(journal) {}

  void ingest_round(const fed::RoundRecord& record, double now) override {
    ingests.emplace_back(record.round, now);
    note("ingest " + std::to_string(record.round));
  }
  core::ServeResult serve(const fed::NonTrainingRequest& req,
                          double now) override {
    serve_times.push_back(now);
    note("request " + std::to_string(req.id));
    core::ServeResult res;
    res.comm_s = kServiceS;
    res.latency_s = kServiceS;
    return res;
  }
  [[nodiscard]] double infrastructure_cost(double seconds) const override {
    (void)seconds;
    return 0.0;
  }
  [[nodiscard]] std::string name() const override { return name_; }
  bool inject_fault(std::int32_t function_rank) override {
    faults.push_back(function_rank);
    note("fault " + std::to_string(function_rank));
    return false;
  }

  std::vector<std::pair<RoundId, double>> ingests;
  std::vector<std::int32_t> faults;
  std::vector<double> serve_times;
  std::vector<std::string> log;

 private:
  void note(const std::string& call) {
    log.push_back(call);
    if (journal_ != nullptr) journal_->push_back(name_ + ": " + call);
  }

  std::string name_;
  std::vector<std::string>* journal_;
};

fed::FLJob tiny_job(RoundId rounds) {
  fed::FLJobConfig cfg;
  cfg.model = "mobilenet_v3_small";
  cfg.pool_size = 6;
  cfg.clients_per_round = 2;
  cfg.rounds = rounds;
  cfg.seed = 3;
  return fed::FLJob(cfg);
}

fed::NonTrainingRequest request_at(RequestId id, double arrival_s) {
  return {id, fed::WorkloadType::kInference, 0, kNoClient, arrival_s};
}

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.model = "mobilenet_v3_small";
  cfg.pool_size = 40;
  cfg.clients_per_round = 6;
  cfg.rounds = 40;
  cfg.duration_s = 2000.0;
  cfg.total_requests = 120;
  cfg.round_interval_s = 50.0;
  cfg.seed = 31;
  return cfg;
}

TEST(Runner, TraceReplayProducesRecordsForAllRequests) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  const auto run =
      run_trace({&sc.flstore()}, sc.job(), trace, 2000.0, 50.0).front();
  EXPECT_EQ(run.records.size(), trace.size());
  EXPECT_EQ(run.system, "FLStore");
  EXPECT_GT(run.infrastructure_usd, 0.0);
}

TEST(Runner, FLStoreDominatesObjStoreAggOnLatency) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  const auto runs = run_trace({&sc.flstore(), &sc.objstore_agg()}, sc.job(),
                              trace, 2000.0, 50.0);
  const auto& fl_run = runs[0];
  const auto& base_run = runs[1];
  // Headline: >50% average per-request latency reduction (paper: 71%).
  EXPECT_LT(fl_run.total_latency_s(), base_run.total_latency_s() * 0.5);
  // And the baseline is communication-bound (§2.3).
  EXPECT_GT(base_run.total_comm_s(), base_run.total_comp_s() * 5.0);
}

TEST(Runner, FLStoreHitRateNearPerfect) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  const auto run =
      run_trace({&sc.flstore()}, sc.job(), trace, 2000.0, 50.0).front();
  const auto hits = run.total_hits();
  const auto misses = run.total_misses();
  ASSERT_GT(hits + misses, 0U);
  const double rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  EXPECT_GT(rate, 0.9);
}

TEST(Runner, DeterministicAcrossRuns) {
  const auto once = [] {
    Scenario sc(small_scenario());
    return run_trace({&sc.flstore()}, sc.job(), sc.trace(), 2000.0, 50.0)
        .front();
  };
  const auto a = once();
  const auto b = once();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].latency_s(), b.records[i].latency_s());
    EXPECT_DOUBLE_EQ(a.records[i].cost_usd, b.records[i].cost_usd);
  }
}

TEST(Runner, BoundedServersIntroduceQueueing) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  const auto open =
      run_trace({&sc.objstore_agg()}, sc.job(), trace, 2000.0, 50.0).front();

  Scenario sc2(small_scenario());
  RunnerOptions opts;
  opts.servers = 1;
  const auto queued = run_trace({&sc2.objstore_agg()}, sc2.job(), trace,
                                2000.0, 50.0, opts)
                          .front();

  double open_queue = 0.0, q_queue = 0.0;
  for (const auto& r : open.records) open_queue += r.queue_s;
  for (const auto& r : queued.records) q_queue += r.queue_s;
  EXPECT_DOUBLE_EQ(open_queue, 0.0);
  EXPECT_GT(q_queue, 0.0);
}

TEST(Runner, FaultsDegradeSingleReplicaFLStore) {
  ScenarioConfig cfg = small_scenario();
  Scenario healthy(cfg);
  Scenario faulty(cfg);
  const auto trace = healthy.trace();
  const auto ok =
      run_trace({&healthy.flstore()}, healthy.job(), trace, 2000.0, 50.0)
          .front();

  Rng rng(5);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 40.0;
  fic.population = 8;
  RunnerOptions opts;
  opts.faults = generate_fault_schedule(fic, 2000.0, rng);
  const auto bad = run_trace({&faulty.flstore()}, faulty.job(), trace, 2000.0,
                             50.0, opts)
                       .front();

  EXPECT_GT(bad.total_latency_s(), ok.total_latency_s());
}

TEST(Runner, ReplicasAbsorbFaults) {
  ScenarioConfig cfg = small_scenario();
  cfg.replicas = 3;
  Scenario sc(cfg);
  const auto trace = sc.trace();
  Rng rng(5);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 40.0;
  fic.population = 8;
  RunnerOptions opts;
  opts.faults = generate_fault_schedule(fic, 2000.0, rng);
  const auto run =
      run_trace({&sc.flstore()}, sc.job(), trace, 2000.0, 50.0, opts).front();
  // With 3 replicas the hit rate stays high despite the fault storm.
  const double rate =
      static_cast<double>(run.total_hits()) /
      static_cast<double>(run.total_hits() + run.total_misses());
  EXPECT_GT(rate, 0.85);
}

TEST(Runner, IngestsRoundsUpToDurationOverInterval) {
  const auto job = tiny_job(10);
  RecordingSystem sys;
  // floor(1000 / 300) = 3: rounds 0-3 finish inside the run, round 4
  // (due at 1200 s) does not.
  (void)run_trace({&sys}, job, {}, 1000.0, 300.0);
  const std::vector<std::pair<RoundId, double>> expected{
      {0, 0.0}, {1, 300.0}, {2, 600.0}, {3, 900.0}};
  EXPECT_EQ(sys.ingests, expected);
}

TEST(Runner, LatestRoundCapsIngestedRounds) {
  const auto job = tiny_job(3);  // latest_round() == 2
  RecordingSystem sys;
  (void)run_trace({&sys}, job, {}, 1000.0, 100.0);
  ASSERT_EQ(sys.ingests.size(), 3U);
  EXPECT_EQ(sys.ingests.back().first, 2);
}

TEST(Runner, SameInstantRunsIngestThenFaultThenRequest) {
  const auto job = tiny_job(10);
  RecordingSystem sys;
  RunnerOptions opts;
  opts.faults.push_back(FaultEvent{300.0, 4});
  (void)run_trace({&sys}, job, {request_at(1, 300.0)}, 300.0, 300.0, opts);
  const std::vector<std::string> expected{"ingest 0", "ingest 1", "fault 4",
                                          "request 1"};
  EXPECT_EQ(sys.log, expected);
}

TEST(Runner, FaultEventsReachTheSystem) {
  const auto job = tiny_job(10);
  RecordingSystem sys;
  RunnerOptions opts;
  opts.faults = {FaultEvent{10.0, 7}, FaultEvent{20.0, 3}};
  (void)run_trace({&sys}, job, {}, 100.0, 100.0, opts);
  EXPECT_EQ(sys.faults, (std::vector<std::int32_t>{7, 3}));
}

TEST(Runner, SingleServerQueuesSecondRequestUntilFirstCompletes) {
  const auto job = tiny_job(10);
  RecordingSystem sys;
  RunnerOptions opts;
  opts.servers = 1;
  const std::vector<fed::NonTrainingRequest> trace{request_at(1, 0.0),
                                                   request_at(2, 1.0)};
  const auto run = run_trace({&sys}, job, trace, 100.0, 100.0, opts).front();
  // The second request arrives at 1 s but starts when the first completes.
  EXPECT_EQ(sys.serve_times,
            (std::vector<double>{0.0, RecordingSystem::kServiceS}));
  ASSERT_EQ(run.records.size(), 2U);
  EXPECT_DOUBLE_EQ(run.records[0].queue_s, 0.0);
  EXPECT_DOUBLE_EQ(run.records[1].queue_s, RecordingSystem::kServiceS - 1.0);
}

TEST(Runner, LockStepRunsEachEventOnEverySystemInTurn) {
  const auto job = tiny_job(10);
  std::vector<std::string> journal;
  RecordingSystem a("a", &journal);
  RecordingSystem b("b", &journal);
  RunnerOptions opts;
  opts.faults.push_back(FaultEvent{300.0, 4});
  const auto runs =
      run_trace({&a, &b}, job, {request_at(1, 300.0)}, 300.0, 300.0, opts);
  const std::vector<std::string> expected{
      "a: ingest 0", "b: ingest 0", "a: ingest 1",  "b: ingest 1",
      "a: fault 4",  "b: fault 4",  "a: request 1", "b: request 1"};
  EXPECT_EQ(journal, expected);
  ASSERT_EQ(runs.size(), 2U);
  EXPECT_EQ(runs[0].system, "a");
  EXPECT_EQ(runs[1].system, "b");
}

TEST(Runner, RejectsAnEmptyNullOrRepeatedSystemList) {
  const auto job = tiny_job(3);
  RecordingSystem a;
  RecordingSystem b;
  EXPECT_THROW((void)run_trace({}, job, {}, 100.0, 100.0), InvalidArgument);
  EXPECT_THROW((void)run_trace({&a, nullptr}, job, {}, 100.0, 100.0),
               InvalidArgument);
  EXPECT_THROW((void)run_trace({&a, &b, &a}, job, {}, 100.0, 100.0),
               InvalidArgument);
  EXPECT_TRUE(a.log.empty());
  EXPECT_TRUE(b.log.empty());
}

/// One comparison over small_scenario(): FLStore (tailored), an LRU FLStore
/// capped at four objects so its misses reach the cold tier, ObjStore-Agg
/// and Cache-Agg.
struct Comparison {
  Comparison()
      : cold(sc.make_cold_backend(backend::BackendKind::kObjectStore)),
        lru(sc.make_flstore_over(*cold, core::PolicyMode::kLru,
                                 4 * sc.job().model().object_bytes)) {}

  [[nodiscard]] std::vector<core::ServingSystem*> systems() {
    return {&sc.flstore(), lru.get(), &sc.objstore_agg(), &sc.cache_agg()};
  }

  Scenario sc{small_scenario()};
  std::unique_ptr<backend::StorageBackend> cold;
  std::unique_ptr<core::FLStore> lru;
};

/// Each system's lock-step result equals its one-system run on a fresh
/// comparison, record for record.
void expect_lock_step_matches_solo_runs(const RunnerOptions& opts) {
  Comparison together;
  const auto trace = together.sc.trace();
  const auto runs =
      run_trace(together.systems(), together.sc.job(), trace, 2000.0, 50.0,
                opts);
  ASSERT_EQ(runs.size(), 4U);
  EXPECT_GT(runs[1].total_misses(), 0U);
  if (opts.servers > 0) {
    double queued_s = 0.0;
    for (const auto& run : runs) {
      for (const auto& rec : run.records) queued_s += rec.queue_s;
    }
    EXPECT_GT(queued_s, 0.0);  // the pools were contended
  }
  for (std::size_t s = 0; s < runs.size(); ++s) {
    Comparison alone;
    const auto solo = run_trace({alone.systems()[s]}, alone.sc.job(), trace,
                                2000.0, 50.0, opts)
                          .front();
    SCOPED_TRACE("system " + std::to_string(s) + " " + solo.system);
    const auto& run = runs[s];
    EXPECT_EQ(run.system, solo.system);
    EXPECT_EQ(run.duration_s, solo.duration_s);
    EXPECT_EQ(run.infrastructure_usd, solo.infrastructure_usd);
    ASSERT_EQ(run.records.size(), solo.records.size());
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      SCOPED_TRACE("record " + std::to_string(i));
      const auto& a = run.records[i];
      const auto& b = solo.records[i];
      EXPECT_EQ(a.request.id, b.request.id);
      EXPECT_EQ(a.request.type, b.request.type);
      EXPECT_EQ(a.request.round, b.request.round);
      EXPECT_EQ(a.request.client, b.request.client);
      EXPECT_EQ(a.request.arrival_s, b.request.arrival_s);
      EXPECT_EQ(a.request.origin, b.request.origin);
      EXPECT_EQ(a.request.device_class, b.request.device_class);
      EXPECT_EQ(a.queue_s, b.queue_s);
      EXPECT_EQ(a.comm_s, b.comm_s);
      EXPECT_EQ(a.comp_s, b.comp_s);
      EXPECT_EQ(a.cost_usd, b.cost_usd);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.misses, b.misses);
    }
  }
}

TEST(Runner, LockStepMatchesOneSystemRunsUnderFaults) {
  Rng rng(5);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 40.0;
  fic.population = 8;
  RunnerOptions opts;
  opts.faults = generate_fault_schedule(fic, 2000.0, rng);
  ASSERT_FALSE(opts.faults.empty());
  expect_lock_step_matches_solo_runs(opts);
}

TEST(Runner, LockStepMatchesOneSystemRunsOnBoundedServers) {
  RunnerOptions opts;
  opts.servers = 2;
  expect_lock_step_matches_solo_runs(opts);
}

TEST(Report, ByWorkloadCoversTraceMix) {
  Scenario sc(small_scenario());
  const auto run =
      run_trace({&sc.flstore()}, sc.job(), sc.trace(), 2000.0, 50.0).front();
  const auto grouped = by_workload(run);
  EXPECT_GE(grouped.size(), 5U);
  std::size_t total = 0;
  for (const auto& [type, stats] : grouped) total += stats.latency.size();
  EXPECT_EQ(total, run.records.size());
}

TEST(Report, QuartileCellFormat) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const auto cell = quartile_cell(s, 1);
  EXPECT_NE(cell.find("50.5"), std::string::npos);
  EXPECT_NE(cell.find("["), std::string::npos);
  EXPECT_EQ(quartile_cell(SampleSet{}), "-");
}

TEST(Scenario, VariantFactoryProducesConfiguredStores) {
  Scenario sc(small_scenario());
  auto cold = sc.make_cold_backend(backend::BackendKind::kObjectStore);
  auto lru = sc.make_flstore_over(*cold, core::PolicyMode::kLru);
  EXPECT_EQ(lru->config().policy.mode, core::PolicyMode::kLru);
  auto limited = sc.make_flstore_over(*cold, core::PolicyMode::kTailored,
                                      100 * units::MB);
  EXPECT_EQ(limited->config().cache_capacity, 100 * units::MB);
}

// Every system is its own deployment: what ObjStore-Agg ingests lands in
// its own bucket, not in FLStore's or in a freshly built one.
TEST(Scenario, SystemsDoNotShareBuckets) {
  Scenario sc(small_scenario());
  (void)run_trace({&sc.objstore_agg()}, sc.job(), sc.trace(), 2000.0, 50.0);
  EXPECT_EQ(sc.cold_backend().stored_logical_bytes(), 0U);
  EXPECT_EQ(sc.make_cold_backend(backend::BackendKind::kObjectStore)
                ->stored_logical_bytes(),
            0U);
}

// FLStore prefetches up to the job's round directory, guarded only by what
// its cold tier holds; a baseline that ran first must not have filled that
// tier with rounds not yet trained at FLStore's sim time. The paper
// scenario at 5% scale, in fig10's order (ObjStore-Agg first).
TEST(Scenario, FLStoreAfterBaselineMatchesFLStoreAlone) {
  ScenarioConfig cfg;
  cfg.model = "efficientnet_v2_s";
  cfg.rounds = 50;
  cfg.duration_s = kTraceDurationS * 0.05;
  cfg.total_requests = 150;
  Scenario after(cfg);
  Scenario alone(cfg);
  const auto trace = after.trace();
  (void)run_trace({&after.objstore_agg()}, after.job(), trace, cfg.duration_s,
                  cfg.round_interval_s);
  const auto a = run_trace({&after.flstore()}, after.job(), trace,
                           cfg.duration_s, cfg.round_interval_s)
                     .front();
  const auto b = run_trace({&alone.flstore()}, alone.job(), trace,
                           cfg.duration_s, cfg.round_interval_s)
                     .front();
  ASSERT_EQ(a.records.size(), b.records.size());
  ASSERT_GT(a.records.size(), 100U);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.records[i].request.id, b.records[i].request.id);
    EXPECT_EQ(a.records[i].comm_s, b.records[i].comm_s);
    EXPECT_EQ(a.records[i].comp_s, b.records[i].comp_s);
    EXPECT_EQ(a.records[i].cost_usd, b.records[i].cost_usd);
    EXPECT_EQ(a.records[i].hits, b.records[i].hits);
    EXPECT_EQ(a.records[i].misses, b.records[i].misses);
  }
}

}  // namespace
}  // namespace flstore::sim
