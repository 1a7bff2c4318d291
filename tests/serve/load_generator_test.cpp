// Load generation: the streaming arrival process (determinism, O(1) state,
// population synthesis, availability windows), the weighted tenant draw's
// boundary behaviour, and the materialized path's reserve clamp.
#include "serve/load_generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "fed/fl_job.hpp"

namespace flstore::serve {
namespace {

fed::FLJobConfig small_job(std::uint64_t seed) {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 80;
  cfg.seed = seed;
  return cfg;
}

struct Jobs {
  explicit Jobs(int n) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(
          std::make_unique<fed::FLJob>(small_job(300 + std::uint64_t(i))));
    }
  }
  [[nodiscard]] std::vector<TenantMix> mix(
      std::vector<double> weights = {}) const {
    std::vector<TenantMix> out;
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const double w = i < weights.size() ? weights[i] : 1.0;
      out.push_back(TenantMix{static_cast<JobId>(i), owned[i].get(), w, {}, 3});
    }
    return out;
  }
  std::vector<std::unique_ptr<fed::FLJob>> owned;
};

std::vector<ServiceRequest> drain(ArrivalStream& stream) {
  std::vector<ServiceRequest> out;
  while (auto req = stream.next()) out.push_back(std::move(*req));
  return out;
}

void expect_identical(const std::vector<ServiceRequest>& a,
                      const std::vector<ServiceRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].request.id, b[i].request.id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].request.type, b[i].request.type);
    EXPECT_EQ(a[i].request.round, b[i].request.round);
    EXPECT_EQ(a[i].request.client, b[i].request.client);
    EXPECT_EQ(a[i].request.origin, b[i].request.origin);
    EXPECT_EQ(a[i].request.device_class, b[i].request.device_class);
    EXPECT_DOUBLE_EQ(a[i].request.arrival_s, b[i].request.arrival_s);
  }
}

StreamConfig shaped_config() {
  StreamConfig cfg;
  cfg.rate.base_qps = 1.0;
  cfg.rate.diurnal_amplitude = 0.5;
  cfg.rate.diurnal_period_s = 1800.0;
  cfg.rate.surges.push_back(RateProfile::Surge{600.0, 900.0, 3.0});
  cfg.duration_s = 3600.0;
  cfg.round_interval_s = 30.0;
  cfg.seed = 17;
  cfg.population.clients = 100000;
  cfg.population.zipf_exponent = 1.0;
  cfg.population.device_classes = {
      DeviceClass{"phone", 0.7, 4096, 0.0, 0.0},
      DeviceClass{"sensor", 0.3, 1024, 0.0, 0.0},
  };
  return cfg;
}

// -------------------------------------------------------------------------
// weighted_index boundary behaviour (the draw-at-total bias fix)

TEST(WeightedIndex, PicksFirstSlotWhoseCumulativeExceedsDraw) {
  const std::vector<double> cum = {1.0, 3.0, 6.0};
  EXPECT_EQ(weighted_index(cum, 0.0), 0U);
  EXPECT_EQ(weighted_index(cum, 0.999), 0U);
  EXPECT_EQ(weighted_index(cum, 1.0), 1U);  // boundary goes to the NEXT slot
  EXPECT_EQ(weighted_index(cum, 2.999), 1U);
  EXPECT_EQ(weighted_index(cum, 3.0), 2U);
  EXPECT_EQ(weighted_index(cum, 5.999), 2U);
}

TEST(WeightedIndex, DrawAtTotalClampsToLastSlotInsteadOfFallingOut) {
  // u == total cannot occur from a half-open draw, but floating-point
  // accumulation can produce it; the legacy generator's subtract-walk let
  // that draw fall through past the end.
  const std::vector<double> cum = {1.0, 3.0, 6.0};
  EXPECT_EQ(weighted_index(cum, 6.0), 2U);
  EXPECT_EQ(weighted_index(cum, 7.5), 2U);
}

// -------------------------------------------------------------------------
// Streaming determinism and equivalence with the materialized path

TEST(ArrivalStream, BitIdenticalAcrossRunsForEqualInputs) {
  const Jobs jobs(2);
  const auto cfg = shaped_config();
  ArrivalStream a(cfg, jobs.mix({0.7, 0.3}));
  ArrivalStream b(cfg, jobs.mix({0.7, 0.3}));
  const auto ra = drain(a);
  const auto rb = drain(b);
  ASSERT_GT(ra.size(), 1000U);
  expect_identical(ra, rb);
  EXPECT_EQ(a.emitted(), b.emitted());
  EXPECT_DOUBLE_EQ(a.last_arrival_s(), b.last_arrival_s());
}

TEST(ArrivalStream, ConstantRateStreamMatchesMaterializedTrace) {
  // The legacy constant-rate, no-population config: the streamed sequence
  // must be byte-for-byte what open_loop_trace materializes.
  const Jobs jobs(3);
  StreamConfig cfg;
  cfg.rate.base_qps = 2.0;
  cfg.duration_s = 900.0;
  cfg.round_interval_s = 30.0;
  cfg.seed = 7;
  const auto materialized = open_loop_trace(cfg, jobs.mix());

  ArrivalStream stream(cfg, jobs.mix());
  const auto streamed = drain(stream);

  ASSERT_GT(materialized.size(), 500U);
  expect_identical(materialized, streamed);
}

TEST(ArrivalStream, RealizedTenantMixTracksConfiguredWeights) {
  // Regression for the weighted-draw bias audit: over a long stream the
  // per-tenant share must pin to the configured 60/30/10 split.
  const Jobs jobs(3);
  StreamConfig cfg;
  cfg.rate.base_qps = 4.0;
  cfg.duration_s = 4.0 * 3600.0;
  cfg.round_interval_s = 60.0;
  cfg.seed = 23;
  ArrivalStream stream(cfg, jobs.mix({0.6, 0.3, 0.1}));
  std::map<JobId, double> count;
  const auto all = drain(stream);
  ASSERT_GT(all.size(), 10000U);
  for (const auto& req : all) count[req.tenant] += 1.0;
  const auto total = static_cast<double>(all.size());
  EXPECT_NEAR(count[0] / total, 0.6, 0.03);
  EXPECT_NEAR(count[1] / total, 0.3, 0.03);
  EXPECT_NEAR(count[2] / total, 0.1, 0.03);
}

// -------------------------------------------------------------------------
// O(1) state

TEST(ArrivalStream, StateIsIndependentOfDurationAndPopulationSize) {
  const Jobs jobs(2);
  auto cfg = shaped_config();
  ArrivalStream base(cfg, jobs.mix());

  auto long_cfg = cfg;
  long_cfg.duration_s = 1000.0 * 3600.0;
  ArrivalStream long_run(long_cfg, jobs.mix());
  EXPECT_EQ(base.state_bytes(), long_run.state_bytes());

  auto big_cfg = cfg;
  big_cfg.population.clients = 2'000'000;
  ArrivalStream big_pop(big_cfg, jobs.mix());
  EXPECT_EQ(base.state_bytes(), big_pop.state_bytes());

  // And the footprint stays flat as requests are drawn.
  const auto before = base.state_bytes();
  for (int i = 0; i < 5000; ++i) {
    if (!base.next().has_value()) break;
  }
  EXPECT_EQ(base.state_bytes(), before);
}

// -------------------------------------------------------------------------
// Population synthesis

TEST(ArrivalStream, OriginRanksStayWithinEachClassSpan) {
  const Jobs jobs(1);
  StreamConfig cfg;
  cfg.rate.base_qps = 3.0;
  cfg.duration_s = 3600.0;
  cfg.seed = 5;
  cfg.population.clients = 1000;
  cfg.population.zipf_exponent = 0.8;
  cfg.population.device_classes = {
      DeviceClass{"a", 0.5, 1024, 0.0, 0.0},
      DeviceClass{"b", 0.5, 2048, 0.0, 0.0},
  };
  ArrivalStream stream(cfg, jobs.mix());
  bool saw_a = false, saw_b = false;
  for (const auto& req : drain(stream)) {
    ASSERT_NE(req.request.origin, kNoClient);
    if (req.request.device_class == 0) {
      saw_a = true;
      EXPECT_GE(req.request.origin, 0);
      EXPECT_LT(req.request.origin, 500);
    } else {
      saw_b = true;
      ASSERT_EQ(req.request.device_class, 1);
      EXPECT_GE(req.request.origin, 500);
      EXPECT_LT(req.request.origin, 1000);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(ArrivalStream, AvailabilityWindowsGateIssuingClasses) {
  const Jobs jobs(1);
  StreamConfig cfg;
  cfg.rate.base_qps = 2.0;
  cfg.duration_s = 4000.0;
  cfg.seed = 11;
  cfg.population.clients = 10000;
  cfg.population.availability_period_s = 1000.0;
  cfg.population.device_classes = {
      DeviceClass{"day", 1.0, 1024, 0.0, 600.0},
      DeviceClass{"night", 1.0, 1024, 600.0, 1000.0},
  };
  ArrivalStream stream(cfg, jobs.mix());
  const auto all = drain(stream);
  ASSERT_GT(all.size(), 1000U);
  for (const auto& req : all) {
    const double pos = std::fmod(req.request.arrival_s, 1000.0);
    if (req.request.device_class == 0) {
      EXPECT_LT(pos, 600.0);
    } else {
      EXPECT_GE(pos, 600.0);
    }
  }
}

TEST(ArrivalStream, ArrivalsSuppressedWhileNoClassIsAvailable) {
  const Jobs jobs(1);
  StreamConfig cfg;
  cfg.rate.base_qps = 2.0;
  cfg.duration_s = 5000.0;
  cfg.seed = 13;
  cfg.population.clients = 1000;
  cfg.population.availability_period_s = 1000.0;
  // On duty only the first 10% of each period: the offered process itself
  // must go quiet for the other 90%.
  cfg.population.device_classes = {
      DeviceClass{"duty", 1.0, 1024, 0.0, 100.0},
  };
  ArrivalStream stream(cfg, jobs.mix());
  const auto all = drain(stream);
  ASSERT_GT(all.size(), 100U);
  for (const auto& req : all) {
    EXPECT_LT(std::fmod(req.request.arrival_s, 1000.0), 100.0);
  }
}

TEST(ArrivalStream, PopulationBeyondClientIdSpaceThrows) {
  const Jobs jobs(1);
  StreamConfig cfg;
  cfg.population.clients = std::int64_t{1} << 40;
  EXPECT_THROW((ArrivalStream(cfg, jobs.mix())), InvalidArgument);
}

// -------------------------------------------------------------------------
// Time-varying rates

TEST(RateProfile, SurgeAndDiurnalComposeAndPeakBounds) {
  RateProfile rate;
  rate.base_qps = 2.0;
  rate.diurnal_amplitude = 0.5;
  rate.diurnal_period_s = 400.0;
  rate.surges.push_back(RateProfile::Surge{100.0, 200.0, 4.0});
  EXPECT_FALSE(rate.constant());
  // Peak of the sinusoid is at period/4 = 100 s, inside the surge window.
  EXPECT_DOUBLE_EQ(rate.rate_at(100.0), 2.0 * 1.5 * 4.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(250.0), 2.0 * (1.0 + 0.5 * std::sin(
                                                  2.0 * std::numbers::pi *
                                                  250.0 / 400.0)));
  const double peak = rate.peak_qps();
  for (double t = 0.0; t < 800.0; t += 1.0) {
    EXPECT_LE(rate.rate_at(t), peak + 1e-12);
  }
}

TEST(ArrivalStream, SurgeWindowCarriesProportionallyMoreArrivals) {
  const Jobs jobs(1);
  StreamConfig cfg;
  cfg.rate.base_qps = 1.0;
  cfg.rate.surges.push_back(RateProfile::Surge{1000.0, 2000.0, 5.0});
  cfg.duration_s = 4000.0;
  cfg.seed = 29;
  ArrivalStream stream(cfg, jobs.mix());
  double in_surge = 0.0, outside = 0.0;
  for (const auto& req : drain(stream)) {
    const double t = req.request.arrival_s;
    (t >= 1000.0 && t < 2000.0 ? in_surge : outside) += 1.0;
  }
  // 1000 s at 5 qps vs 3000 s at 1 qps: realized ratio of *rates* ~5x.
  const double surge_rate = in_surge / 1000.0;
  const double calm_rate = outside / 3000.0;
  EXPECT_GT(surge_rate / calm_rate, 3.5);
  EXPECT_LT(surge_rate / calm_rate, 6.5);
}

// -------------------------------------------------------------------------
// Reserve clamp (the materialized path's overflow bugfix)

TEST(OpenLoopTrace, ReserveHintClampedAndCastSafe) {
  // Small sweeps keep the exact expected-count hint...
  EXPECT_EQ(trace_reserve_hint(2.0, 600.0),
            static_cast<std::size_t>(2.0 * 600.0 * 1.1));
  // ...huge sweeps clamp instead of reserving gigabytes...
  EXPECT_EQ(trace_reserve_hint(1e6, 1e6), std::size_t{1} << 20);
  // ...and a product beyond size_t range must not overflow the cast.
  EXPECT_EQ(trace_reserve_hint(1e30, 1e30), std::size_t{1} << 20);
  EXPECT_EQ(trace_reserve_hint(0.0, 0.0), 0U);
}

}  // namespace
}  // namespace flstore::serve
