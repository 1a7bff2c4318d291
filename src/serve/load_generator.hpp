// Arrival-process generation for the serving plane.
//
// Open loop: a Poisson process at a configured offered QPS, split across a
// multi-tenant mix by weight — arrivals never wait for completions, which
// is what exposes queueing collapse when offered load exceeds capacity.
// Request *content* (workload type, target round, tracked client) comes
// from fed::TraceSampler, so the serving plane stresses exactly the §5.2
// request population the paper's figures use.
//
// Two generation modes share one sampling core:
//  * ArrivalStream is the pull-based streaming generator: O(1) state in
//    trace length and population size, one request per next() call. Time-
//    varying rates (diurnal cycles, flash-crowd surges) come from a
//    non-homogeneous Poisson process via thinning; 1M+-client populations
//    are synthesized without per-client state (rejection-inversion Zipf
//    over client ranks, device classes with availability windows).
//  * open_loop_trace materializes a bounded stream into a vector for the
//    callers that replay or window a trace; it is bit-identical to what the
//    stream yields (regression-tested).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fed/fl_job.hpp"
#include "fed/request.hpp"
#include "fed/trace.hpp"

namespace flstore::serve {

/// One tenant's slice of the offered load.
struct TenantMix {
  JobId tenant = 0;
  const fed::FLJob* job = nullptr;           ///< must outlive the generator
  double weight = 1.0;                       ///< share of total offered QPS
  std::vector<fed::WorkloadType> workloads;  ///< empty = the paper's ten
  std::size_t tracked_clients = 5;
};

/// A request addressed to a tenant (the serving plane's routing input).
struct ServiceRequest {
  JobId tenant = 0;
  fed::NonTrainingRequest request;
};

/// Offered rate as a function of simulated time: a base QPS, an optional
/// diurnal sinusoid, and step surges (flash crowds). rate_at() is exact and
/// peak_qps() is an analytic upper bound, which is all thinning needs.
struct RateProfile {
  double base_qps = 1.0;
  /// Diurnal swing as a fraction of base in [0, 1): rate oscillates between
  /// base*(1-A) and base*(1+A) with the peak at phase_s + period/4.
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 24.0 * 3600.0;
  double diurnal_phase_s = 0.0;
  /// Multiplicative step surge over [start_s, end_s) — a model release, a
  /// press mention. Overlapping surges multiply.
  struct Surge {
    double start_s = 0.0;
    double end_s = 0.0;
    double multiplier = 1.0;
  };
  std::vector<Surge> surges;

  /// Offered QPS at simulated time `t`.
  [[nodiscard]] double rate_at(double t) const;
  /// Upper bound on rate_at over all t (the thinning envelope).
  [[nodiscard]] double peak_qps() const;
  /// True when rate_at is the same for all t — the legacy constant-rate
  /// Poisson process, generated without thinning draws so materialized
  /// traces stay bit-identical to the pre-streaming generator.
  [[nodiscard]] bool constant() const noexcept {
    return diurnal_amplitude == 0.0 && surges.empty();
  }
};

/// One class of issuing devices (smartphone, gateway, sensor, ...) — the
/// FL IoT/edge survey's heterogeneity axes collapsed to what the cache
/// plane can observe: population share, payload scale, and an availability
/// window (devices charge at night, sensors report on duty cycles).
struct DeviceClass {
  std::string name = "default";
  double weight = 1.0;            ///< share of the client population
  units::Bytes payload_bytes = 0; ///< per-request payload hint (reporting)
  /// Availability window within the repeating period: the class issues
  /// requests only while t mod period falls in [active_start_s,
  /// active_end_s) (wrapping when start > end). start == end = always on.
  double active_start_s = 0.0;
  double active_end_s = 0.0;
};

/// Synthesizes a large population of distinct clients with no per-client
/// state: popularity is Zipf over client ranks (heavy users dominate, the
/// standard fit for user-facing request popularity), device class is drawn
/// by weight among the classes available at arrival time, and the issuing
/// rank is drawn within that class's rank space. Memory is O(classes), so
/// clients can be millions (to int32 range — ClientId is the wire type; the
/// Zipf machinery itself is int64-clean, see ZipfSampler).
struct PopulationConfig {
  std::int64_t clients = 0;  ///< 0 = population model off
  double zipf_exponent = 0.9;
  double availability_period_s = 24.0 * 3600.0;
  std::vector<DeviceClass> device_classes;  ///< empty = one always-on class
};

/// Full configuration of one streamed arrival process.
struct StreamConfig {
  RateProfile rate;
  double duration_s = 3600.0;
  double round_interval_s = 180.0;  ///< training pace behind the requests
  std::uint64_t seed = 99;
  PopulationConfig population;
};

/// Pull-based arrival generator: next() yields requests in arrival order,
/// one at a time, in O(1) memory — state is the RNG, one clock, and the
/// per-tenant content samplers (state_bytes() reports the exact footprint;
/// it does not grow with duration, rate, or population size).
///
/// Deterministic in (config, mix): two streams built from equal inputs
/// yield bit-identical request sequences. ShardedStore's streaming serve
/// exploits this by giving every tenant timeline its own replica of the
/// stream and keeping only that tenant's arrivals — the filtered replays
/// partition the one shared sequence exactly as a materialized trace would.
class ArrivalStream {
 public:
  /// Jobs named by `mix` must outlive the stream.
  ArrivalStream(const StreamConfig& config, const std::vector<TenantMix>& mix);

  /// The next request, or nullopt once the configured duration is covered.
  [[nodiscard]] std::optional<ServiceRequest> next();

  /// Requests yielded so far.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  /// Arrival time of the most recent request (0 before the first).
  [[nodiscard]] double last_arrival_s() const noexcept {
    return last_arrival_s_;
  }
  /// The device-class table resolved from the config (the population's
  /// classes, or the implicit single always-on class).
  [[nodiscard]] const std::vector<DeviceClass>& device_classes() const noexcept {
    return classes_;
  }
  /// Heap + inline footprint in bytes — the streamed-generation memory
  /// bound the scenario bench asserts (O(tenants + device classes), never
  /// O(requests) or O(clients)).
  [[nodiscard]] std::size_t state_bytes() const noexcept;

 private:
  /// Advance the arrival clock to the next accepted event (exact Poisson
  /// when the profile is constant; thinning against peak_qps otherwise).
  void advance_clock();

  StreamConfig config_;
  std::vector<JobId> tenants_;
  std::vector<double> cum_weight_;  ///< cumulative tenant weights
  std::vector<fed::TraceSampler> samplers_;
  std::vector<DeviceClass> classes_;
  std::vector<double> cum_class_weight_;
  std::vector<std::int64_t> class_rank_base_;  ///< rank-space split points
  std::vector<ZipfSampler> class_zipf_;  ///< per-class popularity samplers
  Rng rng_;
  double t_ = 0.0;
  RequestId next_id_ = 1;
  std::uint64_t emitted_ = 0;
  double last_arrival_s_ = 0.0;
};

/// Index into a cumulative weight vector for a draw u in [0, total): the
/// first slot whose cumulative weight strictly exceeds u, clamped to the
/// last slot so a draw that rounds to exactly the total cannot fall out of
/// range (and cannot bias the last slot beyond its weight — the draw is
/// half-open, so u == total never occurs analytically; the clamp guards
/// floating-point accumulation only). Exposed for the boundary tests.
[[nodiscard]] std::size_t weighted_index(const std::vector<double>& cumulative,
                                         double u);

/// open_loop_trace's pre-allocation hint: the expected request count plus
/// 10% slack, clamped so a high-QPS long-duration sweep can neither reserve
/// gigabytes up front nor overflow the double -> size_t cast (the clamp
/// compares in the double domain first). Exposed for the regression test.
[[nodiscard]] std::size_t trace_reserve_hint(double offered_qps,
                                             double duration_s) noexcept;

/// The arrivals of `config` over the tenant mix, sorted by arrival time
/// with globally unique ids. Deterministic in (config, mix).
///
/// Materializes an ArrivalStream, so it is byte-for-byte the streamed
/// sequence; the reserve hint (from the peak rate) is clamped (the expected
/// count can be huge or overflow a size_t for large sweeps — those should
/// consume the stream directly instead of materializing).
[[nodiscard]] std::vector<ServiceRequest> open_loop_trace(
    const StreamConfig& config, const std::vector<TenantMix>& mix);

}  // namespace flstore::serve
