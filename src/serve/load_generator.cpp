#include "serve/load_generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"

namespace flstore::serve {

double RateProfile::rate_at(double t) const {
  double r = base_qps;
  if (diurnal_amplitude != 0.0) {
    r *= 1.0 + diurnal_amplitude *
                   std::sin(2.0 * std::numbers::pi * (t - diurnal_phase_s) /
                            diurnal_period_s);
  }
  for (const auto& s : surges) {
    if (t >= s.start_s && t < s.end_s) r *= s.multiplier;
  }
  return std::max(r, 0.0);
}

double RateProfile::peak_qps() const {
  double peak = base_qps * (1.0 + diurnal_amplitude);
  // Conservative when surges overlap; thinning only needs an upper bound.
  for (const auto& s : surges) peak *= std::max(s.multiplier, 1.0);
  return peak;
}

std::size_t weighted_index(const std::vector<double>& cumulative, double u) {
  FLSTORE_CHECK(!cumulative.empty());
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  const auto idx = static_cast<std::size_t>(it - cumulative.begin());
  return idx < cumulative.size() ? idx : cumulative.size() - 1;
}

namespace {

/// Whether `cls` issues requests at simulated time `t` (see DeviceClass).
bool class_available(const DeviceClass& cls, double period_s, double t) {
  if (cls.active_start_s == cls.active_end_s) return true;
  const double pos = std::fmod(t, period_s);
  if (cls.active_start_s < cls.active_end_s) {
    return pos >= cls.active_start_s && pos < cls.active_end_s;
  }
  return pos >= cls.active_start_s || pos < cls.active_end_s;  // wraps
}

}  // namespace

ArrivalStream::ArrivalStream(const StreamConfig& config,
                             const std::vector<TenantMix>& mix)
    : config_(config), rng_(config.seed) {
  FLSTORE_CHECK(config_.rate.base_qps > 0.0);
  FLSTORE_CHECK(config_.rate.diurnal_amplitude >= 0.0 &&
                config_.rate.diurnal_amplitude < 1.0);
  FLSTORE_CHECK(config_.rate.diurnal_period_s > 0.0);
  FLSTORE_CHECK(config_.duration_s > 0.0);
  FLSTORE_CHECK(!mix.empty());
  for (const auto& s : config_.rate.surges) {
    FLSTORE_CHECK(s.end_s > s.start_s);
    FLSTORE_CHECK(s.multiplier > 0.0);
  }

  double total_weight = 0.0;
  tenants_.reserve(mix.size());
  cum_weight_.reserve(mix.size());
  samplers_.reserve(mix.size());
  for (const auto& m : mix) {
    FLSTORE_CHECK(m.job != nullptr);
    FLSTORE_CHECK(m.weight > 0.0);
    total_weight += m.weight;
    tenants_.push_back(m.tenant);
    cum_weight_.push_back(total_weight);
    samplers_.emplace_back(m.workloads, *m.job, m.tracked_clients,
                           config_.round_interval_s);
  }

  const auto& pop = config_.population;
  if (pop.clients > 0) {
    if (pop.clients > static_cast<std::int64_t>(
                          std::numeric_limits<ClientId>::max())) {
      throw InvalidArgument(
          "PopulationConfig: " + std::to_string(pop.clients) +
          " clients exceeds the ClientId (int32) origin space");
    }
    FLSTORE_CHECK(pop.zipf_exponent >= 0.0);
    FLSTORE_CHECK(pop.availability_period_s > 0.0);
    classes_ = pop.device_classes;
    if (classes_.empty()) classes_.push_back(DeviceClass{});
    FLSTORE_CHECK(static_cast<std::int64_t>(classes_.size()) <= pop.clients);
    // Split the client rank space across classes by weight: class c owns
    // ranks [base_c, base_{c+1}), each at least one rank wide, and
    // popularity is Zipf *within* the class — a head user of a small class
    // is still that class's head, independent of the split order.
    double class_total = 0.0;
    for (const auto& c : classes_) {
      FLSTORE_CHECK(c.weight > 0.0);
      class_total += c.weight;
    }
    double cum = 0.0;
    class_rank_base_.push_back(0);
    for (std::size_t c = 0; c + 1 < classes_.size(); ++c) {
      cum += classes_[c].weight;
      const auto base = static_cast<std::int64_t>(
          static_cast<double>(pop.clients) * (cum / class_total));
      class_rank_base_.push_back(
          std::max(base, class_rank_base_.back() + 1));
    }
    class_rank_base_.push_back(pop.clients);
    double cum_w = 0.0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      cum_w += classes_[c].weight;
      cum_class_weight_.push_back(cum_w);
      const auto span = class_rank_base_[c + 1] - class_rank_base_[c];
      FLSTORE_CHECK(span >= 1);
      class_zipf_.emplace_back(span, pop.zipf_exponent);
    }
  }

  advance_clock();
}

void ArrivalStream::advance_clock() {
  if (config_.rate.constant()) {
    // Exact homogeneous Poisson — no thinning draws, so the constant-rate
    // stream is bit-identical to the pre-streaming materialized generator.
    t_ += rng_.exponential(config_.rate.base_qps);
    return;
  }
  const double peak = config_.rate.peak_qps();
  // Thinning (Lewis & Shedler): candidates at the envelope rate, accepted
  // with probability rate(t)/peak. Candidates beyond the duration end the
  // stream regardless of acceptance.
  while (true) {
    t_ += rng_.exponential(peak);
    if (t_ >= config_.duration_s) return;
    if (rng_.uniform() * peak < config_.rate.rate_at(t_)) return;
  }
}

std::optional<ServiceRequest> ArrivalStream::next() {
  while (t_ < config_.duration_s) {
    // Device availability gates the arrival before any draw is spent on it:
    // when no class is on duty (every phone charging, every sensor between
    // duty cycles) the offered process itself goes quiet.
    double avail_weight = 0.0;
    if (!classes_.empty()) {
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (class_available(classes_[c],
                            config_.population.availability_period_s, t_)) {
          avail_weight += classes_[c].weight;
        }
      }
      if (avail_weight <= 0.0) {
        advance_clock();
        continue;
      }
    }

    const auto idx = weighted_index(cum_weight_,
                                    rng_.uniform(0.0, cum_weight_.back()));

    ServiceRequest out;
    out.tenant = tenants_[idx];

    std::int64_t origin = -1;
    std::size_t device_class = 0;
    if (!classes_.empty()) {
      // Class by weight among the available ones, then popularity rank
      // within the class's slice of the rank space.
      double pick = rng_.uniform(0.0, avail_weight);
      std::size_t cls = classes_.size() - 1;
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (!class_available(classes_[c],
                             config_.population.availability_period_s, t_)) {
          continue;
        }
        if (pick < classes_[c].weight) {
          cls = c;
          break;
        }
        pick -= classes_[c].weight;
      }
      device_class = cls;
      origin = class_rank_base_[cls] + class_zipf_[cls](rng_);
    }

    out.request = samplers_[idx].sample(next_id_++, t_, rng_);
    if (origin >= 0) {
      out.request.origin = static_cast<ClientId>(origin);
      out.request.device_class = static_cast<std::uint8_t>(device_class);
    }

    last_arrival_s_ = t_;
    ++emitted_;
    advance_clock();
    return out;
  }
  return std::nullopt;
}

std::size_t ArrivalStream::state_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  bytes += tenants_.capacity() * sizeof(JobId);
  bytes += cum_weight_.capacity() * sizeof(double);
  bytes += cum_class_weight_.capacity() * sizeof(double);
  bytes += class_rank_base_.capacity() * sizeof(std::int64_t);
  bytes += class_zipf_.capacity() * sizeof(ZipfSampler);
  bytes += classes_.capacity() * sizeof(DeviceClass);
  for (const auto& c : classes_) bytes += c.name.capacity();
  bytes += samplers_.capacity() * sizeof(fed::TraceSampler);
  for (const auto& s : samplers_) bytes += s.state_bytes() - sizeof(s);
  bytes += config_.rate.surges.capacity() * sizeof(RateProfile::Surge);
  bytes += config_.population.device_classes.capacity() * sizeof(DeviceClass);
  for (const auto& c : config_.population.device_classes) {
    bytes += c.name.capacity();
  }
  return bytes;
}

std::size_t trace_reserve_hint(double offered_qps,
                               double duration_s) noexcept {
  // The expected count is a *hint*, and for a high-QPS, long-duration sweep
  // it can reach gigabytes — or overflow the size_t cast outright — before
  // the first request is served. Compare in the double domain
  // (overflow-safe), cap the pre-allocation, and let the vector grow
  // normally past the cap. Sweeps that large should consume the
  // ArrivalStream directly instead of materializing.
  constexpr std::size_t kMaxReserve = std::size_t{1} << 20;
  const double expected = offered_qps * duration_s * 1.1;
  if (!(expected >= 0.0)) return 0;  // NaN/negative-safe
  return expected < static_cast<double>(kMaxReserve)
             ? static_cast<std::size_t>(expected)
             : kMaxReserve;
}

std::vector<ServiceRequest> open_loop_trace(const StreamConfig& config,
                                            const std::vector<TenantMix>& mix) {
  ArrivalStream stream(config, mix);
  std::vector<ServiceRequest> out;
  out.reserve(trace_reserve_hint(config.rate.peak_qps(), config.duration_s));
  while (auto req = stream.next()) out.push_back(std::move(*req));
  return out;
}

}  // namespace flstore::serve
