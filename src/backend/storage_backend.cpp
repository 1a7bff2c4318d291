#include "backend/storage_backend.hpp"

#include <algorithm>
#include <limits>

namespace flstore::backend {

double Throttle::admit(double now) {
  if (!enabled()) return 0.0;
  if (now > last_s_) {
    tokens_ = std::min(config_.burst_ops,
                       tokens_ + (now - last_s_) * config_.ops_per_s);
    last_s_ = now;
  }
  tokens_ -= 1.0;
  if (tokens_ >= 0.0) return 0.0;
  // The op executes once its token accrues; the bucket stays in debt so a
  // sustained overload queues linearly (virtual-time leaky bucket).
  return -tokens_ / config_.ops_per_s;
}

void Throttle::set_config(Config config, double now) {
  if (!enabled()) {
    // Was unthrottled: start a fresh bucket at full burst from `now`.
    config_ = config;
    tokens_ = config.burst_ops;
    last_s_ = std::max(last_s_, now);
    return;
  }
  // Settle accrual under the old rate up to `now` first, so the retune
  // cannot retroactively change admissions that already happened.
  if (now > last_s_) {
    tokens_ = std::min(config_.burst_ops,
                       tokens_ + (now - last_s_) * config_.ops_per_s);
    last_s_ = now;
  }
  if (config.ops_per_s <= 0.0) {
    config_ = config;  // throttle off: queued debt is forgiven
    tokens_ = config.burst_ops;
    return;
  }
  // Debt stays op-denominated: the queued backlog drains at the *new*
  // rate (a faster endpoint clears it sooner; a slower one takes longer).
  // Only accrued credit clamps to the new burst.
  config_ = config;
  tokens_ = std::min(tokens_, config_.burst_ops);
}

PutResult StorageBackend::put(const std::string& name, Blob blob,
                              units::Bytes logical_bytes, double now) {
  std::vector<PutRequest> batch;
  batch.push_back(PutRequest{name, std::move(blob), logical_bytes});
  const auto res = put_batch(std::move(batch), now);
  return PutResult{res.stored > 0, res.latency_s, res.request_fee_usd};
}

StorageBackend::FlushResult StorageBackend::flush(double now) {
  return flush_window(now, std::numeric_limits<double>::infinity(), 0);
}

}  // namespace flstore::backend
