#include "obs/instrumented_backend.hpp"

#include <utility>
#include <vector>

namespace flstore::obs {

namespace {

constexpr const char* kOpLatencyMetric = "backend_op_latency_s";
constexpr const char* kOpsMetric = "backend_ops_total";

}  // namespace

InstrumentedBackend::InstrumentedBackend(backend::StorageBackend& inner,
                                         Options options)
    : inner_(&inner),
      metrics_(options.metrics),
      tracer_(options.tracer),
      region_(std::move(options.region)) {
  if (metrics_ == nullptr) return;
  Labels base{{kLabelBackend, to_string(inner_->kind())}};
  if (!region_.empty()) base.emplace_back(kLabelRegion, region_);
  const auto op_series = [&](const char* op) {
    Labels labels = base;
    labels.emplace_back(kLabelOp, op);
    return OpSeries{&metrics_->counter(kOpsMetric, labels),
                    &metrics_->histogram(kOpLatencyMetric, labels)};
  };
  get_series_ = op_series("get");
  put_series_ = op_series("put");
  batch_series_ = op_series("put_batch");
  remove_series_ = op_series("remove");
  flush_series_ = op_series("flush");
  fees_usd_ = &metrics_->counter("backend_fees_usd_total", base);
  throttle_wait_s_ = &metrics_->counter("backend_throttle_wait_s_total", base);
  throttled_ops_ = &metrics_->counter("backend_throttled_ops_total", base);
  rejected_puts_ = &metrics_->counter("backend_rejected_puts_total", base);
  bytes_read_ = &metrics_->counter("backend_bytes_read_total", base);
  bytes_written_ = &metrics_->counter("backend_bytes_written_total", base);
}

InstrumentedBackend::InstrumentedBackend(
    std::unique_ptr<backend::StorageBackend> inner, Options options)
    : InstrumentedBackend(*inner, std::move(options)) {
  owned_ = std::move(inner);
}

void InstrumentedBackend::record_op(const OpSeries& series, double now,
                                    double latency_s, double fee_usd,
                                    double wait_before_s,
                                    const char* span_name,
                                    const std::string& object_name) {
  const double wait_s = inner_->stats().throttle_wait_s - wait_before_s;
  if (series.ops != nullptr) {
    series.ops->add(1.0);
    series.latency->observe(latency_s);
    fees_usd_->add(fee_usd);
    if (wait_s > 0.0) {
      throttle_wait_s_->add(wait_s);
      throttled_ops_->add(1.0);
    }
  }
  if (tracer_ != nullptr) {
    const auto span = tracer_->begin(span_name, "backend", now);
    if (span != kNoSpan) {
      tracer_->end(span, now + latency_s);
      tracer_->annotate(span, "object", object_name);
      tracer_->annotate(span, "backend", to_string(inner_->kind()));
      if (!region_.empty()) tracer_->annotate(span, "region", region_);
      if (wait_s > 0.0) {
        const Tracer::Scope scope(tracer_, span);
        const auto wait =
            tracer_->begin("throttle.wait", "backend", now);
        tracer_->end(wait, now + wait_s);  // waits precede the transfer
      }
    }
  }
}

backend::PutResult InstrumentedBackend::put(const std::string& name,
                                            Blob blob,
                                            units::Bytes logical_bytes,
                                            double now) {
  const auto logical = backend::effective_logical(blob, logical_bytes);
  const MutexLock lock(mu_);
  const double wait_before = inner_->stats().throttle_wait_s;
  const auto result = inner_->put(name, std::move(blob), logical_bytes, now);
  record_op(put_series_, now, result.latency_s, result.request_fee_usd,
            wait_before, "backend.put", name);
  if (metrics_ != nullptr) {
    // Like every backend's OpStats::bytes_written: accepted writes only.
    if (result.accepted) {
      bytes_written_->add(static_cast<double>(logical));
    } else {
      rejected_puts_->add(1.0);
    }
  }
  return result;
}

backend::BatchPutResult InstrumentedBackend::put_batch(
    std::vector<backend::PutRequest> batch, double now) {
  std::vector<units::Bytes> logical;
  logical.reserve(batch.size());
  for (const auto& item : batch) {
    logical.push_back(
        backend::effective_logical(item.blob, item.logical_bytes));
  }
  const auto attempted = batch.size();
  const MutexLock lock(mu_);
  const double wait_before = inner_->stats().throttle_wait_s;
  const auto result = inner_->put_batch(std::move(batch), now);
  record_op(batch_series_, now, result.latency_s, result.request_fee_usd,
            wait_before, "backend.put_batch",
            std::to_string(attempted) + " objects");
  if (metrics_ != nullptr) {
    units::Bytes written = 0;
    for (std::size_t i = 0; i < attempted && i < result.accepted.size(); ++i) {
      if (result.accepted[i]) written += logical[i];
    }
    bytes_written_->add(static_cast<double>(written));
    rejected_puts_->add(static_cast<double>(attempted - result.stored));
  }
  return result;
}

backend::GetResult InstrumentedBackend::get(const std::string& name,
                                            double now) {
  const MutexLock lock(mu_);
  const double wait_before = inner_->stats().throttle_wait_s;
  const auto result = inner_->get(name, now);
  record_op(get_series_, now, result.latency_s, result.request_fee_usd,
            wait_before, "backend.get", name);
  if (metrics_ != nullptr && result.found) {
    bytes_read_->add(static_cast<double>(result.logical_bytes));
  }
  return result;
}

bool InstrumentedBackend::remove(const std::string& name, double now) {
  const MutexLock lock(mu_);
  const double wait_before = inner_->stats().throttle_wait_s;
  const bool removed = inner_->remove(name, now);
  record_op(remove_series_, now, 0.0, 0.0, wait_before, "backend.remove",
            name);
  return removed;
}

backend::StorageBackend::FlushResult InstrumentedBackend::flush_window(
    double now, double dirty_before, std::size_t max_objects) {
  const MutexLock lock(mu_);
  const double wait_before = inner_->stats().throttle_wait_s;
  const auto result = inner_->flush_window(now, dirty_before, max_objects);
  record_op(flush_series_, now, 0.0, result.request_fee_usd, wait_before,
            "backend.flush", std::to_string(result.drained) + " drained");
  return result;
}

backend::StorageBackend::DirtyWindow InstrumentedBackend::dirty_window()
    const {
  return inner_->dirty_window();
}

backend::StorageBackend::CrashResult InstrumentedBackend::crash(double now) {
  return inner_->crash(now);
}

bool InstrumentedBackend::contains(const std::string& name) const {
  return inner_->contains(name);
}

units::Bytes InstrumentedBackend::stored_logical_bytes() const {
  return inner_->stored_logical_bytes();
}

units::Bytes InstrumentedBackend::capacity_bytes() const {
  return inner_->capacity_bytes();
}

double InstrumentedBackend::idle_cost(double seconds) const {
  return inner_->idle_cost(seconds);
}

backend::BackendKind InstrumentedBackend::kind() const noexcept {
  return inner_->kind();
}

std::string InstrumentedBackend::name() const { return inner_->name(); }

backend::OpStats InstrumentedBackend::stats() const {
  return inner_->stats();
}

bool InstrumentedBackend::set_throttle(const backend::Throttle::Config& config,
                                       double now) {
  return inner_->set_throttle(config, now);
}

}  // namespace flstore::obs
