// InstrumentedBackend — telemetry decorator on the StorageBackend seam.
//
// Wraps any backend composition (tiered, replicated, write-back) and records
// op counts, latency histograms, fees, throttle wait, and capacity refusals
// into a MetricsRegistry — without touching backend implementations and
// without changing observable behaviour: kind()/name()/stats() forward to
// the inner backend, so the decorator is invisible to TieredColdStore
// routing, report tables, and the cost model.
//
// Per-op throttle-wait attribution works by differencing the inner ledger's
// throttle_wait_s around the op; the decorator's own mutex holds across
// (sample, op, sample) so concurrent tenants cannot misattribute each
// other's waits. That serialization is behaviour-preserving — every backend
// on this seam is internally mutex-serialized anyway, and simulated-time
// results depend only on the `now` arguments.
//
// When a Tracer is attached, each data-plane op emits a "backend.<op>" span
// covering the modelled latency, with a "throttle.wait" child span when the
// admission throttle queued the op (backend latencies include the wait, so
// the child nests exactly).
#pragma once

#include <memory>
#include <string>

#include "backend/storage_backend.hpp"
#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flstore::obs {

class InstrumentedBackend final : public backend::StorageBackend {
 public:
  struct Options {
    MetricsRegistry* metrics = nullptr;  ///< null = spans only
    Tracer* tracer = nullptr;            ///< null = metrics only
    std::string region;                  ///< adds a region label when set
  };

  /// Non-owning: `inner` must outlive the decorator.
  InstrumentedBackend(backend::StorageBackend& inner, Options options);
  /// Owning: for drop-in wrapping of factory results (Scenario).
  InstrumentedBackend(std::unique_ptr<backend::StorageBackend> inner,
                      Options options);

  backend::PutResult put(const std::string& name, Blob blob,
                         units::Bytes logical_bytes, double now) override
      EXCLUDES(mu_);
  backend::BatchPutResult put_batch(std::vector<backend::PutRequest> batch,
                                    double now) override EXCLUDES(mu_);
  backend::GetResult get(const std::string& name, double now) override
      EXCLUDES(mu_);
  bool remove(const std::string& name, double now) override EXCLUDES(mu_);
  /// Books the "flush" series and span; flush() lands here too, as the
  /// uncapped flush_window it is.
  FlushResult flush_window(double now, double dirty_before,
                           std::size_t max_objects) override EXCLUDES(mu_);
  [[nodiscard]] DirtyWindow dirty_window() const override;
  CrashResult crash(double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  [[nodiscard]] units::Bytes capacity_bytes() const override;
  [[nodiscard]] double idle_cost(double seconds) const override;
  [[nodiscard]] backend::BackendKind kind() const noexcept override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] backend::OpStats stats() const override;
  bool set_throttle(const backend::Throttle::Config& config,
                    double now) override;

  [[nodiscard]] backend::StorageBackend& inner() noexcept { return *inner_; }

 private:
  /// Registry handles for one op kind, resolved once at construction.
  struct OpSeries {
    Counter* ops = nullptr;
    Histogram* latency = nullptr;
  };

  /// Bookkeeping shared by every op: ledger-diff throttle attribution,
  /// metric updates, the op span + throttle child. The caller passes the
  /// inner throttle_wait_s sampled before the op ran.
  void record_op(const OpSeries& series, double now, double latency_s,
                 double fee_usd, double wait_before_s, const char* span_name,
                 const std::string& object_name) REQUIRES(mu_);

  std::unique_ptr<backend::StorageBackend> owned_;  ///< null if non-owning
  backend::StorageBackend* inner_;
  MetricsRegistry* metrics_;
  Tracer* tracer_;
  std::string region_;

  /// Serializes the (sample ledger, run op, record diff) window so
  /// concurrent tenants cannot misattribute each other's throttle waits.
  /// No member is data-guarded by it — the counters are atomic; the
  /// capability exists for the sampling window itself.
  mutable Mutex mu_;

  OpSeries get_series_;
  OpSeries put_series_;
  OpSeries batch_series_;
  OpSeries remove_series_;
  OpSeries flush_series_;
  Counter* fees_usd_ = nullptr;
  Counter* throttle_wait_s_ = nullptr;
  Counter* throttled_ops_ = nullptr;
  Counter* rejected_puts_ = nullptr;
  Counter* bytes_read_ = nullptr;
  Counter* bytes_written_ = nullptr;
};

}  // namespace flstore::obs
