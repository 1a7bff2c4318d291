// TimedBackend — wall-clock accounting decorator on the StorageBackend seam.
//
// Wraps the serving plane's cold tier in traced runs and counts and times
// every data-plane call (get, put, put_batch, remove, flush, flush_window,
// contains) with relaxed atomics: tenant timelines share one cold tier
// across worker threads, and the counters only need to be exact once the
// run has joined. Every virtual forwards to the inner backend unchanged,
// so simulated latencies, fees and contents are identical with or without
// the decorator — flbench checks that a traced run's record digest equals
// the untraced run's.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "backend/storage_backend.hpp"
#include "clock.hpp"

namespace flbench {

class TimedBackend final : public flstore::backend::StorageBackend {
 public:
  /// One call kind's ledger.
  struct Ledger {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };

  /// Non-owning: `inner` must outlive the decorator.
  explicit TimedBackend(flstore::backend::StorageBackend& inner)
      : inner_(&inner) {}

  flstore::backend::PutResult put(const std::string& name, flstore::Blob blob,
                                  flstore::units::Bytes logical_bytes,
                                  double now) override {
    const Timer timer(put_);
    return inner_->put(name, std::move(blob), logical_bytes, now);
  }
  flstore::backend::BatchPutResult put_batch(
      std::vector<flstore::backend::PutRequest> batch, double now) override {
    const Timer timer(batch_);
    return inner_->put_batch(std::move(batch), now);
  }
  flstore::backend::GetResult get(const std::string& name,
                                  double now) override {
    const Timer timer(get_);
    return inner_->get(name, now);
  }
  bool remove(const std::string& name, double now) override {
    const Timer timer(remove_);
    return inner_->remove(name, now);
  }
  FlushResult flush(double now) override {
    const Timer timer(flush_);
    return inner_->flush(now);
  }
  FlushResult flush_window(double now, double dirty_before,
                           std::size_t max_objects) override {
    const Timer timer(flush_);
    return inner_->flush_window(now, dirty_before, max_objects);
  }
  [[nodiscard]] bool contains(const std::string& name) const override {
    const Timer timer(contains_);
    return inner_->contains(name);
  }

  [[nodiscard]] DirtyWindow dirty_window() const override {
    return inner_->dirty_window();
  }
  CrashResult crash(double now) override { return inner_->crash(now); }
  [[nodiscard]] flstore::units::Bytes stored_logical_bytes() const override {
    return inner_->stored_logical_bytes();
  }
  [[nodiscard]] flstore::units::Bytes capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  [[nodiscard]] double idle_cost(double seconds) const override {
    return inner_->idle_cost(seconds);
  }
  bool set_throttle(const flstore::backend::Throttle::Config& config,
                    double now) override {
    return inner_->set_throttle(config, now);
  }
  [[nodiscard]] flstore::backend::BackendKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] flstore::backend::OpStats stats() const override {
    return inner_->stats();
  }

  [[nodiscard]] std::uint64_t get_calls() const { return load(get_.calls); }
  [[nodiscard]] std::uint64_t put_calls() const { return load(put_.calls); }
  [[nodiscard]] std::uint64_t batch_calls() const {
    return load(batch_.calls);
  }
  /// Wall nanoseconds spent inside the inner backend, every call kind.
  [[nodiscard]] std::uint64_t total_ns() const {
    return load(get_.ns) + load(put_.ns) + load(batch_.ns) +
           load(remove_.ns) + load(flush_.ns) + load(contains_.ns);
  }

 private:
  /// Scoped timer booking one call into a ledger on exit.
  class Timer {
   public:
    explicit Timer(Ledger& ledger) : ledger_(ledger), start_(now_ns()) {}
    ~Timer() {
      ledger_.calls.fetch_add(1, std::memory_order_relaxed);
      ledger_.ns.fetch_add(static_cast<std::uint64_t>(now_ns() - start_),
                           std::memory_order_relaxed);
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    Ledger& ledger_;
    std::int64_t start_;
  };

  static std::uint64_t load(const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  }

  flstore::backend::StorageBackend* inner_;
  // Mutable: contains() is const on the interface but is still a timed
  // data-plane call (FLStore probes the cold tier before prefetching).
  mutable Ledger get_, put_, batch_, remove_, flush_, contains_;
};

}  // namespace flbench
