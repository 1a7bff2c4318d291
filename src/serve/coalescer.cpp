#include "serve/coalescer.hpp"

#include <optional>

namespace flstore::serve {

namespace {

/// Scan trigger, not a hard cap: once the window table exceeds this, each
/// new lead prunes every *expired* window. Live windows are never dropped
/// (dropping one would turn joinable misses into duplicate fetches), so the
/// table can exceed this while that many transfers genuinely overlap.
constexpr std::size_t kMaxTracked = 4096;

}  // namespace

backend::GetResult Coalescer::fetch(const std::string& object_name,
                                    backend::StorageBackend& cold,
                                    double now) {
  // mu_ guards only the window table and stats — never the backend fetch or
  // the tracer (which takes its own mutex per span). Holding it across both
  // used to serialize every cold miss of a tenant behind whichever transfer
  // was being booked; now the critical sections are a map probe and a map
  // insert. Under real concurrent callers two threads can race past the
  // join check and both lead the same key — the window publish below is
  // last-wins and both pay their fetch, which is correct, just not
  // maximally shared; in the sim each tenant's task is sequential, so
  // results are unchanged.
  std::optional<InFlight> joined;
  {
    const MutexLock lock(mu_);
    const auto it = inflight_.find(object_name);
    if (it != inflight_.end() && now >= it->second.start_s &&
        now < it->second.ready_s) {
      // Join: the bytes are already streaming; wait out the remainder.
      const auto& f = it->second;
      ++stats_.joins;
      stats_.fees_saved_usd += f.fee_usd;
      stats_.wait_saved_s += f.latency_s - (f.ready_s - now);
      joined = f;
    }
  }
  if (joined.has_value()) {
    const auto span = obs::begin_span(tracer_, "coalesce.join", "serve", now);
    if (span != obs::kNoSpan) {
      tracer_->end(span, joined->ready_s);
      tracer_->annotate(span, "object", object_name);
    }
    return {true, std::move(joined->blob), joined->logical_bytes,
            joined->ready_s - now, /*request_fee_usd=*/0.0};
  }

  // Lead: issue the real fetch and open a window other shards can join.
  const auto span = obs::begin_span(tracer_, "coalesce.lead", "serve", now);
  backend::GetResult got;
  {
    // The backend's own op span (InstrumentedBackend) nests under the lead.
    std::optional<obs::Tracer::Scope> scope;
    if (tracer_ != nullptr) scope.emplace(tracer_, span);
    got = cold.get(object_name, now);
  }
  if (span != obs::kNoSpan) {
    tracer_->end(span, now + got.latency_s);
    tracer_->annotate(span, "object", object_name);
    tracer_->annotate(span, "found", got.found ? "true" : "false");
  }
  if (!got.found) {
    // Misses pay the control-plane round trip but open no window (the
    // object may appear any moment via ingest backup).
    return got;
  }
  {
    const MutexLock lock(mu_);
    ++stats_.leads;
    if (inflight_.size() >= kMaxTracked) {
      // Prune windows that ended before this fetch began; simulated clocks
      // across shards stay close, so expired-for-us is expired-for-all in
      // practice (a late joiner would lead a fresh fetch, which is correct,
      // just not maximally shared).
      for (auto p = inflight_.begin(); p != inflight_.end();) {
        p = p->second.ready_s <= now ? inflight_.erase(p) : std::next(p);
      }
    }
    inflight_[object_name] =
        InFlight{now,      now + got.latency_s,     got.blob,
                 got.logical_bytes, got.request_fee_usd, got.latency_s};
  }
  return got;
}

void Coalescer::reset() {
  const MutexLock lock(mu_);
  inflight_.clear();
}

}  // namespace flstore::serve
