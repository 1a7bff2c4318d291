#include "core/request_tracker.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flstore::core {

void RequestTracker::begin(RequestId id, double now) {
  const auto [it, inserted] = entries_.try_emplace(id);
  FLSTORE_CHECK(inserted);
  it->second.started_at = now;
  ++in_flight_;
}

void RequestTracker::add_function(RequestId id, FunctionId fn) {
  const auto it = entries_.find(id);
  FLSTORE_CHECK(it != entries_.end());
  FLSTORE_CHECK(!it->second.done);
  auto& fns = it->second.functions;
  if (std::find(fns.begin(), fns.end(), fn) == fns.end()) fns.push_back(fn);
}

void RequestTracker::finish(RequestId id, double now) {
  const auto it = entries_.find(id);
  FLSTORE_CHECK(it != entries_.end());
  FLSTORE_CHECK(!it->second.done);
  FLSTORE_CHECK(in_flight_ > 0);
  expiry_.push_back({now, id});
  std::push_heap(expiry_.begin(), expiry_.end(), finishes_later);
  it->second.done = true;
  it->second.finished_at = now;
  --in_flight_;
}

void RequestTracker::abandon(RequestId id) {
  const auto it = entries_.find(id);
  FLSTORE_CHECK(it != entries_.end());
  FLSTORE_CHECK(!it->second.done);
  FLSTORE_CHECK(in_flight_ > 0);
  entries_.erase(it);
  --in_flight_;
}

const RequestTracker::Entry& RequestTracker::get(RequestId id) const {
  const auto it = entries_.find(id);
  FLSTORE_CHECK(it != entries_.end());
  return it->second;
}

bool RequestTracker::is_done(RequestId id) const { return get(id).done; }

std::size_t RequestTracker::garbage_collect(double now, double horizon_s) {
  // `x + horizon_s` is monotone in x, so once the earliest expiry survives
  // the test every later one does too: this pops exactly the entries a full
  // scan of the done set would drop.
  std::size_t removed = 0;
  while (!expiry_.empty() && expiry_.front().finished_at + horizon_s <= now) {
    std::pop_heap(expiry_.begin(), expiry_.end(), finishes_later);
    entries_.erase(expiry_.back().id);
    expiry_.pop_back();
    ++removed;
  }
  return removed;
}

std::size_t RequestTracker::bookkeeping_bytes() const noexcept {
  std::size_t fn_bytes = 0;
  for (const auto& [_, e] : entries_) {
    fn_bytes += e.functions.capacity() * sizeof(FunctionId);
  }
  return entries_.size() * (sizeof(RequestId) + sizeof(Entry) + 2 * sizeof(void*)) +
         entries_.bucket_count() * sizeof(void*) + fn_bytes +
         expiry_.capacity() * sizeof(Expiry);
}

}  // namespace flstore::core
