#include "serve/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flstore::serve {

RequestScheduler::RequestScheduler(SchedulerConfig config) : config_(config) {}

bool RequestScheduler::admit(const fed::NonTrainingRequest& req, double now) {
  const auto c = fed::class_index(fed::policy_class_for(req.type));
  auto& queue = queues_[c];
  if (config_.class_queue_limit > 0 &&
      queue.size() >= config_.class_queue_limit) {
    ++rejected_;
    ++class_stats_[c].rejected;
    return false;
  }
  queue.push_back(Entry{req, now, seq_++});
  ++queued_;
  ++admitted_;
  ++class_stats_[c].admitted;
  class_stats_[c].peak_queued =
      std::max(class_stats_[c].peak_queued, queue.size());
  return true;
}

std::size_t RequestScheduler::pick_class() const {
  constexpr auto kNone = static_cast<std::size_t>(-1);
  std::size_t best = kNone;
  double best_deadline = 0.0;
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    if (queues_[c].empty()) continue;
    const auto& head = queues_[c].front();
    const double deadline = head.enqueued_s + kClassSloS[c];
    if (best == kNone || deadline < best_deadline ||
        (deadline == best_deadline && head.seq < queues_[best].front().seq)) {
      best = c;
      best_deadline = deadline;
    }
  }
  return best;
}

fed::NonTrainingRequest RequestScheduler::pop() {
  FLSTORE_CHECK(queued_ > 0);
  const auto c = pick_class();
  FLSTORE_CHECK(c < queues_.size());
  auto req = queues_[c].front().request;
  queues_[c].pop_front();
  --queued_;
  return req;
}

}  // namespace flstore::serve
