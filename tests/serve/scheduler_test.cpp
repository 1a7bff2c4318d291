// RequestScheduler: earliest-deadline-first dispatch over the per-class SLO
// targets, FIFO-within-class, admission control, and starvation-freedom.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace flstore::serve {
namespace {

fed::NonTrainingRequest request(RequestId id, fed::WorkloadType type,
                                double arrival = 0.0) {
  fed::NonTrainingRequest req;
  req.id = id;
  req.type = type;
  req.round = 0;
  req.arrival_s = arrival;
  return req;
}

TEST(Scheduler, StaticPriorityServesP1BeforeBatchClasses) {
  RequestScheduler sched;
  // Arrival order: P2 analytics, P3 track, P4 metadata, P1 inference.
  ASSERT_TRUE(sched.admit(request(1, fed::WorkloadType::kClustering), 0.0));
  ASSERT_TRUE(sched.admit(request(2, fed::WorkloadType::kReputation), 0.1));
  ASSERT_TRUE(sched.admit(request(3, fed::WorkloadType::kSchedulingPerf), 0.2));
  ASSERT_TRUE(sched.admit(request(4, fed::WorkloadType::kInference), 0.3));
  // Dispatch order by deadline (arrival + 1/5/30/120 s): P1 > P4 > P3 > P2.
  EXPECT_EQ(sched.pop().id, 4U);
  EXPECT_EQ(sched.pop().id, 3U);
  EXPECT_EQ(sched.pop().id, 2U);
  EXPECT_EQ(sched.pop().id, 1U);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, FifoWithinClass) {
  RequestScheduler sched;
  for (RequestId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(sched.admit(
        request(id, fed::WorkloadType::kClustering, 0.1 * double(id)), 0.1 * double(id)));
  }
  for (RequestId id = 1; id <= 5; ++id) {
    EXPECT_EQ(sched.pop().id, id);
  }
}

TEST(Scheduler, AdmissionControlRejectsWhenClassQueueFull) {
  SchedulerConfig cfg;
  cfg.class_queue_limit = 2;
  RequestScheduler sched(cfg);
  EXPECT_TRUE(sched.admit(request(1, fed::WorkloadType::kClustering), 0.0));
  EXPECT_TRUE(sched.admit(request(2, fed::WorkloadType::kClustering), 0.0));
  // Third P2 is shed; another class still has room.
  EXPECT_FALSE(sched.admit(request(3, fed::WorkloadType::kClustering), 0.0));
  EXPECT_TRUE(sched.admit(request(4, fed::WorkloadType::kInference), 0.0));
  EXPECT_EQ(sched.rejected(), 1U);
  EXPECT_EQ(sched.admitted(), 3U);
  EXPECT_EQ(sched.queued(), 3U);
  EXPECT_EQ(sched.queued(fed::PolicyClass::kP2), 2U);
}

TEST(Scheduler, SloPromotesLateArrivingP1AheadOfQueuedP2) {
  RequestScheduler sched;
  // P2 has been queued since t=0 (deadline 0+120); P1 arrives at t=2
  // (deadline 2+1=3) and must still go first.
  ASSERT_TRUE(sched.admit(request(1, fed::WorkloadType::kClustering), 0.0));
  ASSERT_TRUE(sched.admit(request(2, fed::WorkloadType::kInference), 2.0));
  EXPECT_EQ(sched.pop().id, 2U);
  EXPECT_EQ(sched.pop().id, 1U);
}

TEST(Scheduler, SloEventuallyServesOverdueBatchWork) {
  RequestScheduler sched;
  // P2 queued at t=0: deadline 120. A P1 arriving at t=130 has deadline
  // 131 > 120, so the overdue batch request finally wins — EDF is
  // starvation-free without a separate aging knob.
  ASSERT_TRUE(sched.admit(request(1, fed::WorkloadType::kClustering), 0.0));
  ASSERT_TRUE(sched.admit(request(2, fed::WorkloadType::kInference), 130.0));
  EXPECT_EQ(sched.pop().id, 1U);
  EXPECT_EQ(sched.pop().id, 2U);
}

TEST(Scheduler, EqualDeadlinesServeEarlierArrivalFirst) {
  RequestScheduler sched;
  // P3 at t=0 (deadline 0+30) and P4 at t=25 (deadline 25+5) tie at 30;
  // the earlier arrival wins the tie.
  ASSERT_TRUE(sched.admit(request(1, fed::WorkloadType::kReputation), 0.0));
  ASSERT_TRUE(
      sched.admit(request(2, fed::WorkloadType::kSchedulingPerf, 25.0), 25.0));
  EXPECT_EQ(sched.pop().id, 1U);
  EXPECT_EQ(sched.pop().id, 2U);
}

TEST(Scheduler, PopOnEmptyThrows) {
  RequestScheduler sched;
  EXPECT_THROW((void)sched.pop(), InternalError);
}

}  // namespace
}  // namespace flstore::serve
