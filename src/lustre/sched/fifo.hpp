// FIFO (null) scheduler: requests proceed to the OSS link in arrival
// order with no admission control, exactly as the data path behaved
// before the scheduler layer existed.
//
// admit() never suspends: grant_now grants every request at its arrival,
// so `co_await admit(...)` continues inline and schedules ZERO engine
// events. The event sequence — and therefore every golden number — is
// bit-for-bit identical to the pre-scheduler tree. The golden regression
// tests pin this.
#pragma once

#include "lustre/sched/scheduler.hpp"

namespace pfsc::lustre::sched {

class FifoSched final : public Scheduler {
 public:
  using Scheduler::Scheduler;

  SchedPolicy policy() const override { return SchedPolicy::fifo; }

 private:
  bool grant_now(JobId, Bytes) override { return true; }
  void park(JobId, Parked) override {
    PFSC_ASSERT(false && "FifoSched never parks a request");
  }
};

}  // namespace pfsc::lustre::sched
