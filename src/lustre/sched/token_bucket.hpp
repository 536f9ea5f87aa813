// Token-bucket scheduler: per-job rate caps (isolation, not fairness).
//
// Each job owns a bucket that fills at `job_rate` up to `bucket_depth`
// (full at first use). A request is granted when the bucket holds
// min(bytes, depth) tokens — so a request larger than the whole bucket
// needs only a full bucket, not an impossible balance — and then debits
// its FULL size, driving the bucket into debt that later refill has to
// pay off. Net effect: any request mix is eventually served (no
// starvation) but every job's long-run service rate converges to
// job_rate, which is the "what isolation does a rate cap buy" question
// bench/ablation_qos asks of the paper's Fig. 3 quartet.
//
// Requests within one job grant strictly FIFO (a queued head blocks the
// queue even if a later, smaller request would fit the balance). Jobs are
// independent: there is no cross-job coupling and no service-slot cap,
// so the policy shapes rather than schedules. Waiting queues wake via
// generation-counted timers sized to the head request's token deficit;
// stale timers no-op.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "lustre/sched/scheduler.hpp"
#include "sim/task.hpp"

namespace pfsc::lustre::sched {

class TokenBucketSched final : public Scheduler {
 public:
  TokenBucketSched(sim::Engine& eng, SchedTuning tuning);

  SchedPolicy policy() const override { return SchedPolicy::token_bucket; }
  void check_invariants() const override;

  /// Current token balance of a job's bucket (diagnostics/tests); may be
  /// negative while the bucket pays off an oversized grant.
  double tokens(JobId job) const;

 private:
  struct Bucket {
    double tokens = 0.0;   // may go negative (debt from oversize grants)
    Seconds last = 0.0;    // when `tokens` was last brought up to date
    std::deque<Parked> q;
    std::uint64_t timer_generation = 0;
  };

  /// Grants (and debits) when the job has no queue and the balance covers
  /// the request.
  bool grant_now(JobId job, Bytes bytes) override;
  void park(JobId job, Parked request) override;

  /// Tokens a request of `bytes` must hold to be granted.
  double need(Bytes bytes) const;
  Bucket& bucket(JobId job);
  /// Accrue tokens for elapsed time, capped at bucket_depth.
  void refill(Bucket& b);
  /// Grant from the queue head while the balance allows; re-arms the
  /// wake timer if requests remain.
  void drain(JobId job);
  void arm(JobId job, Bucket& b);
  sim::Task wakeup(JobId job, std::uint64_t generation, Seconds dt);
  void on_retune(const SchedTuning& previous) override;

  std::map<JobId, Bucket> buckets_;
};

}  // namespace pfsc::lustre::sched
