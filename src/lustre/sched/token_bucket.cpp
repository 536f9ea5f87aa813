#include "lustre/sched/token_bucket.hpp"

#include <algorithm>
#include <vector>

namespace pfsc::lustre::sched {

namespace {
// Grant slack absorbing refill rounding (a microbyte against MB-scale
// requests), so a timer that fires exactly on time cannot miss its grant
// and re-arm a near-zero timer forever.
constexpr double kTokenEps = 1e-6;
}  // namespace

TokenBucketSched::TokenBucketSched(sim::Engine& eng, SchedTuning tuning)
    : Scheduler(eng, tuning) {
  PFSC_REQUIRE(tuning.job_rate > 0.0,
               "TokenBucketSched: job_rate must be positive");
  PFSC_REQUIRE(tuning.bucket_depth > 0,
               "TokenBucketSched: bucket_depth must be positive");
}

double TokenBucketSched::need(Bytes bytes) const {
  return std::min(static_cast<double>(bytes),
                  static_cast<double>(tuning_.bucket_depth));
}

TokenBucketSched::Bucket& TokenBucketSched::bucket(JobId job) {
  auto [it, inserted] = buckets_.try_emplace(job);
  if (inserted) {
    // A job's first request sees a full bucket (standard TBF burst).
    it->second.tokens = static_cast<double>(tuning_.bucket_depth);
    it->second.last = eng_->now();
  }
  return it->second;
}

void TokenBucketSched::refill(Bucket& b) {
  const Seconds now = eng_->now();
  b.tokens = std::min(static_cast<double>(tuning_.bucket_depth),
                      b.tokens + tuning_.job_rate * (now - b.last));
  b.last = now;
}

bool TokenBucketSched::grant_now(JobId job, Bytes bytes) {
  Bucket& b = bucket(job);
  refill(b);
  // FIFO within the job: an empty queue is required, or this request
  // would overtake a queued head.
  if (!b.q.empty() || b.tokens < need(bytes) - kTokenEps) return false;
  b.tokens -= static_cast<double>(bytes);
  return true;
}

void TokenBucketSched::park(JobId job, Parked request) {
  Bucket& b = bucket(job);
  b.q.push_back(request);
  if (b.q.size() == 1) arm(job, b);
}

void TokenBucketSched::drain(JobId job) {
  Bucket& b = bucket(job);
  refill(b);
  while (!b.q.empty() && b.tokens >= need(b.q.front().bytes) - kTokenEps) {
    const Parked head = b.q.front();
    b.q.pop_front();
    b.tokens -= static_cast<double>(head.bytes);
    note_granted(head.trace_id, job, head.bytes);
    eng_->schedule_after(head.waiter, 0.0);
  }
  if (!b.q.empty()) arm(job, b);
}

void TokenBucketSched::arm(JobId job, Bucket& b) {
  // Wake when the head's token deficit will have refilled. The balance
  // can be deeply negative after an oversize grant, so dt is unbounded
  // above but always positive here (the head was not grantable).
  const Seconds dt = (need(b.q.front().bytes) - b.tokens) / tuning_.job_rate;
  PFSC_ASSERT(dt > 0.0);
  eng_->spawn(wakeup(job, ++b.timer_generation, dt));
}

sim::Task TokenBucketSched::wakeup(JobId job, std::uint64_t generation,
                                   Seconds dt) {
  co_await eng_->delay(dt);
  auto it = buckets_.find(job);
  if (it == buckets_.end() || it->second.timer_generation != generation) {
    co_return;  // stale: the queue was re-armed or drained meanwhile
  }
  drain(job);
}

void TokenBucketSched::on_retune(const SchedTuning& previous) {
  const Seconds now = eng_->now();
  for (auto& [job, b] : buckets_) {
    // Settle the balance under the tuning the elapsed interval actually
    // ran at, then clamp into the new capacity (a shrink must not leave
    // an overfilled bucket behind).
    b.tokens = std::min(static_cast<double>(previous.bucket_depth),
                        b.tokens + previous.job_rate * (now - b.last));
    b.last = now;
    b.tokens = std::min(b.tokens, static_cast<double>(tuning_.bucket_depth));
    // Any armed timer was sized to the old rate/depth; invalidate it.
    ++b.timer_generation;
  }
  // Re-evaluate queued heads under the new tuning: a deeper bucket or a
  // faster rate may grant immediately, otherwise drain() re-arms a timer
  // computed from the new constants. drain() may erase nothing here but
  // can touch buckets_ only via bucket(), which for existing jobs does
  // not invalidate other iterators — still, walk a snapshot of job ids.
  std::vector<JobId> jobs;
  jobs.reserve(buckets_.size());
  for (const auto& [job, b] : buckets_) {
    if (!b.q.empty()) jobs.push_back(job);
  }
  for (const JobId job : jobs) drain(job);
}

double TokenBucketSched::tokens(JobId job) const {
  const auto it = buckets_.find(job);
  if (it == buckets_.end()) return static_cast<double>(tuning_.bucket_depth);
  const Bucket& b = it->second;
  return std::min(static_cast<double>(tuning_.bucket_depth),
                  b.tokens + tuning_.job_rate * (eng_->now() - b.last));
}

void TokenBucketSched::check_invariants() const {
  Scheduler::check_invariants();
  std::size_t pending = 0;
  for (const auto& [job, b] : buckets_) {
    if (b.tokens > static_cast<double>(tuning_.bucket_depth) + kTokenEps) {
      throw SimulationError("TokenBucketSched: bucket overfilled");
    }
    pending += b.q.size();
  }
  if (pending != queue_depth()) {
    throw SimulationError("TokenBucketSched: queue sizes do not sum to depth");
  }
}

}  // namespace pfsc::lustre::sched
