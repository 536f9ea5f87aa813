// Per-OSS request scheduling (Lustre NRS shape): the pluggable policy
// point between client RPC arrival at an OSS and the OSS link/disk
// service underneath.
//
// Every bulk RPC does `co_await admit(job, bytes)` when it reaches its
// OSS and calls `complete(job, bytes)` when the disk finishes serving it.
// A policy decides only *when* admit resumes; the service path itself (OSS
// link, OST disk elevator) is untouched, so policies reorder and pace the
// backlog without changing what service costs.
//
// admit returns one awaiter type for every policy and creates no coroutine
// frame. At the co_await it records the submission, then asks the policy's
// grant_now hook; a request granted there continues without suspending
// (no engine event). Otherwise the policy's park hook takes the parked
// caller, and the policy later schedules it at its grant.
//
//  * FifoSched        — grants instantly, in arrival order: grant_now
//                       always succeeds, so admission adds no engine event
//                       and the data path is bit-for-bit the
//                       pre-scheduler behaviour (pinned by the golden
//                       regression tests).
//  * JobFairSched     — deficit round robin across JobIds with a bounded
//                       number of in-service requests: each round a job's
//                       deficit grows by one quantum and it may send
//                       requests while the deficit covers them, so
//                       backlogged jobs get equal byte shares regardless
//                       of how many ranks or how large the RPCs they use
//                       (sched/job_fair.hpp).
//  * TokenBucketSched — classic TBF per job: tokens accrue at `job_rate`
//                       up to `bucket_depth`; a request needs a full
//                       bucket's worth (or its own size, if smaller) to be
//                       granted and then debits its full size, so a job's
//                       long-run service rate is capped independent of
//                       request size mix (sched/token_bucket.hpp).
//
// `make_scheduler` is the factory lustre::FileSystem builds one scheduler
// per OSS through, driven by hw::PlatformParams::oss_sched_policy —
// mirroring how sim::make_link selects the link-sharing model.
#pragma once

#include <coroutine>
#include <map>
#include <memory>
#include <string>

#include "lustre/sched/policy.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::lustre::sched {

class Scheduler {
 public:
  Scheduler(sim::Engine& eng, SchedTuning tuning)
      : eng_(&eng), tuning_(tuning) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  virtual ~Scheduler() = default;

  class Admission;

  /// Gate one request into the OSS service path: `co_await admit(...)`
  /// resumes when the policy grants it. Pair every granted admit with
  /// exactly one complete().
  Admission admit(JobId job, Bytes bytes);

  /// Account a granted request leaving service (after the disk finished).
  void complete(JobId job, Bytes bytes);

  virtual SchedPolicy policy() const = 0;

  // -- probe surface (instantaneous; cheap, side-effect free) -----------
  /// Requests submitted but not yet granted.
  std::size_t queue_depth() const { return queued_; }
  /// Requests granted but not yet completed.
  std::size_t in_service() const { return in_service_; }

  // -- byte accounting ---------------------------------------------------
  Bytes submitted_bytes() const { return submitted_bytes_; }
  Bytes admitted_bytes() const { return admitted_bytes_; }
  Bytes served_bytes() const { return served_bytes_; }
  Bytes served_bytes(JobId job) const;
  const std::map<JobId, Bytes>& served_by_job() const { return served_; }
  /// Jain fairness index over per-job served bytes (1.0 when idle).
  double jain() const;

  const SchedTuning& tuning() const { return tuning_; }

  /// Swap the tuning constants mid-run (the control plane's entry point).
  /// Validates the new tuning, installs it, and gives the policy a chance
  /// to reconcile in-flight state via on_retune(); scheduler invariants
  /// hold across the call (fuzz-tested in sched_fuzz_test).
  void set_tuning(const SchedTuning& tuning);

  /// Name this scheduler's trace track ("oss2.sched"); set by the owning
  /// FileSystem. Unnamed schedulers trace as "sched".
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }

  /// Internal-consistency audit for the fuzz/property tests; throws
  /// SimulationError on a broken queue or accounting invariant.
  virtual void check_invariants() const;

 protected:
  /// A request the policy did not grant at once, parked until its grant.
  struct Parked {
    Bytes bytes = 0;
    std::coroutine_handle<> waiter;
    std::uint64_t trace_id = 0;  // note_submitted's span, ended at grant
  };

  /// Grant-now hook, asked once per request at its arrival (after
  /// note_submitted): true grants it without suspending — the Admission
  /// then calls note_granted. A policy that grants takes the request into
  /// its books here (e.g. debits tokens).
  virtual bool grant_now(JobId job, Bytes bytes) = 0;
  /// Park hook for a request grant_now refused: the policy keeps it and
  /// later calls note_granted and schedules `request.waiter` on the engine
  /// (never resumes it inline).
  virtual void park(JobId job, Parked request) = 0;

  /// Called by the Admission at arrival, before any grant decision.
  /// Returns a trace correlation id (0 when tracing is off) that travels
  /// with the request to note_granted, so the queued wait renders as one
  /// async span per request.
  std::uint64_t note_submitted(JobId job, Bytes bytes);
  /// Call at the grant decision (before the waiter actually resumes), so
  /// in_service() already reflects the grant when the next decision runs.
  /// `trace_id` is the matching note_submitted return value.
  void note_granted(std::uint64_t trace_id, JobId job, Bytes bytes);
  /// Policy hook run after complete()'s accounting (e.g. to grant the
  /// next queued request into the freed service slot).
  virtual void on_complete() {}
  /// Policy hook run by set_tuning() after tuning_ already holds the new
  /// values; `previous` is the tuning the in-flight state was built
  /// under, so policies can settle rate accounting or relax caps that
  /// the swap would otherwise violate retroactively.
  virtual void on_retune(const SchedTuning& previous) { (void)previous; }

  sim::Engine* eng_;
  SchedTuning tuning_;

 private:
  std::size_t queued_ = 0;
  std::size_t in_service_ = 0;
  Bytes submitted_bytes_ = 0;
  Bytes admitted_bytes_ = 0;
  Bytes served_bytes_ = 0;
  std::map<JobId, Bytes> served_;
  std::string trace_label_ = "sched";
  trace::TrackHandle track_;
};

/// The awaiter admit returns; see the file header.
class Scheduler::Admission {
 public:
  Admission(Scheduler& sched, JobId job, Bytes bytes)
      : sched_(&sched), job_(job), bytes_(bytes) {}

  bool await_ready() {
    trace_id_ = sched_->note_submitted(job_, bytes_);
    if (!sched_->grant_now(job_, bytes_)) return false;
    sched_->note_granted(trace_id_, job_, bytes_);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    sched_->park(job_, Parked{bytes_, h, trace_id_});
  }
  void await_resume() const noexcept {}

 private:
  Scheduler* sched_;
  JobId job_;
  Bytes bytes_;
  std::uint64_t trace_id_ = 0;
};

inline Scheduler::Admission Scheduler::admit(JobId job, Bytes bytes) {
  return Admission{*this, job, bytes};
}

/// Construct the scheduler implementation selected by `policy`.
std::unique_ptr<Scheduler> make_scheduler(sim::Engine& eng, SchedPolicy policy,
                                          SchedTuning tuning = {});

}  // namespace pfsc::lustre::sched
