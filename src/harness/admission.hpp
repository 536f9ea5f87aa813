// Model-driven admission control for fleet scenarios.
//
// The paper's Eq. 1-6 predict per-OST load *before* a job runs; this
// controller acts on the prediction. Each arrived JobSpec is gated before
// its first byte moves:
//
//   always     admit immediately (the default — the controller is not even
//              constructed, so the historical event sequences are
//              bit-for-bit unchanged).
//   threshold  delay the job in a strict FIFO queue while the predicted
//              D_load of the running mix plus the candidate exceeds
//              `max_dload`. The queue head is re-evaluated whenever a
//              running job finishes; a job is always admitted when nothing
//              is running (no deadlock, matching a real scheduler's
//              backfill floor).
//   detune     never delay; instead reduce the job's per-file stripe count
//              to the largest value whose predicted D_load fits the limit
//              (floor `min_stripes`) — the paper's Fig. 4 stripe-reduction
//              knob, applied automatically. Jobs whose layout is not
//              stripe-tunable (plfs, probes) are admitted unchanged.
//
// Prediction uses Eq. 1's heterogeneous form over the *running* jobs'
// stripe requests (core::d_inuse), all bookkeeping held controller-side —
// never sampled from server counters — so decisions are deterministic at
// any ParallelRunner thread count.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "hw/platform.hpp"
#include "lustre/sched/policy.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::harness {

struct JobSpec;

enum class AdmissionPolicy : std::uint8_t {
  always,     // old behaviour: release every job on arrival
  threshold,  // delay while predicted D_load > max_dload
  detune,     // reduce stripe count until predicted D_load fits
};

const char* admission_policy_name(AdmissionPolicy policy);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::always;
  /// threshold/detune: largest predicted D_load (running mix + candidate)
  /// at which a job is still released untouched.
  double max_dload = std::numeric_limits<double>::infinity();
  /// detune: per-file stripe-count floor.
  std::uint32_t min_stripes = 1;
};

enum class AdmissionAction : std::uint8_t { admitted, delayed, detuned };

const char* admission_action_name(AdmissionAction action);

/// One gating decision, in release order.
struct AdmissionRecord {
  lustre::sched::JobId job_id = 0;
  AdmissionAction action = AdmissionAction::admitted;
  Seconds arrival = 0.0;   // when the job asked to start
  Seconds released = 0.0;  // when the controller let it proceed
  std::uint32_t stripes_before = 0;  // requested per-file stripes
  std::uint32_t stripes_after = 0;   // released per-file stripes
  /// Predicted D_load of the running mix including this job, at release.
  double predicted_dload = 0.0;
  /// Jobs already running when this one was released.
  std::size_t running_before = 0;

  Seconds wait() const { return released - arrival; }
};

class AdmissionController {
 public:
  /// `recorder` (optional, not owned): decisions are emitted as Cat::sched
  /// events on an "admission" track.
  AdmissionController(sim::Engine& eng, AdmissionConfig cfg,
                      const hw::PlatformParams& platform,
                      trace::Recorder* recorder = nullptr);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Gate one job's start; suspends under threshold gating. Returns the
  /// per-file stripe count the job must run with (0: keep its own layout).
  /// Call exactly once per job, from one coroutine.
  sim::Co<std::uint32_t> admit(const JobSpec& job);

  /// Remove a completed job from the running mix and re-evaluate the
  /// queue head. Idempotent per JobId.
  void finished(const JobSpec& job);

  /// Eq. 1's per-job stripe requests (the r_j terms): one entry per file
  /// the job keeps busy. `stripes_override` (nonzero) substitutes the
  /// per-file stripe count of stripe-tunable jobs.
  static std::vector<double> job_requests(const JobSpec& job,
                                          const hw::PlatformParams& platform,
                                          std::uint32_t stripes_override = 0);

  /// Predicted D_load of the running mix, plus `candidate` when non-null.
  double predicted_dload(const JobSpec* candidate = nullptr) const;

  std::size_t running_jobs() const { return running_.size(); }
  std::size_t queued_jobs() const { return queue_.size(); }
  const AdmissionConfig& config() const { return cfg_; }
  const std::vector<AdmissionRecord>& records() const { return records_; }
  std::vector<AdmissionRecord> take_records() { return std::move(records_); }

 private:
  struct Waiter;
  struct Running {
    lustre::sched::JobId job_id = 0;
    std::vector<double> requests;
  };

  /// Release queued jobs from the head while the policy allows it.
  void pump();
  double dload_with(const std::vector<double>& extra) const;
  /// The job's requested per-file stripe count (what detune reduces).
  std::uint32_t requested_stripes(const JobSpec& job) const;
  /// True when reducing the stripe hint actually changes the job's layout.
  static bool detunable(const JobSpec& job);

  sim::Engine* eng_;
  AdmissionConfig cfg_;
  hw::PlatformParams params_;
  trace::Recorder* recorder_;
  trace::TrackId track_ = 0;
  std::vector<Running> running_;
  std::deque<Waiter*> queue_;
  std::vector<AdmissionRecord> records_;
};

}  // namespace pfsc::harness
