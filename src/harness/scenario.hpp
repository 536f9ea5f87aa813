// Unified scenario description for the experiment harness.
//
// A Scenario says *what to run*. Since PR 6 the primitive is the **job
// list**: a Scenario is a vector of JobSpec — each an independent
// application (an IOR job, a PLFS-backed IOR job, a single-OST probe
// writer, or a background noise writer) with its own JobId, configuration
// and arrival offset. `run_scenario(scenario, seed)` builds a fresh engine
// + file system + runtime from the seed, runs every job to completion, and
// returns an Observation. Fresh-state-per-run keeps repetitions
// independent, exactly like resubmitting a batch job — and is what lets
// ParallelRunner execute plan points on concurrent threads with
// bit-identical per-seed results.
//
// The pre-PR-6 closed `Workload` enum survives as sugar: the enum plus the
// single-job fields describe the four historical shapes, and `jobs()`
// desugars them into the equivalent job list. The factory helpers
// (`Scenario::single_ior`, `::plfs_ior`, `::multi`, `::probe`) construct
// those shapes; `Scenario::from_jobs` builds an explicit job-list scenario
// (what `replay::to_scenario` and the fleet generator produce). Execution
// is always job-list driven — desugared legacy shapes reproduce the
// historical event sequences bit for bit (pinned by the golden tests).
//
// Sweeps and repetitions over a Scenario are described by harness::RunPlan
// (run_plan.hpp) and executed by harness::ParallelRunner (runner.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "ctrl/controller.hpp"
#include "harness/admission.hpp"
#include "hw/platform.hpp"
#include "ior/ior.hpp"
#include "ior/probe.hpp"
#include "trace/telemetry.hpp"

namespace pfsc::harness {

// ---------------------------------------------------------------------------
// JobSpec: one application in a scenario's job list.
// ---------------------------------------------------------------------------

enum class JobKind : std::uint8_t {
  ior,           // IOR through MPI-IO (ad_lustre / ad_generic)
  plfs,          // IOR through ad_plfs (N data files of 2 stripes each)
  probe_writer,  // Fig. 2-style writers streaming to one pinned OST
  noise,         // background writer outside the MPI world (default layout)
};

const char* job_kind_name(JobKind k);

struct JobSpec {
  JobKind kind = JobKind::ior;
  /// Scheduler tag for every RPC this job issues; must be unique within a
  /// scenario so per-job QoS and the fleet analytics can tell jobs apart.
  lustre::sched::JobId job_id = lustre::sched::kDefaultJob;
  /// Application label for fleet reports ("ior", "checkpoint", ...).
  /// Empty: the kind name.
  std::string app;
  /// Simulated-time offset at which the job starts. All-zero arrivals mean
  /// a synchronised start (the paper's simultaneous-submission design: a
  /// world barrier before the jobs split off); any positive arrival makes
  /// the whole scenario free-running — each job begins at its own offset
  /// with no cross-job barrier.
  Seconds arrival = 0.0;

  // -- ior / plfs --------------------------------------------------------
  int nprocs = 1;    // ranks (ior/plfs) or writers (probe_writer)
  ior::Config ior;   // ignored by probe_writer/noise

  // -- probe_writer / noise payload --------------------------------------
  Bytes bytes = 64_MiB;          // per writer
  Bytes transfer_size = 1_MiB;
  std::uint32_t stripes = 2;     // noise layout (background users rarely tune)
  Bytes stripe_size = 1_MiB;
  /// probe_writer: OST every writer pins via stripe_offset. -1 derives it
  /// from the run seed (the historical probe behaviour: noise sometimes
  /// lands on it, which is where Figure 2's variance band comes from).
  std::int32_t target_ost = -1;

  /// Throws UsageError when the fields are inconsistent for the kind.
  /// `index` names the offending list slot in the message.
  void validate(std::size_t index) const;

  const char* kind_name() const { return job_kind_name(kind); }
  /// Label for reports: `app` when set, else the kind name.
  const std::string& display_app() const;
};

// ---------------------------------------------------------------------------
// Background noise (deprecated alias).
//
// Noise writers are ordinary background jobs since PR 6: a NoiseSpec with
// `writers == n` desugars to n JobKind::noise entries with JobIds
// kNoiseJobBase + i appended to the job list (see Scenario::jobs()). The
// struct and `spawn_noise` remain for source compatibility.
// ---------------------------------------------------------------------------
struct NoiseSpec {
  unsigned writers = 0;
  Bytes bytes_per_writer = 256_MiB;
  Bytes transfer_size = 1_MiB;
  std::uint32_t stripes = 2;  // background users rarely tune
  Bytes stripe_size = 1_MiB;
};

/// Spawn the background writers on `fs` (each an independent client with a
/// default-layout file, started immediately). The engine owns the spawned
/// processes; `clients` receives ownership of the Client objects and must
/// outlive the run. Deprecated: prefer JobKind::noise entries in the job
/// list, which run_scenario spawns itself (with arrival-offset support).
void spawn_noise(lustre::FileSystem& fs,
                 std::vector<std::unique_ptr<lustre::Client>>& clients,
                 const NoiseSpec& noise, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Scenario: what to run.
// ---------------------------------------------------------------------------

enum class Workload {
  ior,    // one IOR job through MPI-IO (Fig. 1 sweep points, Fig. 5 curves)
  plfs,   // IOR through ad_plfs with a backend collision census (Tables VIII/IX)
  multi,  // N simultaneous IOR jobs in one MPI world via comm_split (Figs. 3/4)
  probe,  // single-OST contention probe (Fig. 2)
  jobs,   // explicit job list (replay / synthetic fleets)
};

const char* workload_name(Workload w);

struct Scenario {
  /// Legacy-shape selector; ignored (reported as Workload::jobs) whenever
  /// `job_list` is non-empty.
  Workload workload = Workload::ior;

  /// The job list. Empty: desugared from the legacy fields below by
  /// `jobs()`. Non-empty: authoritative (the legacy single-job fields are
  /// ignored, except `noise`, which appends background jobs).
  std::vector<JobSpec> job_list;

  // -- legacy job topology (ignored when job_list is non-empty) ----------
  int nprocs = 1024;        // ranks per job (ior/plfs) or per probe writer set
  int procs_per_node = 16;
  int jobs = 4;             // multi only: number of contending jobs

  // -- probe-only knobs ---------------------------------------------------
  std::uint32_t writers = 1;
  Bytes bytes_per_writer = 64_MiB;

  // -- workload description (ignored by probe) ----------------------------
  ior::Config ior;

  // -- environment ---------------------------------------------------------
  hw::PlatformParams platform = hw::cab_lscratchc();
  /// Deprecated alias: desugars to JobKind::noise entries (see jobs()).
  NoiseSpec noise;  // writers == 0: quiet system

  /// Model-driven admission control for fleet runs (admission.hpp). The
  /// default `always` is bit-for-bit invisible: no controller is built and
  /// jobs start exactly as before. Only the fleet route consults this;
  /// single-job and probe scenarios ignore it.
  AdmissionConfig admission;

  /// Online adaptive tuning (ctrl/controller.hpp). The default mode `off`
  /// is bit-for-bit invisible: no Controller is constructed and zero
  /// engine events are added.
  ctrl::CtrlConfig ctrl;

  /// > 0: attach a telemetry sampler at this interval and return the
  /// aggregate-bandwidth timeline in Observation::bandwidth.
  Seconds telemetry_interval = 0.0;

  /// Event tracing (trace::Recorder attached to the run's engine).
  /// mode off (the default) is bit-for-bit invisible: no recorder exists
  /// and every instrumentation hook is a single null-pointer test.
  /// `trace.interval` > 0 additionally attaches a periodic sampler
  /// mirroring the standard fabric/scheduler/total-bytes instrument packs
  /// into the trace. Overridable per run through the PFSC_TRACE,
  /// PFSC_TRACE_OUT and PFSC_TRACE_INTERVAL environment variables (only
  /// consulted when this field is off, so code wins over environment).
  trace::TraceConfig trace;

  // -- factories (the four historical enum shapes + explicit lists) ------
  /// One IOR job through MPI-IO: `Workload::ior` with `cfg`.
  static Scenario single_ior(ior::Config cfg = {});
  /// IOR through ad_plfs (forces hints.driver) with the backend census.
  static Scenario plfs_ior(ior::Config cfg = {});
  /// `jobs` simultaneous IOR executions of `nprocs` ranks each; job k gets
  /// `cfg.test_file + ".k"` and JobId k, exactly the historical desugaring.
  static Scenario multi(int jobs, int nprocs, ior::Config cfg = {});
  /// `writers` single-OST probe writers of `bytes_per_writer` each.
  static Scenario probe(std::uint32_t writers, Bytes bytes_per_writer = 64_MiB);
  /// Explicit job-list scenario (replay / fleet generation).
  static Scenario from_jobs(std::vector<JobSpec> list);

  /// The scenario's job list: `job_list` when non-empty, else the legacy
  /// fields desugared (ior/plfs/multi/probe -> the equivalent JobSpecs).
  /// Noise writers from the deprecated `noise` field are appended as
  /// JobKind::noise entries in either case.
  std::vector<JobSpec> jobs_desugared() const;

  /// Throws UsageError when the fields are inconsistent (e.g. a multi
  /// scenario routed through ad_plfs, zero jobs/writers, or a job list
  /// with duplicate JobIds).
  void validate() const;
};

// ---------------------------------------------------------------------------
// Observation: everything one scenario run measured.
// ---------------------------------------------------------------------------
struct Observation {
  Workload workload = Workload::ior;
  std::uint64_t seed = 0;

  /// The job list that ran (desugared), in spawn order — what fleet
  /// analytics joins per_job results against.
  std::vector<JobSpec> jobs;

  /// ior/plfs: the job's result. multi/jobs: aggregate with write_mbps set
  /// to the per-job mean. probe: unused.
  ior::Result ior;
  /// One result per rank-carrying job (ior/plfs/probe_writer), in job-list
  /// order — populated for every workload since PR 6 (a single IOR run is
  /// a one-entry fleet; probe writers report per-writer aggregates).
  std::vector<ior::Result> per_job;
  /// Sum of the per-job headline metrics. Populated for every workload
  /// since PR 6 (fleet aggregation needs no per-kind special cases).
  double total_mbps = 0.0;
  /// plfs: per-OST data-file occupancy census. multi/jobs: cross-job OST
  /// census over every job's files.
  core::ObservedContention contention;
  /// probe only.
  ior::ProbeResult probe;
  /// Aggregate-bandwidth timeline when telemetry_interval > 0.
  trace::Series bandwidth;

  /// Admission decisions in release order (empty when scenario.admission is
  /// `always` — the controller is never constructed then).
  std::vector<AdmissionRecord> admissions;

  /// The mode the adaptive controller ran in (off: no controller existed).
  ctrl::CtrlMode ctrl_mode = ctrl::CtrlMode::off;
  /// Adaptive-tuning decisions in decision order (empty when ctrl_mode is
  /// off — the Controller is never constructed then).
  std::vector<ctrl::CtrlAction> ctrl_actions;

  // -- event tracing (scenario.trace.mode != off) -------------------------
  /// True when the run carried a trace::Recorder.
  bool traced = false;
  /// Per-run roll-up (per-job/per-OST bytes, Jain, mean queue depth);
  /// numbers match FileSystem::sched_* exactly.
  trace::RunSummary trace_summary;
  /// Chrome trace_event JSON (full mode only; empty otherwise).
  std::string trace_json;

  /// The scenario's headline number: write (or read-only) MB/s for
  /// ior/plfs, mean per-job write MB/s for multi/jobs, mean per-process
  /// MB/s for the probe.
  double metric = 0.0;
};

/// Run one scenario to completion on a fresh deterministic simulation.
Observation run_scenario(const Scenario& scenario, std::uint64_t seed);

}  // namespace pfsc::harness
