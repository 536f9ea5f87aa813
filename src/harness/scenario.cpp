#include "harness/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <set>
#include <string>

#include "plfs/plfs.hpp"
#include "trace/export.hpp"

namespace pfsc::harness {

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::ior: return "ior";
    case JobKind::plfs: return "plfs";
    case JobKind::probe_writer: return "probe";
    case JobKind::noise: return "noise";
  }
  return "?";
}

const std::string& JobSpec::display_app() const {
  static const std::string names[] = {"ior", "plfs", "probe", "noise"};
  if (!app.empty()) return app;
  return names[static_cast<std::size_t>(kind)];
}

void JobSpec::validate(std::size_t index) const {
  const std::string where = "JobSpec[" + std::to_string(index) + "]: ";
  PFSC_REQUIRE(arrival >= 0.0, where + "arrival must be non-negative");
  switch (kind) {
    case JobKind::ior:
      PFSC_REQUIRE(nprocs >= 1, where + "nprocs must be positive");
      PFSC_REQUIRE(ior.hints.driver != mpiio::Driver::ad_plfs,
                   where + "use kind=plfs for ad_plfs");
      break;
    case JobKind::plfs:
      PFSC_REQUIRE(nprocs >= 1, where + "nprocs must be positive");
      PFSC_REQUIRE(ior.hints.driver == mpiio::Driver::ad_plfs,
                   where + "kind=plfs needs hints.driver == ad_plfs");
      break;
    case JobKind::probe_writer:
      PFSC_REQUIRE(nprocs >= 1, where + "nprocs must be positive");
      PFSC_REQUIRE(bytes > 0, where + "bytes must be positive");
      PFSC_REQUIRE(transfer_size > 0, where + "transfer_size must be positive");
      break;
    case JobKind::noise:
      PFSC_REQUIRE(bytes > 0, where + "bytes must be positive");
      PFSC_REQUIRE(transfer_size > 0, where + "transfer_size must be positive");
      break;
  }
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::ior: return "ior";
    case Workload::plfs: return "plfs";
    case Workload::multi: return "multi";
    case Workload::probe: return "probe";
    case Workload::jobs: return "jobs";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Factories + desugaring
// ---------------------------------------------------------------------------

Scenario Scenario::single_ior(ior::Config cfg) {
  Scenario s;
  s.workload = Workload::ior;
  s.ior = std::move(cfg);
  return s;
}

Scenario Scenario::plfs_ior(ior::Config cfg) {
  Scenario s;
  s.workload = Workload::plfs;
  s.ior = std::move(cfg);
  s.ior.hints.driver = mpiio::Driver::ad_plfs;
  return s;
}

Scenario Scenario::multi(int jobs, int nprocs, ior::Config cfg) {
  Scenario s;
  s.workload = Workload::multi;
  s.jobs = jobs;
  s.nprocs = nprocs;
  s.ior = std::move(cfg);
  return s;
}

Scenario Scenario::probe(std::uint32_t writers, Bytes bytes_per_writer) {
  Scenario s;
  s.workload = Workload::probe;
  s.writers = writers;
  s.bytes_per_writer = bytes_per_writer;
  return s;
}

Scenario Scenario::from_jobs(std::vector<JobSpec> list) {
  Scenario s;
  s.workload = Workload::jobs;
  s.job_list = std::move(list);
  return s;
}

std::vector<JobSpec> Scenario::jobs_desugared() const {
  std::vector<JobSpec> out;
  if (!job_list.empty()) {
    out = job_list;
    // JobSpec::job_id is the job's identity everywhere (scheduler
    // accounting, admission records, analytics rows); stamp it into the
    // embedded ior config so callers building job lists by hand don't
    // have to remember both fields.
    for (JobSpec& j : out) {
      if (j.kind == JobKind::ior || j.kind == JobKind::plfs) {
        j.ior.job_id = j.job_id;
      }
    }
  } else {
    switch (workload) {
      case Workload::ior:
      case Workload::plfs: {
        JobSpec j;
        j.kind = workload == Workload::plfs ? JobKind::plfs : JobKind::ior;
        j.job_id = ior.job_id;
        j.nprocs = nprocs;
        j.ior = ior;
        out.push_back(std::move(j));
        break;
      }
      case Workload::multi:
        for (int k = 0; k < jobs; ++k) {
          JobSpec j;
          j.kind = JobKind::ior;
          j.job_id = static_cast<lustre::sched::JobId>(k);
          j.nprocs = nprocs;
          j.ior = ior;
          j.ior.test_file += "." + std::to_string(k);
          j.ior.job_id = j.job_id;
          out.push_back(std::move(j));
        }
        break;
      case Workload::probe:
        for (std::uint32_t w = 0; w < writers; ++w) {
          JobSpec j;
          j.kind = JobKind::probe_writer;
          j.job_id = static_cast<lustre::sched::JobId>(w);
          j.nprocs = 1;
          j.bytes = bytes_per_writer;
          out.push_back(std::move(j));
        }
        break;
      case Workload::jobs:
        break;  // empty job_list: validate() rejects this shape
    }
  }
  // Deprecated NoiseSpec alias: background writers become ordinary noise
  // jobs appended after the rank-carrying jobs, ids kNoiseJobBase + i.
  for (unsigned w = 0; w < noise.writers; ++w) {
    JobSpec j;
    j.kind = JobKind::noise;
    j.job_id = lustre::sched::kNoiseJobBase + w;
    j.bytes = noise.bytes_per_writer;
    j.transfer_size = noise.transfer_size;
    j.stripes = noise.stripes;
    j.stripe_size = noise.stripe_size;
    out.push_back(std::move(j));
  }
  return out;
}

void Scenario::validate() const {
  PFSC_REQUIRE(procs_per_node >= 1, "Scenario: procs_per_node must be positive");
  PFSC_REQUIRE(trace.interval >= 0.0,
               "Scenario: trace.interval must be non-negative");
  PFSC_REQUIRE(trace.out.empty() || trace.mode != trace::TraceMode::off,
               "Scenario: trace.out requires trace.mode != off");
  PFSC_REQUIRE(admission.max_dload > 0.0,
               "Scenario: admission.max_dload must be positive");
  PFSC_REQUIRE(admission.min_stripes >= 1,
               "Scenario: admission.min_stripes must be >= 1");
  // Degenerate scheduler tunings (zero quantum, no service slots, empty
  // bucket) are rejected here rather than producing silently broken
  // schedules mid-run; the CLI additionally rejects them at parse time
  // with the flag name.
  lustre::sched::validate_tuning(platform.oss_sched);
  if (ctrl.mode != ctrl::CtrlMode::off) {
    PFSC_REQUIRE(ctrl.interval > 0.0,
                 "Scenario: ctrl.interval must be positive");
    PFSC_REQUIRE(ctrl.cooldown >= 0.0,
                 "Scenario: ctrl.cooldown must be non-negative");
    PFSC_REQUIRE(ctrl.jain_low <= ctrl.jain_high,
                 "Scenario: ctrl.jain_low must not exceed ctrl.jain_high");
    PFSC_REQUIRE(ctrl.storm_jobs >= 1,
                 "Scenario: ctrl.storm_jobs must be >= 1");
  }
  if (!job_list.empty()) {
    std::set<lustre::sched::JobId> ids;
    bool any_ranks = false;
    for (std::size_t i = 0; i < job_list.size(); ++i) {
      const JobSpec& j = job_list[i];
      j.validate(i);
      PFSC_REQUIRE(ids.insert(j.job_id).second,
                   "Scenario: duplicate JobId " + std::to_string(j.job_id) +
                       " in job list");
      any_ranks = any_ranks || j.kind != JobKind::noise;
    }
    for (unsigned w = 0; w < noise.writers; ++w) {
      PFSC_REQUIRE(ids.insert(lustre::sched::kNoiseJobBase + w).second,
                   "Scenario: noise JobId collides with an explicit job");
    }
    PFSC_REQUIRE(any_ranks,
                 "Scenario: job list needs at least one non-noise job");
    return;
  }
  PFSC_REQUIRE(nprocs >= 1, "Scenario: nprocs must be positive");
  switch (workload) {
    case Workload::ior:
      break;
    case Workload::plfs:
      PFSC_REQUIRE(ior.hints.driver == mpiio::Driver::ad_plfs,
                   "Scenario: plfs workload needs hints.driver == ad_plfs");
      break;
    case Workload::multi:
      PFSC_REQUIRE(jobs >= 1, "Scenario: multi workload needs at least one job");
      PFSC_REQUIRE(ior.hints.driver != mpiio::Driver::ad_plfs,
                   "Scenario: use the plfs workload for ad_plfs");
      break;
    case Workload::probe:
      // A sampler or controller sends the run to the fleet route (see
      // is_legacy_probe), as for the same list given through from_jobs.
      PFSC_REQUIRE(writers >= 1, "Scenario: probe needs at least one writer");
      break;
    case Workload::jobs:
      throw UsageError("Scenario: Workload::jobs needs a non-empty job_list");
  }
}

namespace {

sim::Task noise_writer(lustre::Client& client, std::string path,
                       lustre::StripeSettings settings, Bytes total,
                       Bytes transfer, Seconds arrival) {
  // Arrival 0 adds no event: desugared legacy noise stays bit-for-bit.
  if (arrival > 0.0) co_await client.fs().engine().delay(arrival);
  auto file = co_await client.create(std::move(path), settings);
  if (!file.ok()) co_return;
  for (Bytes off = 0; off < total; off += transfer) {
    const Bytes chunk = std::min(transfer, total - off);
    const auto e = co_await client.write_buffered(file.value, off, chunk);
    if (e != lustre::Errno::ok) co_return;
  }
  (void)co_await client.flush();
}

/// Spawn one JobKind::noise entry (an independent client streaming a
/// default-layout file): writer i (= job_id - kNoiseJobBase) is client
/// "noise<i>" writing "/noise.<seed%1000>.<i>".
void spawn_noise_job(lustre::FileSystem& fs,
                     std::vector<std::unique_ptr<lustre::Client>>& clients,
                     const JobSpec& job, std::uint64_t seed) {
  const std::uint32_t i = job.job_id >= lustre::sched::kNoiseJobBase
                              ? job.job_id - lustre::sched::kNoiseJobBase
                              : job.job_id;
  lustre::StripeSettings settings;
  settings.stripe_count = job.stripes;
  settings.stripe_size = job.stripe_size;
  clients.push_back(
      std::make_unique<lustre::Client>(fs, "noise" + std::to_string(i)));
  clients.back()->set_job(job.job_id);
  fs.engine().spawn(noise_writer(
      *clients.back(),
      "/noise." + std::to_string(seed % 1000) + "." + std::to_string(i),
      settings, job.bytes, job.transfer_size, job.arrival));
}

/// Shared run state both routes build: fresh engine, seeded file system,
/// runtime, background noise jobs, optional controller, optional event
/// recorder (+ the one periodic sampler, mirroring into it).
struct Rig {
  sim::Engine eng;
  std::unique_ptr<trace::Recorder> recorder;  // scenario.trace.mode != off
  lustre::FileSystem fs;
  mpi::Runtime rt;
  std::vector<std::unique_ptr<lustre::Client>> noise_clients;
  std::unique_ptr<ctrl::Controller> controller;  // scenario.ctrl.mode != off
  std::unique_ptr<trace::Sampler> sampler;  // recorder && trace.interval > 0
  std::size_t total_bytes_series = 0;       // sampler's total-bytes series

  Rig(const Scenario& s, int nprocs, std::uint64_t seed,
      const std::vector<const JobSpec*>& noise_jobs)
      : eng(s.platform.event_queue),
        fs(eng, s.platform, seed),
        rt(fs, nprocs, s.procs_per_node) {
    if (s.trace.mode != trace::TraceMode::off) {
      recorder = std::make_unique<trace::Recorder>(s.trace);
      eng.set_recorder(recorder.get());
    }
    for (const JobSpec* job : noise_jobs) {
      spawn_noise_job(fs, noise_clients, *job, seed);
    }
    // `off` builds no controller at all: zero engine events, goldens
    // bit-for-bit (the same null pattern as admission control).
    if (s.ctrl.mode != ctrl::CtrlMode::off) {
      controller =
          std::make_unique<ctrl::Controller>(eng, s.ctrl, fs, recorder.get());
    }
    if (recorder && s.trace.interval > 0.0) {
      sampler = std::make_unique<trace::Sampler>(eng, s.trace.interval);
      sampler->add_instruments(trace::link_instruments("fabric", fs.fabric()),
                               fs.liveness());
      sampler->add_instruments(trace::sched_instruments(fs), fs.liveness());
      total_bytes_series = sampler->add_instruments(
          trace::total_bytes_instruments(fs), fs.liveness());
    }
  }

  /// Start the controller and the sampler, stopping each once `done()`
  /// first returns true (so neither can keep the drained engine alive).
  void start_sampler(std::function<bool()> done) {
    if (controller) {
      controller->watch([done] { return !done(); });
      controller->start();
    }
    if (sampler) {
      sampler->watch([done = std::move(done)] { return !done(); });
      sampler->start();
    }
  }

  /// Harvest the controller's decision log into the observation.
  void finish_ctrl(Observation& obs, const Scenario& s) {
    if (!controller) return;
    obs.ctrl_mode = s.ctrl.mode;
    obs.ctrl_actions = controller->take_actions();
  }

  void export_bandwidth(Observation& obs) const {
    if (!sampler) return;
    obs.bandwidth =
        trace::Sampler::bandwidth_timeline(sampler->series(total_bytes_series));
  }

  /// Roll the recorder up into the observation and write --trace_out.
  /// Called after the run drains, from both routes.
  void finish_trace(Observation& obs, const Scenario& s, std::uint64_t seed) {
    if (!recorder) return;
    obs.traced = true;
    obs.trace_summary = trace::collect_summary(fs, recorder.get());
    if (s.trace.mode == trace::TraceMode::full) {
      obs.trace_json = trace::export_chrome_trace(*recorder);
    }
    if (s.trace.out.empty()) return;
    const std::string path = trace::resolve_trace_path(s.trace.out, seed);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    PFSC_REQUIRE(out.good(), "trace: cannot open --trace_out path " + path);
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
      out << trace::export_counters_csv(*recorder);
    } else if (s.trace.mode == trace::TraceMode::full) {
      out << obs.trace_json;
    } else {
      out << obs.trace_summary.format();
    }
    out.flush();
    PFSC_REQUIRE(out.good(), "trace: failed writing " + path);
  }
};

double headline_metric(const ior::Config& cfg, const ior::Result& res) {
  return cfg.write_file ? res.write_mbps : res.read_mbps;
}

/// The desugared job list, partitioned into rank-carrying jobs (ior, plfs,
/// probe writers — these occupy MPI world ranks in contiguous blocks, in
/// list order) and background noise jobs (spawned outside the runtime).
struct JobPlan {
  std::vector<JobSpec> all;                // spawn/report order
  std::vector<const JobSpec*> rank_jobs;   // pointers into `all`
  std::vector<const JobSpec*> noise_jobs;  // pointers into `all`
  std::vector<int> first_rank;             // per rank job: world-rank base
  int total_ranks = 0;
  /// More than one rank job, all arriving at t = 0: the paper's
  /// simultaneous-submission design (world barrier, then comm_split).
  /// Otherwise every job runs free on a communicator of its own.
  bool together = false;

  explicit JobPlan(std::vector<JobSpec> jobs) : all(std::move(jobs)) {
    bool all_at_zero = true;
    for (const JobSpec& j : all) {
      if (j.kind == JobKind::noise) {
        noise_jobs.push_back(&j);
        continue;
      }
      rank_jobs.push_back(&j);
      first_rank.push_back(total_ranks);
      total_ranks += j.nprocs;
      all_at_zero = all_at_zero && j.arrival == 0.0;
    }
    together = all_at_zero && rank_jobs.size() > 1;
  }

  /// Job index owning `world_rank` (blocks are contiguous and in order).
  std::size_t color_of(int world_rank) const {
    auto it = std::upper_bound(first_rank.begin(), first_rank.end(), world_rank);
    return static_cast<std::size_t>(it - first_rank.begin()) - 1;
  }
};

/// Per-job run state for the fleet executor.
struct JobSlot {
  const JobSpec* spec = nullptr;
  int base = 0;  // first world rank
  /// The job's communicator: a comm_split child when the plan starts
  /// together (set by the split), else one the executor owns.
  mpi::Communicator* comm = nullptr;
  std::unique_ptr<ior::IorJob> job;
  /// Released by local rank 0 once the job is admitted and its IorJob
  /// built; null when nothing has to wait (free-running and ungated, or an
  /// ungated probe job).
  std::unique_ptr<sim::Event> ready;
  // probe_writer outcomes, one slot per writer rank.
  std::vector<double> writer_mbps;
  std::vector<Seconds> writer_time;
  int writers_done = 0;

  bool finished() const {
    if (spec->kind == JobKind::probe_writer) {
      return writers_done == spec->nprocs;
    }
    return job != nullptr && job->finished();
  }
};

/// Fig. 2-style writer body, generalised to run inside any fleet: stream
/// `spec.bytes` to one file pinned on the target OST via stripe_offset.
sim::Co<void> probe_writer_body(Rig& rig, JobSlot& slot, int local_rank,
                                lustre::Client& client, std::uint64_t seed) {
  const JobSpec& spec = *slot.spec;
  sim::Engine& eng = rig.eng;
  client.set_job(spec.job_id);

  const auto target = static_cast<lustre::OstIndex>(
      spec.target_ost >= 0
          ? static_cast<std::uint32_t>(spec.target_ost) %
                rig.fs.params().ost_count
          : seed % rig.fs.params().ost_count);
  const std::string dir = "/probe";
  if (!rig.fs.exists(dir)) {
    auto made = co_await client.mkdir(dir);
    PFSC_ASSERT(made.ok() || made.err == lustre::Errno::eexist);
  }

  lustre::StripeSettings settings;
  settings.stripe_count = 1;
  settings.stripe_size = 1_MiB;
  settings.stripe_offset = static_cast<std::int32_t>(target);
  const std::string path = dir + "/j" + std::to_string(spec.job_id) + "." +
                           std::to_string(local_rank);
  auto created = co_await client.create(path, settings);
  PFSC_ASSERT(created.ok());

  const Seconds t0 = eng.now();
  Bytes done = 0;
  while (done < spec.bytes) {
    const Bytes chunk = std::min<Bytes>(spec.transfer_size, spec.bytes - done);
    const lustre::Errno e = co_await client.write_buffered(created.value, done, chunk);
    PFSC_ASSERT(e == lustre::Errno::ok);
    done += chunk;
  }
  const lustre::Errno fe = co_await client.flush();
  PFSC_ASSERT(fe == lustre::Errno::ok);
  const Seconds elapsed = eng.now() - t0;
  slot.writer_time[static_cast<std::size_t>(local_rank)] = elapsed;
  slot.writer_mbps[static_cast<std::size_t>(local_rank)] =
      bandwidth_mbps(spec.bytes, elapsed);
  ++slot.writers_done;
}

/// Create every missing parent directory of the job files, then release
/// the ranks. Only spawned when some job writes outside "/" (legacy
/// scenarios never do, so their event sequences carry no extra events).
sim::Task make_dirs(lustre::Client& client, std::vector<std::string> dirs,
                    sim::Event& done) {
  for (const std::string& dir : dirs) {
    if (!client.fs().exists(dir)) {
      const auto made = co_await client.mkdir(dir);
      PFSC_ASSERT(made.ok() || made.err == lustre::Errno::eexist);
    }
  }
  done.trigger();
}

/// Proper ancestor directories of `path`, shallowest first ("/a/b/f" ->
/// ["/a", "/a/b"]).
void collect_parents(const std::string& path, std::vector<std::string>& out) {
  for (std::size_t pos = path.find('/', 1); pos != std::string::npos;
       pos = path.find('/', pos + 1)) {
    if (pos > 1) out.push_back(path.substr(0, pos));
  }
}

/// One rank's main in the fleet executor. The prelude is the only fork:
/// a plan that starts together barriers on the world and carves it into
/// one sub-communicator per job (the historical multi workload's exact
/// event sequence, pinned by the golden tests); any other plan runs free,
/// each job sleeping until its own arrival on its own communicator (jobs
/// arriving later genuinely find the system in whatever state the earlier
/// ones left it). After the prelude every rank passes the same gate, where
/// local rank 0 admits the job and builds its IorJob (the detuned stripe
/// hint must be known first), then runs the job body.
sim::Task fleet_rank_main(Rig& rig, const JobPlan& plan,
                          std::vector<JobSlot>& slots, int world_rank,
                          plfs::Plfs* plfs, std::uint64_t seed,
                          sim::Event* setup_done,
                          AdmissionController* admission) {
  const std::size_t color = plan.color_of(world_rank);
  JobSlot& slot = slots[color];
  int rank = world_rank - slot.base;
  if (setup_done != nullptr && !setup_done->fired()) {
    co_await setup_done->wait();
  }
  if (plan.together) {
    mpi::Communicator& world = rig.rt.world();
    co_await world.barrier(world_rank);
    const auto sr =
        co_await world.split(world_rank, static_cast<int>(color), world_rank);
    slot.comm = sr.comm;
    rank = sr.rank;
  } else if (slot.spec->arrival > 0.0) {
    co_await rig.eng.delay(slot.spec->arrival);
  }
  if (slot.ready != nullptr) {
    if (rank == 0) {
      std::uint32_t detuned = 0;
      if (admission != nullptr) detuned = co_await admission->admit(*slot.spec);
      // Probe layouts are not stripe-tunable; admission can only delay them.
      if (slot.spec->kind != JobKind::probe_writer) {
        ior::Config cfg = slot.spec->ior;
        if (detuned != 0) cfg.hints.striping_factor = detuned;
        slot.job = std::make_unique<ior::IorJob>(
            *slot.comm, rig.fs, std::move(cfg),
            slot.spec->kind == JobKind::plfs ? plfs : nullptr);
      }
      slot.ready->trigger();
    } else if (!slot.ready->fired()) {
      co_await slot.ready->wait();
    }
  }
  if (slot.spec->kind == JobKind::probe_writer) {
    co_await probe_writer_body(rig, slot, rank, rig.rt.client(world_rank), seed);
  } else {
    co_await slot.job->run_rank(rank, rig.rt.client(world_rank));
  }
  if (admission != nullptr && slot.finished()) admission->finished(*slot.spec);
}

/// Fold one probe job's per-writer outcomes into an ior::Result so fleet
/// aggregation is uniform: write_mbps is the job's aggregate bandwidth.
ior::Result probe_slot_result(const JobSlot& slot) {
  ior::Result r;
  r.total_bytes = slot.spec->bytes * static_cast<Bytes>(slot.spec->nprocs);
  for (std::size_t w = 0; w < slot.writer_mbps.size(); ++w) {
    r.write_mbps += slot.writer_mbps[w];
    r.write_time = std::max(r.write_time, slot.writer_time[w]);
  }
  r.verified = true;
  return r;
}

/// The fleet executor: every scenario except the legacy Fig. 2 probe.
Observation run_fleet(const Scenario& s, JobPlan plan, std::uint64_t seed) {
  Rig rig(s, plan.total_ranks, seed, plan.noise_jobs);
  std::unique_ptr<plfs::Plfs> plfs;
  for (const JobSpec* spec : plan.rank_jobs) {
    if (spec->kind == JobKind::plfs && !plfs) {
      plfs = std::make_unique<plfs::Plfs>(rig.fs);
    }
  }
  // `always` builds no controller at all: the null pointer keeps every
  // admission hook a single test and the event sequences untouched.
  std::unique_ptr<AdmissionController> admission;
  if (s.admission.policy != AdmissionPolicy::always) {
    admission = std::make_unique<AdmissionController>(
        rig.eng, s.admission, s.platform, rig.recorder.get());
  }

  // Free-running jobs never comm_split, so each gets its own world.
  std::deque<mpi::Communicator> free_comms;
  std::vector<JobSlot> slots(plan.rank_jobs.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    JobSlot& slot = slots[i];
    slot.spec = plan.rank_jobs[i];
    slot.base = plan.first_rank[i];
    const bool probe = slot.spec->kind == JobKind::probe_writer;
    if (probe) {
      slot.writer_mbps.assign(static_cast<std::size_t>(slot.spec->nprocs), 0.0);
      slot.writer_time.assign(static_cast<std::size_t>(slot.spec->nprocs), 0.0);
    } else if (!plan.together) {
      slot.comm = &free_comms.emplace_back(rig.eng, slot.spec->nprocs);
    }
    if (admission != nullptr || (plan.together && !probe)) {
      slot.ready = std::make_unique<sim::Event>(rig.eng);
    } else if (!probe) {
      // Free-running and ungated: nothing to wait for, build it up front.
      slot.job = std::make_unique<ior::IorJob>(
          *slot.comm, rig.fs, slot.spec->ior,
          slot.spec->kind == JobKind::plfs ? plfs.get() : nullptr);
    }
  }

  // Parent directories the job files need (outside "/": fleets often use
  // "/fleet/<app>.<id>"). Created by a setup task the ranks wait on; empty
  // for every legacy scenario, which therefore sees no extra events.
  std::vector<std::string> dirs;
  for (const JobSpec* spec : plan.rank_jobs) {
    if (spec->kind != JobKind::probe_writer) {
      collect_parents(spec->ior.test_file, dirs);
    }
  }
  std::sort(dirs.begin(), dirs.end());
  dirs.erase(std::unique(dirs.begin(), dirs.end()), dirs.end());
  std::unique_ptr<lustre::Client> setup_client;
  std::unique_ptr<sim::Event> setup_done;
  if (!dirs.empty()) {
    setup_client = std::make_unique<lustre::Client>(rig.fs, "setup");
    setup_done = std::make_unique<sim::Event>(rig.eng);
    rig.eng.spawn(make_dirs(*setup_client, std::move(dirs), *setup_done));
  }

  rig.start_sampler([&slots] {
    return std::all_of(slots.begin(), slots.end(),
                       [](const JobSlot& slot) { return slot.finished(); });
  });
  rig.rt.run_to_completion([&](int world_rank) -> sim::Task {
    return fleet_rank_main(rig, plan, slots, world_rank, plfs.get(), seed,
                           setup_done.get(), admission.get());
  });

  Observation obs;
  std::vector<lustre::InodeId> files;
  double mean = 0.0;
  for (JobSlot& slot : slots) {
    PFSC_ASSERT(slot.finished());
    if (slot.spec->kind == JobKind::probe_writer) {
      obs.per_job.push_back(probe_slot_result(slot));
      mean += obs.per_job.back().write_mbps;
      obs.total_mbps += obs.per_job.back().write_mbps;
      continue;
    }
    obs.per_job.push_back(slot.job->result());
    const double headline = headline_metric(slot.spec->ior, obs.per_job.back());
    mean += headline;
    obs.total_mbps += headline;
    if (slot.spec->kind == JobKind::plfs) {
      for (const lustre::InodeId ino :
           plfs->backend_data_files(slot.spec->ior.test_file)) {
        files.push_back(ino);
      }
    } else {
      for (const lustre::InodeId ino : slot.job->file_inos()) {
        files.push_back(ino);
      }
    }
  }
  mean /= static_cast<double>(slots.size());
  obs.ior = obs.per_job.front();
  // A lone job reports its own result; a fleet, the per-job mean.
  if (slots.size() > 1) obs.ior.write_mbps = mean;
  obs.metric = mean;
  obs.contention = core::observe(rig.fs.ost_occupancy(files));
  if (admission != nullptr) obs.admissions = admission->take_records();
  rig.finish_ctrl(obs, s);
  rig.export_bandwidth(obs);
  rig.finish_trace(obs, s, seed);
  return obs;
}

/// All-probe job list with a synchronised start: the historical Fig. 2
/// probe benchmark (shared directory, world barrier, one target OST).
Observation run_probe(const Scenario& s, const JobPlan& plan,
                      std::uint64_t seed) {
  Rig rig(s, plan.total_ranks, seed, plan.noise_jobs);
  const JobSpec& first = *plan.rank_jobs.front();
  ior::ProbeConfig cfg;
  cfg.num_writers = static_cast<std::uint32_t>(plan.total_ranks);
  cfg.bytes_per_writer = first.bytes;
  cfg.transfer_size = first.transfer_size;
  // Any OST works (the paper pins one via stripe_offset); randomising the
  // pick per repetition lets background noise land on it sometimes, which
  // is where the single-writer variance of Figure 2's band comes from.
  cfg.target_ost = static_cast<lustre::OstIndex>(
      first.target_ost >= 0
          ? static_cast<std::uint32_t>(first.target_ost) %
                rig.fs.params().ost_count
          : seed % rig.fs.params().ost_count);

  Observation obs;
  obs.probe = ior::run_probe(rig.rt, cfg);
  obs.metric = obs.probe.mean_mbps;
  for (const double mbps : obs.probe.per_process_mbps) {
    ior::Result r;
    r.write_mbps = mbps;
    r.total_bytes = cfg.bytes_per_writer;
    r.write_time =
        mbps > 0.0 ? static_cast<double>(cfg.bytes_per_writer) / (mbps * 1.0e6)
                   : 0.0;
    r.verified = true;
    obs.per_job.push_back(r);
    obs.total_mbps += mbps;
  }
  rig.finish_trace(obs, s, seed);
  return obs;
}

/// True when the job list is the historical probe benchmark's shape: all
/// probe writers, synchronised start, one writer per job with consecutive
/// ids from 0, uniform payload, and one shared (or seed-derived) target —
/// and the run asks for nothing run_probe lacks (a sampler, a controller,
/// an admission gate).
bool is_legacy_probe(const JobPlan& plan, const Scenario& s) {
  if (plan.rank_jobs.empty() || s.trace.interval > 0.0) return false;
  if (s.ctrl.mode != ctrl::CtrlMode::off) return false;
  if (s.admission.policy != AdmissionPolicy::always) return false;
  const JobSpec& first = *plan.rank_jobs.front();
  for (std::size_t i = 0; i < plan.rank_jobs.size(); ++i) {
    const JobSpec& j = *plan.rank_jobs[i];
    if (j.kind != JobKind::probe_writer || j.nprocs != 1 || j.arrival != 0.0) {
      return false;
    }
    if (j.job_id != static_cast<lustre::sched::JobId>(i)) return false;
    if (j.bytes != first.bytes || j.transfer_size != first.transfer_size ||
        j.target_ost != first.target_ost) {
      return false;
    }
  }
  return true;
}

/// PFSC_TRACE / PFSC_TRACE_OUT / PFSC_TRACE_INTERVAL environment override,
/// consulted only when the scenario itself leaves tracing off (so a
/// scenario that explicitly configures tracing wins over the environment,
/// and OUT/INTERVAL alone cannot switch tracing on).
void apply_trace_env(Scenario& s) {
  if (s.trace.mode != trace::TraceMode::off) return;
  const char* mode = std::getenv("PFSC_TRACE");
  if (mode == nullptr || *mode == '\0') return;
  PFSC_REQUIRE(trace::parse_trace_mode(mode, s.trace.mode),
               "PFSC_TRACE: expected one of: off, summary, full");
  if (s.trace.mode == trace::TraceMode::off) return;
  if (const char* out = std::getenv("PFSC_TRACE_OUT");
      out != nullptr && *out != '\0') {
    s.trace.out = out;
  }
  if (const char* interval = std::getenv("PFSC_TRACE_INTERVAL");
      interval != nullptr && *interval != '\0') {
    char* end = nullptr;
    s.trace.interval = std::strtod(interval, &end);
    PFSC_REQUIRE(end != interval && *end == '\0' && s.trace.interval >= 0.0,
                 "PFSC_TRACE_INTERVAL: expected a non-negative number");
  }
}

}  // namespace

Observation run_scenario(const Scenario& scenario, std::uint64_t seed) {
  Scenario effective = scenario;
  apply_trace_env(effective);
  const Scenario& s = effective;
  s.validate();

  JobPlan plan(s.jobs_desugared());
  PFSC_REQUIRE(!plan.rank_jobs.empty(),
               "Scenario: needs at least one non-noise job");

  Observation obs = is_legacy_probe(plan, s)
                        ? run_probe(s, plan, seed)
                        : run_fleet(s, std::move(plan), seed);
  obs.workload = scenario.job_list.empty() ? scenario.workload : Workload::jobs;
  obs.seed = seed;
  if (obs.jobs.empty()) obs.jobs = s.jobs_desugared();
  return obs;
}

}  // namespace pfsc::harness
