// pfsc_perfbench: the repository benchmark program.
//
//   pfsc_perfbench --workload <quartet|fleet> --seed N --seconds S
//                  --trace <0|1>
//
// Every workload is a closed loop over "scenario units" (one Fig. 3
// quartet, or one 1,000-job fleet). Inputs come only from --seed. It times
// calls into the simulator's public entry points from outside
// (run_scenario, ParallelRunner::run, the replay pipeline,
// plan_two_phase_cyclic) and reads per-layer counts from Observation and
// trace::RunSummary.
//
// --trace 0: set up the inputs, then run whole passes over them, untraced,
// until --seconds have passed, setting up again after every pass; report
// the end-to-end metrics from each input's median unit and the median
// set-up, in reference-host seconds (see HostReference).
// --trace 1: one untraced unit, one `summary`-traced unit and one unit per
// trace category with a one-event buffer, so recorded + dropped events is
// the exact event count of that layer; then the layer probes (two-phase
// planning, the replay stages, a stripe sweep through ParallelRunner);
// report the per-layer metrics.
//
// Every unit's outputs are checked (IOR verification, byte totals, repeat
// and traced-vs-untraced digests; with --trace 1 also the thread-count
// independence of the sweep and the joblog fixed point). The last stdout
// line is one JSON object; perfbench/run.py turns it into the benchmark's
// result line. Exit status is nonzero when any check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "mpiio/two_phase.hpp"
#include "replay/analytics.hpp"
#include "replay/fleet.hpp"
#include "replay/log.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace pfsc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double resident_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// splitmix64 step: independent sub-seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a over a canonical rendering of simulated outputs.
class Digest {
 public:
  void add(std::string_view s) {
    for (const unsigned char c : s) {
      h_ = (h_ ^ c) * 0x100000001B3ull;
    }
  }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    add(std::string_view(buf));
  }
  void add(std::uint64_t v) { add(std::to_string(v) + ";"); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Simulated statistics of one run, independent of tracing and threads.
std::uint64_t observation_digest(const harness::Observation& obs) {
  Digest d;
  d.add(obs.seed);
  for (const ior::Result& r : obs.per_job) {
    d.add(static_cast<std::uint64_t>(r.err));
    d.add(r.write_time);
    d.add(r.read_time);
    d.add(static_cast<std::uint64_t>(r.total_bytes));
    d.add(r.write_mbps);
    d.add(r.read_mbps);
    d.add(static_cast<std::uint64_t>(r.verified));
  }
  d.add(obs.contention.d_inuse);
  d.add(obs.contention.d_req);
  d.add(obs.contention.d_load);
  for (const std::uint32_t h : obs.contention.histogram) d.add(std::uint64_t{h});
  d.add(obs.metric);
  d.add(obs.total_mbps);
  return d.value();
}

/// Failed output checks of one process: how many, and the first few.
class Checks {
 public:
  static constexpr std::size_t kKept = 20;
  bool expect(bool ok, const std::string& what) {
    if (!ok) {
      std::lock_guard<std::mutex> lock(mu_);
      if (++count_ <= kKept) failures_.push_back(what);
    }
    return ok;
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = failures_;
    if (count_ > kKept) {
      out.push_back("... and " + std::to_string(count_ - kKept) + " more");
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::size_t count_ = 0;
  std::vector<std::string> failures_;
};

/// Check every IOR-carrying job of `obs` and return its simulated bytes
/// (written plus read).
double check_jobs(const harness::Observation& obs, const std::string& label,
                  Checks& checks) {
  std::vector<const harness::JobSpec*> rank_jobs;
  for (const harness::JobSpec& j : obs.jobs) {
    if (j.kind != harness::JobKind::noise) rank_jobs.push_back(&j);
  }
  if (!checks.expect(rank_jobs.size() == obs.per_job.size(),
                     label + ": per_job does not match the job list")) {
    return 0.0;
  }
  double bytes = 0.0;
  for (std::size_t i = 0; i < rank_jobs.size(); ++i) {
    const harness::JobSpec& spec = *rank_jobs[i];
    const ior::Result& r = obs.per_job[i];
    const std::string job = label + " job " + std::to_string(spec.job_id);
    checks.expect(r.err == lustre::Errno::ok, job + ": I/O error");
    if (spec.kind == harness::JobKind::probe_writer) continue;
    checks.expect(r.verified, job + ": IOR verification failed");
    const Bytes asked = spec.ior.block_size * spec.ior.segment_count *
                        static_cast<Bytes>(spec.nprocs);
    checks.expect(r.total_bytes == asked,
                  job + ": total_bytes " + std::to_string(r.total_bytes) +
                      " != requested " + std::to_string(asked));
    const int phases = (spec.ior.write_file ? 1 : 0) + (spec.ior.read_file ? 1 : 0);
    bytes += static_cast<double>(r.total_bytes) * phases;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What one unit produced: every Observation it made (one per simulated
/// run).
struct UnitOut {
  std::vector<harness::Observation> obs;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build every input of the run's pool from the seed (timed as setup).
  virtual void setup(std::uint64_t seed) = 0;
  /// Inputs built by setup; units cycle through them.
  virtual std::size_t pool_size() const = 0;
  /// Run pool entry `i` with `tc` applied to every simulated run.
  virtual UnitOut run(std::size_t i, const trace::TraceConfig& tc) const = 0;
  /// Untimed checks on the inputs that need extra work.
  virtual void check(Checks&) const {}
};

ior::Config tuned_ior() {
  ior::Config cfg;
  cfg.hints.driver = mpiio::Driver::ad_lustre;
  cfg.hints.striping_factor = 160;
  cfg.hints.striping_unit = 128_MiB;
  return cfg;
}

harness::Scenario traced(harness::Scenario s, const trace::TraceConfig& tc) {
  s.trace = tc;
  return s;
}

/// A scaled-down copy of a legacy-shape scenario (16 ranks per job, one
/// segment): run once during set-up so lazy initialisation and cold caches
/// are paid before the timed loop.
harness::Scenario miniature(harness::Scenario s) {
  s.nprocs = 16;
  s.ior.segment_count = 1;
  return s;
}

/// One scenario run per unit: `quartet`.
class OneScenario final : public Workload {
 public:
  explicit OneScenario(harness::Scenario (*make)()) : make_(make) {}
  void setup(std::uint64_t seed) override {
    scenario_ = make_();
    scenario_.validate();
    seed_ = derive_seed(seed, 0);
    harness::run_scenario(miniature(scenario_), seed_);
  }
  std::size_t pool_size() const override { return 1; }
  UnitOut run(std::size_t, const trace::TraceConfig& tc) const override {
    UnitOut out;
    out.obs.push_back(harness::run_scenario(traced(scenario_, tc), seed_));
    return out;
  }

 private:
  harness::Scenario (*make_)();
  harness::Scenario scenario_;
  std::uint64_t seed_ = 0;
};

/// IOR segments per rank in `quartet`: a tenth of the paper's 100, so that
/// a unit takes about a second and a run times many of them.
constexpr std::uint32_t kSegments = 10;

/// Fig. 3: four simultaneous 1,024-rank tuned IOR jobs (legacy multi route).
harness::Scenario quartet() {
  ior::Config cfg = tuned_ior();
  cfg.segment_count = kSegments;
  return harness::Scenario::multi(4, 1024, cfg);
}

/// The replay layer's input path for one synthetic fleet, stage by stage.
struct FleetInput {
  std::string text;           // emitted joblog
  harness::Scenario scenario;  // lowered from the parsed log
  std::uint64_t seed = 0;
  double stage_s[4] = {0, 0, 0, 0};  // generate, emit, parse, lower
};

FleetInput make_fleet(std::uint64_t fleet_seed) {
  FleetInput in;
  in.seed = fleet_seed;
  replay::FleetConfig cfg;
  cfg.jobs = 1000;
  cfg.seed = fleet_seed;
  auto t = Clock::now();
  const replay::JobLog generated = replay::generate_fleet(cfg);
  in.stage_s[0] = seconds_since(t);
  t = Clock::now();
  in.text = replay::emit_joblog(generated);
  in.stage_s[1] = seconds_since(t);
  t = Clock::now();
  const replay::JobLog parsed = replay::parse_joblog(in.text, "<fleet>");
  in.stage_s[2] = seconds_since(t);
  t = Clock::now();
  in.scenario = replay::to_scenario(parsed);
  in.stage_s[3] = seconds_since(t);
  return in;
}

/// 1,000-job default-mix synthetic fleets on the free-running fleet route,
/// each followed by the fleet analytics; a pool of 4 fleets, so that a run
/// times each of them several times.
class Fleet final : public Workload {
 public:
  static constexpr std::size_t kFleets = 4;
  void setup(std::uint64_t seed) override {
    pool_.clear();
    for (std::size_t i = 0; i < kFleets; ++i) {
      pool_.push_back(make_fleet(derive_seed(seed, i)));
    }
    // Warm-up: an 8-job fleet through the same route and analytics.
    replay::FleetConfig small;
    small.jobs = 8;
    small.seed = derive_seed(seed, kFleets);
    const harness::Scenario s = replay::to_scenario(replay::generate_fleet(small));
    replay::analyze_fleet(harness::run_scenario(s, small.seed), s.platform);
  }
  std::size_t pool_size() const override { return pool_.size(); }
  UnitOut run(std::size_t i, const trace::TraceConfig& tc) const override {
    const FleetInput& in = pool_[i];
    UnitOut out;
    out.obs.push_back(harness::run_scenario(traced(in.scenario, tc), in.seed));
    // The report carries trace-derived served bytes, so it joins the unit
    // (and its cost) but not the trace-independent digest.
    const replay::FleetReport report =
        replay::analyze_fleet(out.obs.back(), in.scenario.platform);
    if (report.jobs.size() != in.scenario.job_list.size()) {
      throw std::runtime_error("fleet report rows do not match the jobs");
    }
    return out;
  }
  void check(Checks& checks) const override {
    for (const FleetInput& in : pool_) {
      const std::string again =
          replay::emit_joblog(replay::parse_joblog(in.text, "<fleet>"));
      checks.expect(again == in.text,
                    "fleet " + std::to_string(in.seed) +
                        ": emit(parse(log)) is not a fixed point");
    }
  }

 private:
  std::vector<FleetInput> pool_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "quartet") return std::make_unique<OneScenario>(quartet);
  if (name == "fleet") return std::make_unique<Fleet>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Running and checking units
// ---------------------------------------------------------------------------

struct Ran {
  bool ok = false;
  double seconds = 0.0;
  double sim_bytes = 0.0;
  std::uint64_t digest = 0;
  UnitOut out;
};

/// Run one unit, timing it, and check its outputs. Exceptions count as a
/// failed unit.
Ran run_checked(const Workload& w, std::size_t i, const trace::TraceConfig& tc,
                const std::string& label, Checks& checks) {
  Ran r;
  const std::size_t before = checks.count();
  try {
    const auto t0 = Clock::now();
    r.out = w.run(i, tc);
    r.seconds = seconds_since(t0);
    Digest d;
    for (const harness::Observation& o : r.out.obs) {
      r.sim_bytes += check_jobs(o, label, checks);
      d.add(observation_digest(o));
    }
    r.digest = d.value();
  } catch (const std::exception& e) {
    checks.expect(false, label + ": threw: " + e.what());
  } catch (...) {
    checks.expect(false, label + ": threw a non-standard exception");
  }
  r.ok = checks.count() == before;
  return r;
}

/// One digest for the whole input pool of a run.
std::uint64_t pool_digest(const std::vector<std::uint64_t>& unit_digests) {
  Digest d;
  for (const std::uint64_t x : unit_digests) d.add(x);
  return d.value();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Run `jobs` closures on up to `threads` workers.
void run_parallel(std::vector<std::function<void()>> jobs, unsigned threads) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) jobs[i]();
  };
  std::vector<std::thread> pool;
  const unsigned n = std::max(1u, std::min<unsigned>(threads, jobs.size()));
  for (unsigned t = 1; t < n; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// Host-speed reference. The host is a share of a machine that other
/// tenants load, and they slow the simulator for seconds to tens of minutes
/// at a time, by up to x2. This fixed miniature event loop slows with it by
/// about the same factor over such a spell: a binary heap of 64 Ki timed
/// events; each of 150,000 dispatches updates a random 32-byte record of a
/// 32 MiB table and schedules the next event, as the engine does. None of it
/// is simulator code, so a change to the simulator leaves its time alone.
///
/// It runs before every pass over the pool and every set-up sample, and
/// every gated time of the run is scaled by kSeconds / (the run's mean
/// reference time): seconds on a host where the reference takes kSeconds.
/// One factor per run, from the mean: a 28 ms sample catches the host in
/// one state, while a unit lasts through many, so the mean of many samples
/// is what matches the slowdown a unit sees.
class HostReference {
 public:
  /// What the reference took on the host the benchmark was sized on (4
  /// vCPUs of an Intel Xeon, GCC 12.2, Release) when it was not slowed.
  static constexpr double kSeconds = 0.028;

  HostReference() : table_(kMask + 1) { run(); }  // first touch is untimed
  void sample() {
    const auto t0 = Clock::now();
    run();
    times_.push_back(seconds_since(t0));
  }
  /// Multiply host seconds of this run by this to get reference-host seconds.
  double factor() const { return kSeconds / mean_s(); }
  double mean_s() const {
    double sum = 0.0;
    for (const double t : times_) sum += t;
    return sum / static_cast<double>(times_.size());
  }
  const std::vector<double>& times() const { return times_; }
  std::uint64_t checksum() const { return sink_; }

 private:
  struct Record {
    std::uint64_t a, b, c, d;
  };
  static constexpr std::uint32_t kMask = (1u << 20) - 1;

  void run() {
    constexpr int kLive = 1 << 16, kEvents = 150000;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {  // xorshift64
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    auto u01 = [&next] { return static_cast<double>(next() >> 11) * 0x1.0p-53; };
    std::vector<std::pair<double, std::uint32_t>> heap;
    heap.reserve(kLive);
    for (int i = 0; i < kLive; ++i) {
      heap.emplace_back(u01(), static_cast<std::uint32_t>(next()) & kMask);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (int e = 0; e < kEvents; ++e) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [t, id] = heap.back();
      Record& r = table_[id];
      r.a += static_cast<std::uint64_t>(e);
      r.b ^= r.a * 0x9E3779B97F4A7C15ull;
      r.c += r.b >> 7;
      heap.back() = {t + u01(), static_cast<std::uint32_t>(r.b ^ next()) & kMask};
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    for (const auto& ev : heap) sink_ += ev.second;
  }

  std::vector<Record> table_;
  std::vector<double> times_;
  std::uint64_t sink_ = 0;  // keeps the loop's results live
};

/// Set-up timing. Each sample is a batch of set-ups sized to take at least
/// 20 ms, because `quartet` sets up in about a millisecond, below what one
/// clock read resolves steadily. One batch runs before the timed loop and
/// one after every pass over the pool, so the samples span the whole run
/// rather than its first moments.
class SetupTimer {
 public:
  SetupTimer(Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}
  void sample() {
    for (;;) {
      const auto t0 = Clock::now();
      for (unsigned k = 0; k < batch_; ++k) w_.setup(seed_);
      const double dt = seconds_since(t0);
      repeats_ += batch_;
      if (per_setup_.empty() && dt < 0.02 && batch_ < (1u << 24)) {
        batch_ *= 4;  // still calibrating the batch size
        continue;
      }
      per_setup_.push_back(dt / batch_);
      return;
    }
  }
  std::size_t samples() const { return per_setup_.size(); }
  unsigned repeats() const { return repeats_; }
  const std::vector<double>& times() const { return per_setup_; }

 private:
  Workload& w_;
  std::uint64_t seed_;
  unsigned batch_ = 1, repeats_ = 0;
  std::vector<double> per_setup_;
};

/// plan_two_phase_cyclic over every collective call of one quartet job:
/// 1,024 ranks on 64 nodes, 100 segments x 4 MiB blocks written 1 MiB at a
/// time, 160 x 128 MiB layout, 16 MiB collective buffer. Median of 5.
double time_two_phase_plan(Checks& checks) {
  const int n = 1024;
  const Bytes block = 4_MiB, transfer = 1_MiB;
  std::vector<int> aggs;
  for (int r = 0; r < n; r += 16) aggs.push_back(r);
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    Bytes planned = 0;
    const auto t0 = Clock::now();
    for (Bytes seg = 0; seg < 100; ++seg) {
      for (Bytes t = 0; t < block / transfer; ++t) {
        std::vector<mpiio::IoRequest> reqs;
        reqs.reserve(n);
        for (int r = 0; r < n; ++r) {
          reqs.push_back({r, (seg * n + static_cast<Bytes>(r)) * block + t * transfer,
                          transfer});
        }
        for (const auto& plan :
             mpiio::plan_two_phase_cyclic(reqs, aggs, 16_MiB, 128_MiB)) {
          for (const auto& round : plan.rounds) planned += round.present_bytes;
        }
      }
    }
    times.push_back(seconds_since(t0));
    checks.expect(planned == 100 * block * n,
                  "two-phase plan does not cover every requested byte");
  }
  return median(times);
}

/// ParallelRunner probe: a Fig. 1-shaped stripe sweep (256 ranks, striping
/// factor x unit, 2 repetitions, 10 segments) on `threads` workers. Many
/// small runs, so per-run engine/FS construction and the pool weigh most.
/// Returns process CPU time / (wall x threads); checks every run's IOR
/// results and that RunSet::to_csv() is byte-identical at 1 thread.
double runner_cpu_util(std::uint64_t seed, unsigned threads, Checks& checks) {
  harness::Scenario base;
  base.nprocs = 256;
  base.ior.segment_count = 10;
  base.ior.hints.driver = mpiio::Driver::ad_lustre;
  base.validate();
  harness::RunPlan plan;
  plan.sweep_striping_factor({8, 16, 32, 64, 128, 160})
      .sweep_striping_unit({static_cast<double>(32_MiB), static_cast<double>(64_MiB),
                            static_cast<double>(128_MiB), static_cast<double>(256_MiB)})
      .repetitions(2)
      .base_seed(derive_seed(seed, 0));
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const harness::RunSet set = harness::ParallelRunner(threads).run(base, plan);
  const double util = (cpu_seconds() - cpu0) / (seconds_since(t0) * threads);
  for (const harness::PointResult& p : set.points()) {
    for (const harness::Observation& o : p.reps) check_jobs(o, "sweep", checks);
  }
  checks.expect(harness::ParallelRunner(1).run(base, plan).to_csv() == set.to_csv(),
                "sweep: RunSet CSV differs between 1 and " + std::to_string(threads) +
                    " threads");
  return util;
}

/// Exact events of one layer: every event of `cat` was either recorded or
/// dropped by the one-slot buffer. Engine dispatch spans are emitted with
/// engine_sample_every = 1, so N dispatches make 2N - 1 begin/end events.
std::uint64_t layer_events(const harness::Observation& o, trace::Cat cat) {
  const std::uint64_t n = o.trace_summary.recorded_events + o.trace_summary.dropped_events;
  return cat == trace::Cat::engine ? (n + 1) / 2 : n;
}

/// Set-up samples a timed run takes at least, whatever --seconds says.
constexpr std::size_t kSetupSamples = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pfsc_perfbench: %s\nusage: pfsc_perfbench --workload "
               "<quartet|fleet> --seed N --seconds S "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

int run_benchmark(const Options& opt) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Runner-probe workers and parallel traced runs: two, never more than the
  // host has.
  const unsigned threads = std::min(hw, 2u);
  const std::unique_ptr<Workload> w = make_workload(opt.workload);
  if (w == nullptr) usage(("unknown workload " + opt.workload).c_str());

  Checks checks;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t digest = 0;
  std::string info;  // extra JSON members describing the run

  auto note = [&](const Ran& r) {
    ++attempted;
    if (!r.ok) ++failed;
  };
  // Checks that need work of their own (the joblog round trip, the runner
  // probe), each counted as one unit. They run with the traced run, which
  // is untimed, so the timed runs stay short.
  auto run_extra_check = [&](const std::string& what, const std::function<void()>& f) {
    const std::size_t before = checks.count();
    try {
      f();
    } catch (const std::exception& e) {
      checks.expect(false, what + " threw: " + e.what());
    }
    ++attempted;
    if (checks.count() != before) ++failed;
  };

  if (!opt.trace) {
    // Closed loop: the next unit starts when the previous one finished.
    // Only whole passes over the pool run, so every input weighs the same;
    // one set-up sample follows each pass. A host reference sample precedes
    // every pass and every set-up sample. The reference table stays
    // resident for the whole loop; it is not the simulator's memory, so
    // peak_rss_mb leaves it out.
    const double rss_before_reference = resident_mb();
    HostReference ref;
    const double reference_mb = resident_mb() - rss_before_reference;
    SetupTimer setup(*w, opt.seed);
    auto sample_setup = [&] {
      ref.sample();
      setup.sample();
    };
    sample_setup();
    const std::size_t pool = w->pool_size();

    std::vector<double> times;
    std::vector<std::uint64_t> digests(pool, 0);
    std::vector<double> pool_bytes(pool, 0.0);
    std::vector<std::vector<double>> pool_times(pool);
    const auto start = Clock::now();
    for (std::size_t pass = 0;
         pass == 0 || seconds_since(start) < opt.seconds || setup.samples() < kSetupSamples;
         ++pass) {
      ref.sample();
      for (std::size_t i = 0; i < pool; ++i) {
        const std::string label = opt.workload + " unit " + std::to_string(times.size());
        Ran r = run_checked(*w, i, {}, label, checks);
        if (pass == 0) {
          digests[i] = r.digest;
          pool_bytes[i] = r.sim_bytes;
        } else {
          r.ok &= checks.expect(r.digest == digests[i],
                                label + ": repeat of pool input " +
                                    std::to_string(i) + " simulated differently");
        }
        note(r);
        times.push_back(r.seconds);
        pool_times[i].push_back(r.seconds);
      }
      sample_setup();
    }
    // run_s.p50 is each input's median unit, averaged over the pool; a pass
    // over the pool takes the sum of those medians. Gated times are in
    // reference-host seconds.
    const double host = ref.factor();
    double pass_bytes = 0.0, pass_seconds = 0.0;
    for (std::size_t i = 0; i < pool; ++i) {
      pass_bytes += pool_bytes[i];
      pass_seconds += median(pool_times[i]) * host;
    }
    const double rss = peak_rss_mb() - reference_mb;
    digest = pool_digest(digests);

    // The tail is the highest percentile with at least 10 samples beyond
    // it; with fewer than 20 units that would not exceed the median, so
    // the maximum stands in for it.
    std::vector<double> sorted = times;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const bool has_tail = n >= 20;
    const double tail = has_tail ? sorted[n - 11] : sorted.back();
    char label[64];
    if (has_tail) {
      std::snprintf(label, sizeof label, "p%.1f", 100.0 * static_cast<double>(n - 10) / n);
    } else {
      std::snprintf(label, sizeof label, "max");
    }
    metrics.push_back({"run_s.p50", pass_seconds / static_cast<double>(pool), "s"});
    metrics.push_back({"sim_gib_per_s", pass_bytes / double(1_GiB) / pass_seconds, "GiB/s"});
    metrics.push_back({"peak_rss_mb", rss, "MB"});
    metrics.push_back({"setup_s", median(setup.times()) * host, "s"});
    info += ",\"units\":" + std::to_string(n) + ",\"tail_s\":" + num(tail * host) +
            ",\"tail\":\"" + label + "\",\"host_p50_s\":" + num(median(times)) +
            ",\"host_setup_s\":" + num(median(setup.times())) +
            ",\"reference_mean_s\":" + num(ref.mean_s()) +
            ",\"reference_checksum\":" + std::to_string(ref.checksum()) +
            ",\"setup_samples\":" + std::to_string(setup.samples()) +
            ",\"setup_repeats\":" + std::to_string(setup.repeats());
    auto list = [&info](const char* key, const std::vector<double>& v) {
      info += std::string(",\"") + key + "\":[";
      for (std::size_t k = 0; k < v.size(); ++k) info += (k ? "," : "") + num(v[k]);
      info += "]";
    };
    list("unit_s", times);
    list("reference_each_s", ref.times());

    metrics.push_back({"ok_frac",
                       1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
                       "frac"});
  } else {
    w->setup(opt.seed);
    const std::size_t pool = w->pool_size();
    // Untraced baseline unit: its run time and the digest every traced run
    // must match.
    const Ran base = run_checked(*w, 0, {}, opt.workload + " untraced", checks);
    note(base);
    // The rest of the pool, untraced, so the digest covers what --trace 0
    // simulates.
    std::vector<std::uint64_t> digests{base.digest};
    for (std::size_t i = 1; i < pool; ++i) {
      const Ran r = run_checked(*w, i, {}, opt.workload + " untraced " + std::to_string(i),
                                checks);
      note(r);
      digests.push_back(r.digest);
    }
    digest = pool_digest(digests);

    // One run per layer with a one-event buffer: recorded + dropped counts
    // that layer exactly with almost no memory.
    const std::vector<trace::Cat> cats{trace::Cat::engine, trace::Cat::link,
                                       trace::Cat::disk,   trace::Cat::client,
                                       trace::Cat::sched,  trace::Cat::plfs};
    std::vector<Ran> counted(cats.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t c = 0; c < cats.size(); ++c) {
      jobs.push_back([&, c] {
        trace::TraceConfig tc;
        tc.mode = trace::TraceMode::full;
        tc.categories = trace::cat_bit(cats[c]);
        tc.capacity = 1;
        tc.engine_sample_every = 1;
        counted[c] = run_checked(*w, 0, tc,
                                 opt.workload + " traced " + trace::cat_name(cats[c]),
                                 checks);
      });
    }
    run_parallel(std::move(jobs), threads);
    std::map<trace::Cat, std::uint64_t> events;
    for (std::size_t c = 0; c < cats.size(); ++c) {
      counted[c].ok &= checks.expect(
          counted[c].digest == base.digest,
          opt.workload + ": traced run (" + trace::cat_name(cats[c]) +
              ") simulated differently from the untraced run");
      note(counted[c]);
      std::uint64_t total = 0;
      for (const harness::Observation& o : counted[c].out.obs) {
        total += layer_events(o, cats[c]);
      }
      events[cats[c]] = total;
    }

    // A summary-mode run with room for every scheduler event: the mean
    // queue depth, the per-OST bytes and the tracing overhead.
    std::uint64_t max_sched = 0;
    for (const harness::Observation& o : counted[4].out.obs) {
      max_sched = std::max(max_sched, layer_events(o, trace::Cat::sched));
    }
    trace::TraceConfig summary_tc;
    summary_tc.mode = trace::TraceMode::summary;
    summary_tc.capacity = static_cast<std::size_t>(max_sched) + 1;
    Ran summary =
        run_checked(*w, 0, summary_tc, opt.workload + " traced summary", checks);
    summary.ok &= checks.expect(
        summary.digest == base.digest,
        opt.workload + ": summary-traced run simulated differently");
    note(summary);
    double queue_depth = 0.0, osts_in_use = 0.0, max_load = 0.0;
    std::uint64_t dropped = 0;
    std::vector<double> ost_bytes;
    for (const harness::Observation& o : summary.out.obs) {
      queue_depth += o.trace_summary.mean_queue_depth;
      dropped += o.trace_summary.dropped_events;
      ost_bytes.resize(std::max(ost_bytes.size(), o.trace_summary.ost_bytes.size()));
      for (std::size_t k = 0; k < o.trace_summary.ost_bytes.size(); ++k) {
        ost_bytes[k] += static_cast<double>(o.trace_summary.ost_bytes[k]);
      }
      osts_in_use += o.contention.d_inuse;
      const auto& hist = o.contention.histogram;
      for (std::size_t k = hist.size(); k-- > 0;) {
        if (hist[k] != 0) {
          max_load = std::max(max_load, static_cast<double>(k));
          break;
        }
      }
    }
    const double runs = static_cast<double>(std::max<std::size_t>(1, summary.out.obs.size()));
    double max_bytes = 0.0, sum_bytes = 0.0;
    for (const double b : ost_bytes) {
      max_bytes = std::max(max_bytes, b);
      sum_bytes += b;
    }
    const double mean_bytes = ost_bytes.empty() ? 0.0 : sum_bytes / ost_bytes.size();

    // Layer probes timed from outside: two-phase planning, the replay
    // pipeline on the seed's 1,000-job fleet, analytics on this run.
    const double plan_s = time_two_phase_plan(checks);
    std::vector<double> stage[4];
    for (int rep = 0; rep < 3; ++rep) {
      const FleetInput in = make_fleet(derive_seed(opt.seed, 0));
      for (int s = 0; s < 4; ++s) stage[s].push_back(in.stage_s[s]);
    }
    std::vector<double> analyze;
    const harness::Observation& first = base.out.obs.front();
    const auto platform = hw::cab_lscratchc();
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      const replay::FleetReport report = replay::analyze_fleet(first, platform);
      analyze.push_back(seconds_since(t0));
      checks.expect(!report.jobs.empty(), "fleet analytics produced no rows");
    }

    run_extra_check(opt.workload + " checks", [&] { w->check(checks); });
    double cpu_util = 0.0;
    run_extra_check("runner probe",
                    [&] { cpu_util = runner_cpu_util(opt.seed, threads, checks); });
    const double engine = static_cast<double>(events[trace::Cat::engine]);
    metrics.push_back({"sim.engine_events", engine, "count"});
    metrics.push_back({"sim.events_per_s", engine / base.seconds, "1/s"});
    metrics.push_back({"sim.link_events", double(events[trace::Cat::link]), "count"});
    metrics.push_back({"lustre.sched_events", double(events[trace::Cat::sched]), "count"});
    metrics.push_back({"lustre.sched_queue_depth", queue_depth / runs, "requests"});
    metrics.push_back({"hw.disk_events", double(events[trace::Cat::disk]), "count"});
    metrics.push_back({"hw.ost_bytes_max_over_mean",
                       mean_bytes > 0.0 ? max_bytes / mean_bytes : 0.0, "ratio"});
    metrics.push_back({"lustre.client_events", double(events[trace::Cat::client]), "count"});
    metrics.push_back({"plfs.events", double(events[trace::Cat::plfs]), "count"});
    metrics.push_back({"lustre.osts_in_use", osts_in_use / runs, "count"});
    metrics.push_back({"lustre.max_ost_load", max_load, "count"});
    metrics.push_back({"mpiio.plan_s", plan_s, "s"});
    metrics.push_back({"replay.generate_s", median(stage[0]), "s"});
    metrics.push_back({"replay.emit_s", median(stage[1]), "s"});
    metrics.push_back({"replay.parse_s", median(stage[2]), "s"});
    metrics.push_back({"replay.lower_s", median(stage[3]), "s"});
    metrics.push_back({"replay.analyze_s", median(analyze), "s"});
    metrics.push_back({"harness.runner_cpu_util", cpu_util, "ratio"});
    metrics.push_back({"trace.overhead", summary.seconds / base.seconds, "ratio"});
    metrics.push_back({"trace.summary_dropped_events", double(dropped), "count"});
    info += ",\"untraced_run_s\":" + std::to_string(base.seconds) +
            ",\"summary_run_s\":" + std::to_string(summary.seconds) +
            ",\"engine_events_rule\":\"computed: dispatch spans x "
            "engine_sample_every (1)\"";
  }

  const std::vector<std::string> failures = checks.failures();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "pfsc_perfbench: check failed: %s\n", f.c_str());
  }
  failed = std::max<std::uint64_t>(failed, failures.empty() ? 0 : 1);

  std::string out = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                    std::to_string(opt.seed) + ",\"trace\":" +
                    (opt.trace ? "1" : "0") + ",\"threads\":" +
                    std::to_string(threads) + ",\"build_type\":\"" +
                    PFSC_PERFBENCH_BUILD_TYPE + "\",\"compiler\":\"" +
                    PFSC_PERFBENCH_COMPILER + "\",\"digest\":\"" + hex(digest) +
                    "\",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + info +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(failures[i]) + "\"";
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[48];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + value +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    // Set-up failed: no result line, nonzero exit.
    std::fprintf(stderr, "pfsc_perfbench: %s\n", e.what());
    return 1;
  }
}
