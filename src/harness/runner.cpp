#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

namespace pfsc::harness {

namespace {

unsigned hardware_threads() {
  static const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return n;
}

}  // namespace

RunSet::RunSet(std::vector<std::string> axis_names,
               std::vector<PointResult> points)
    : axis_names_(std::move(axis_names)), points_(std::move(points)) {}

const PointResult& RunSet::point(std::size_t i) const {
  PFSC_REQUIRE(i < points_.size(), "RunSet: bad point index");
  return points_[i];
}

std::string RunSet::to_csv(bool with_provenance) const {
  std::string out;
  if (with_provenance) {
    char line[64];
    std::snprintf(line, sizeof line, "# rep_threads=%u hardware_threads=%u\n",
                  provenance_.rep_threads, provenance_.hardware_threads);
    out += line;
  }
  for (const auto& name : axis_names_) {
    out += name;
    out += ',';
  }
  out += "rep,seed,value\n";
  char buf[64];
  for (const auto& point : points_) {
    for (std::size_t rep = 0; rep < point.samples.size(); ++rep) {
      for (double c : point.coords) {
        std::snprintf(buf, sizeof buf, "%.17g", c);
        out += buf;
        out += ',';
      }
      std::snprintf(buf, sizeof buf, "%zu,%" PRIu64 ",", rep,
                    point.reps[rep].seed);
      out += buf;
      std::snprintf(buf, sizeof buf, "%.17g", point.samples[rep]);
      out += buf;
      out += '\n';
    }
  }
  return out;
}

TextTable RunSet::summary_table(int precision) const {
  std::vector<std::string> header = axis_names_;
  header.push_back("mean");
  header.push_back("ci lower");
  header.push_back("ci upper");
  header.push_back("n");
  TextTable table(std::move(header));
  for (const auto& point : points_) {
    for (double c : point.coords) {
      if (c == static_cast<double>(static_cast<long long>(c))) {
        table.cell(fmt_int(static_cast<long long>(c)));
      } else {
        table.cell(fmt_double(c, 3));
      }
    }
    table.cell(fmt_double(point.ci.mean, precision))
        .cell(fmt_double(point.ci.lower, precision))
        .cell(fmt_double(point.ci.upper, precision))
        .cell(fmt_int(static_cast<long long>(point.samples.size())));
    table.end_row();
  }
  return table;
}

ParallelRunner::ParallelRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = hardware_threads();
}

RunSet ParallelRunner::run(const Scenario& base, const RunPlan& plan) const {
  std::vector<PlanPoint> points = plan.expand(base);
  // Fail fast on misconfiguration before any thread spawns.
  for (const auto& point : points) point.scenario.validate();

  const std::size_t reps = plan.reps();
  const std::size_t total = points.size() * reps;
  std::vector<Observation> observations(total);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&]() noexcept {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      const PlanPoint& point = points[i / reps];
      try {
        observations[i] = run_scenario(point.scenario, point.seeds[i % reps]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const unsigned pool =
      static_cast<unsigned>(std::min<std::size_t>(threads_, total ? total : 1));
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (unsigned t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Aggregate in plan order — independent of which worker ran what.
  std::vector<PointResult> results;
  results.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointResult pr;
    pr.coords = points[p].coords;
    pr.reps.reserve(reps);
    pr.samples.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      pr.reps.push_back(std::move(observations[p * reps + r]));
      pr.samples.push_back(pr.reps.back().metric);
    }
    pr.ci = confidence_interval(pr.samples);
    results.push_back(std::move(pr));
  }
  RunSet set(plan.axis_names(), std::move(results));
  set.set_provenance({pool, hardware_threads()});
  return set;
}

}  // namespace pfsc::harness
