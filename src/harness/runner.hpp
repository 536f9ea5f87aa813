// ParallelRunner: execute a RunPlan's points across a std::thread pool.
//
// Every (point, repetition) task constructs a fresh engine + file system
// from its pre-derived seed and shares nothing with any other task, so the
// pool is embarrassingly parallel: workers pull task indices off one atomic
// counter and write results into disjoint pre-sized slots. Aggregation
// happens after join in plan order, which makes the RunSet — including its
// CSV serialisation — bit-identical for threads=1 and threads=N.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/run_plan.hpp"
#include "harness/scenario.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pfsc::harness {

/// One plan point's aggregated results.
struct PointResult {
  std::vector<double> coords;      // one value per plan axis
  std::vector<Observation> reps;   // repetition order
  std::vector<double> samples;     // headline metric per repetition
  ConfidenceInterval ci;           // 95% Student-t over samples
};

/// How a RunSet was executed: worker threads the runner actually spawned
/// and the host's hardware thread count. Pure provenance — never feeds
/// back into results, which are thread-count-independent by construction.
struct RunProvenance {
  unsigned rep_threads = 1;
  unsigned hardware_threads = 1;
};

/// Structured results of one plan execution.
class RunSet {
 public:
  RunSet(std::vector<std::string> axis_names, std::vector<PointResult> points);

  const std::vector<std::string>& axis_names() const { return axis_names_; }
  const std::vector<PointResult>& points() const { return points_; }
  const PointResult& point(std::size_t i) const;
  std::size_t size() const { return points_.size(); }

  void set_provenance(RunProvenance p) { provenance_ = p; }
  const RunProvenance& provenance() const { return provenance_; }

  /// One CSV row per repetition: axis coordinates, repetition index, seed,
  /// and the headline metric with full round-trip precision. Deterministic
  /// for a given plan regardless of the thread count that produced it.
  /// `with_provenance` prepends a `#`-comment header recording the thread
  /// counts — off by default so byte-compare of serial vs parallel output
  /// (and any stored fixture) stays meaningful.
  std::string to_csv(bool with_provenance = false) const;

  /// Per-point summary: coordinates, mean, CI bounds, sample count.
  TextTable summary_table(int precision = 0) const;

 private:
  std::vector<std::string> axis_names_;
  std::vector<PointResult> points_;
  RunProvenance provenance_;
};

class ParallelRunner {
 public:
  /// threads == 0: use the hardware thread count
  /// (std::thread::hardware_concurrency(), at least 1).
  explicit ParallelRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Expand the plan over `base` and run every (point, repetition) task.
  /// Throws the first task exception after all workers stop; partial
  /// results are discarded. The pool never exceeds the task count; the
  /// effective count is recorded in the RunSet's provenance.
  RunSet run(const Scenario& base, const RunPlan& plan) const;

 private:
  unsigned threads_;
};

}  // namespace pfsc::harness
