// The first consumer of the control plane: a rule-based feedback
// controller that samples the live instruments and retunes the I/O path
// mid-run through the TuningBus.
//
// The Controller is a periodic simulation process (same shape as
// trace::Sampler: a tick loop with a cancellable between-ticks wake, a
// watch predicate, and a max-tick bound). Every tick it reads
// instantaneous, side-effect-free signals — scheduler queue depth,
// per-job served-byte deltas, Jain fairness, per-OST object counts — and
// applies whichever rules the mode enables:
//
//  * pfl  — progressive file layouts: new files stripe wide while the
//           system is calm and narrow during a multi-job storm, so each
//           OST serves fewer competing streams exactly when the disk
//           model's contention amplification would bite (hw/disk.hpp).
//  * qos  — scheduler retuning: when per-job fairness collapses below
//           `jain_low`, tighten SchedTuning (halved quantum / slots /
//           rate / depth) on every OSS; restore the platform baseline
//           once Jain recovers above `jain_high`.
//  * full — pfl + qos, plus a placement rule: swap to load_aware
//           allocation when per-OST object counts grow imbalanced, back
//           to the configured policy once they level out.
//
// Flap damping: the qos and placement rules carry hysteresis (distinct
// enter/exit thresholds); the pfl rule instead smooths its writer count
// over `active_window` ticks. Every rule family additionally has a
// cooldown — two actions of the same family (pfl / qos / placement) are
// never closer than `cooldown` seconds. Decisions are recorded
// as CtrlAction rows (surfaced in fleet analytics as the "adaptation"
// block) and, when a Recorder is attached, as instants on a "ctrl" track.
//
// Determinism: the controller reads and writes simulator state from its
// own engine events, so reports are byte-identical at any --threads. With
// mode == off nothing is constructed and no engine event is added —
// goldens stay bit-for-bit.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/retunable.hpp"
#include "lustre/fs.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::ctrl {

enum class CtrlMode {
  off,   // no controller at all (default; zero events, bit-for-bit)
  pfl,   // progressive layouts for new files
  qos,   // scheduler retuning on fairness collapse
  full,  // pfl + qos + placement rebalancing
};

const char* ctrl_mode_name(CtrlMode mode);

struct CtrlConfig {
  CtrlMode mode = CtrlMode::off;
  /// Tick period of the control loop.
  Seconds interval = 0.25;
  /// Minimum time between two actions of the same rule family.
  Seconds cooldown = 1.0;
  /// qos hysteresis: tighten below jain_low, restore above jain_high.
  double jain_low = 0.85;
  double jain_high = 0.95;
  /// pfl: this many concurrently-writing jobs counts as a storm.
  std::size_t storm_jobs = 2;
  /// pfl: a job counts as an active writer if it received OSS service
  /// within this many ticks. Smooths over bursty service (FIFO drains one
  /// job's requests at a time, so a single-tick delta under-counts).
  std::size_t active_window = 4;
  /// full: swap placement above imbalance_high (max/mean objects per
  /// OST), swap back below imbalance_low.
  double imbalance_high = 2.0;
  double imbalance_low = 1.25;
  /// Lifetime bound, like trace::Sampler's (a watch predicate is the
  /// usual stop condition; this is the backstop).
  std::size_t max_ticks = 100000;
};

/// One controller decision, in simulated time.
struct CtrlAction {
  Seconds at = 0.0;
  std::string endpoint;  // TuningBus endpoint the value went to
  std::string rule;      // which rule fired (pfl_calm, qos_tighten, ...)
  std::string detail;    // human-readable value summary
};

class Controller {
 public:
  /// `recorder` (optional) receives one instant per action on a "ctrl"
  /// track under Cat::sched. The FileSystem must outlive the Controller.
  Controller(sim::Engine& eng, CtrlConfig cfg, lustre::FileSystem& fs,
             trace::Recorder* recorder = nullptr);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Keep ticking only while `active()` is true (checked after each tick).
  void watch(std::function<bool()> active) { active_ = std::move(active); }

  /// Arm the baseline (mode-dependent, e.g. the calm PFL spec — applied
  /// synchronously so files created at t=0 already see it) and spawn the
  /// tick loop.
  void start();
  /// Stop ticking; cancels the pending between-ticks wake so a stopped
  /// controller does not keep the engine alive.
  void stop();

  /// The endpoint registry (exposed so tests and future policies can
  /// apply values by name themselves).
  TuningBus& bus() { return bus_; }

  const std::vector<CtrlAction>& actions() const { return actions_; }
  std::vector<CtrlAction> take_actions() { return std::move(actions_); }
  const CtrlConfig& config() const { return cfg_; }
  std::size_t ticks() const { return ticks_; }

 private:
  struct TickWait {
    Controller* self;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      self->pending_wake_ = self->eng_->schedule_after(h, self->cfg_.interval);
    }
    void await_resume() const noexcept { self->pending_wake_ = {}; }
  };

  sim::Task run();
  void tick();
  void rule_pfl();
  void rule_qos();
  void rule_placement();
  /// Apply `value` to `endpoint` and record the decision. `family` is the
  /// rule-family key the cooldown is tracked under ("pfl", "qos",
  /// "placement" — the same key in_cooldown queries); `rule` is the
  /// per-action name kept for traces and CtrlAction rows.
  void act(const char* endpoint, const char* family, const char* rule,
           std::string detail, const TuneValue& value);
  bool in_cooldown(const char* family) const;
  /// Jobs whose served bytes grew since the previous tick.
  std::size_t active_jobs();
  lustre::PflSpec calm_spec() const;
  lustre::PflSpec storm_spec(std::size_t active) const;

  sim::Engine* eng_;
  CtrlConfig cfg_;
  lustre::FileSystem* fs_;
  trace::Recorder* recorder_;
  trace::TrackHandle track_;

  TuningBus bus_;
  std::vector<std::unique_ptr<Retunable>> endpoints_;

  std::function<bool()> active_;
  bool started_ = false;
  bool stopped_ = false;
  std::size_t ticks_ = 0;
  sim::WakeToken pending_wake_;

  // -- rule state --------------------------------------------------------
  std::map<std::string, Seconds, std::less<>> last_action_;  // per family
  std::map<lustre::sched::JobId, Bytes> served_prev_;
  std::map<lustre::sched::JobId, Seconds> last_grew_;  // last service seen
  bool storm_ = false;
  std::uint32_t storm_width_ = 0;  // stripe count last storm spec used
  lustre::sched::SchedTuning sched_baseline_;
  bool tightened_ = false;
  lustre::PlacementKind placement_baseline_;
  bool rebalancing_ = false;

  std::vector<CtrlAction> actions_;
};

}  // namespace pfsc::ctrl
