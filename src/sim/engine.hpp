// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events scheduled for the same timestamp
// run in schedule order. Processes are C++20 coroutines; see task.hpp for
// the two coroutine types (`Task` roots and `Co<T>` children) and
// resources.hpp for the synchronisation primitives built on this engine.
//
// The pending-event set is a pluggable sim::EventQueue (event_queue.hpp):
// a monotone radix queue by default, the reference binary heap on
// request. Both pop the globally minimal (time, seq) event, so the choice
// cannot change simulation results — only wall-clock speed. The engine
// also owns a FrameArena (arena.hpp) that recycles coroutine-frame
// allocations for every Task/Co created while it is alive.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace pfsc::trace {
class Recorder;
}

namespace pfsc::sim {

class Task;

/// Handle to one scheduled wakeup, returned by Engine::schedule /
/// schedule_after and accepted by Engine::cancel_scheduled. Identifies the
/// specific queue entry (by its unique schedule sequence number), so
/// cancelling one wakeup can never affect a later re-schedule of the same
/// coroutine frame. Default-constructed tokens are null and cancel nothing.
struct WakeToken {
  std::uint64_t seq = 0;
  explicit operator bool() const { return seq != 0; }
};

class Engine {
 public:
  explicit Engine(EventQueuePolicy policy = EventQueuePolicy::radix);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time in seconds.
  Seconds now() const { return now_; }

  /// Number of events executed so far (for microbenchmarks/diagnostics).
  std::uint64_t executed_events() const { return executed_; }

  /// Entries currently in the pending-event queue, including tombstones of
  /// cancelled wakeups that have not yet been skipped.
  std::size_t pending_events() const { return pending_; }

  /// Which pending-event queue this engine runs on.
  EventQueuePolicy event_queue_policy() const { return queue_->policy(); }

  /// The engine's coroutine-frame arena (statistics for tests/benchmarks).
  const FrameArena& frame_arena() const { return arena_; }

  /// Resume `h` at absolute simulated time `t` (must be >= now()).
  /// The returned token cancels exactly this wakeup; discard it if the
  /// wakeup is never cancelled.
  WakeToken schedule(std::coroutine_handle<> h, Seconds t);

  /// Resume `h` after `dt` seconds.
  WakeToken schedule_after(std::coroutine_handle<> h, Seconds dt) {
    return schedule(h, now_ + dt);
  }

  /// Start a root coroutine; it begins running at the current time.
  /// The engine keeps unfinished roots alive and destroys them at teardown.
  void spawn(Task task);

  /// Run until no events remain. Throws if a root task failed with an
  /// exception that no joiner consumed.
  void run();

  /// Run until simulated time reaches `t` (or the queue drains).
  /// Returns true if the queue drained. Cancelled wakeups do not count as
  /// pending work: an engine whose queue holds only tombstones drains.
  bool run_until(Seconds t);

  /// Awaitable: suspend the current coroutine for `dt` simulated seconds.
  auto delay(Seconds dt) {
    struct Awaiter {
      Engine& eng;
      Seconds dt;
      bool await_ready() const noexcept { return dt <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) { eng.schedule_after(h, dt); }
      void await_resume() const noexcept {}
    };
    PFSC_ASSERT(dt >= 0.0);
    return Awaiter{*this, dt};
  }

  /// Remove the scheduled-but-not-yet-dispatched wakeup identified by
  /// `tok`. The frame is neither resumed nor destroyed (a cancelled root is
  /// reclaimed at engine teardown like any unfinished root); the queue
  /// entry is skipped lazily when it reaches the front, without advancing
  /// time or the event count, and its tombstone is erased at that point.
  /// Null tokens are ignored; a token whose wakeup has already fired must
  /// not be passed (holders reset theirs when it fires), since run_until
  /// counts the cancelled seqs as pending tombstones. Used by
  /// trace::Sampler::stop() to drop its pending wakeup so a stopped
  /// sampler cannot keep the engine alive until the next tick.
  void cancel_scheduled(WakeToken tok) {
    if (tok.seq != 0) cancelled_.insert(tok.seq);
  }

  // -- event tracing -----------------------------------------------------
  /// Attach (or with nullptr detach) an event recorder. Not owned; must
  /// outlive its attachment. Every instrumented layer built on this engine
  /// emits through it; when unset each hook is a single pointer test.
  void set_recorder(trace::Recorder* rec) { recorder_ = rec; }
  trace::Recorder* recorder() const { return recorder_; }

  // -- internal, used by Task machinery --------------------------------
  void note_root_done(std::size_t live_index);
  void note_unhandled(std::exception_ptr e) {
    if (!pending_exception_) pending_exception_ = e;
  }

 private:
  void dispatch_one();
  void rethrow_pending();
  void trace_dispatch();

  // Declared first so the arena outlives every member that may release
  // coroutine frames during destruction (live_roots_, queue_).
  FrameArena arena_;
  FrameArena* prev_arena_ = nullptr;  // restored at destruction

  Seconds now_ = 0.0;
  std::uint64_t seq_ = 0;  // last issued sequence number; tokens start at 1
  std::uint64_t executed_ = 0;
  // Mirrors queue_->size(); lets run()'s loop condition skip a virtual
  // call per dispatched event.
  std::size_t pending_ = 0;
  std::unique_ptr<EventQueue> queue_;
  std::vector<std::coroutine_handle<>> live_roots_;  // unfinished root frames
  std::exception_ptr pending_exception_;
  std::unordered_set<std::uint64_t> cancelled_;  // seqs to skip lazily

  // Dispatch spans are batched (one span per engine_sample_every()
  // dispatches) so the engine category cannot drown the event buffer.
  trace::Recorder* recorder_ = nullptr;
  bool trace_batch_open_ = false;
  std::uint32_t trace_in_batch_ = 0;
};

}  // namespace pfsc::sim
