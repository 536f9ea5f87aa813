#include "sim/engine.hpp"

#include "sim/task.hpp"
#include "trace/recorder.hpp"

namespace pfsc::sim {

Engine::Engine(EventQueuePolicy policy)
    : prev_arena_(FrameArena::exchange_current(&arena_)),
      queue_(make_event_queue(policy)) {
  live_roots_.reserve(64);
}

Engine::~Engine() {
  // Destroy unfinished root frames. Outstanding Task handles to these frames
  // must already have been dropped (documented engine-outlives-tasks rule).
  for (auto h : live_roots_) {
    if (h) h.destroy();
  }
  live_roots_.clear();
  FrameArena::exchange_current(prev_arena_);
}

WakeToken Engine::schedule(std::coroutine_handle<> h, Seconds t) {
  PFSC_ASSERT(h && !h.done());
  PFSC_ASSERT(t >= now_);
  const std::uint64_t seq = ++seq_;  // 1-based: token 0 stays null
  queue_->push(ScheduledEvent{t, seq, h});
  ++pending_;
  return WakeToken{seq};
}

void Engine::spawn(Task task) {
  PFSC_REQUIRE(task.valid(), "Engine::spawn: invalid task");
  auto h = task.handle();
  PFSC_REQUIRE(!h.promise().spawned(), "Engine::spawn: task already spawned");
  h.promise().bind(*this, live_roots_.size());
  live_roots_.push_back(h);
  schedule(h, now_);
}

void Engine::note_root_done(std::size_t live_index) {
  PFSC_ASSERT(live_index < live_roots_.size());
  // Swap-remove; re-index the promise that moved into the vacated slot.
  const std::size_t last = live_roots_.size() - 1;
  if (live_index != last) {
    live_roots_[live_index] = live_roots_[last];
    auto moved = std::coroutine_handle<TaskPromise>::from_address(
        live_roots_[live_index].address());
    moved.promise().set_live_index(live_index);
  }
  live_roots_.pop_back();
}

void Engine::dispatch_one() {
  const ScheduledEvent ev = queue_->pop();
  --pending_;
  if (!cancelled_.empty() && cancelled_.erase(ev.seq) > 0) {
    // Lazily-skipped cancellation: neither time nor the event count moves,
    // so cancelling is invisible to everything still scheduled.
    return;
  }
  PFSC_ASSERT(ev.t >= now_);
  now_ = ev.t;
  ++executed_;
  if (recorder_ != nullptr) trace_dispatch();
  ev.h.resume();
}

/// Roll the engine's batched dispatch span: every engine_sample_every()
/// dispatches, close the open span (arg0 = dispatches it covered) and open
/// the next. A batch span therefore covers real simulated time — event
/// density per track row — instead of a zero-duration blip per event.
void Engine::trace_dispatch() {
  auto* rec = recorder_;
  if (!rec->enabled(trace::Cat::engine)) return;
  if (trace_batch_open_ && ++trace_in_batch_ < rec->engine_sample_every()) {
    return;
  }
  const trace::TrackId track = rec->track("engine");
  if (trace_batch_open_) {
    rec->end(trace::Cat::engine, track, "dispatch", now_, 0,
             static_cast<std::int64_t>(trace_in_batch_));
  }
  rec->begin(trace::Cat::engine, track, "dispatch", now_, 0,
             static_cast<std::int64_t>(executed_));
  trace_batch_open_ = true;
  trace_in_batch_ = 0;
}

void Engine::rethrow_pending() {
  if (pending_exception_) {
    auto e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

void Engine::run() {
  while (pending_ != 0) {
    dispatch_one();
    rethrow_pending();
  }
}

bool Engine::run_until(Seconds t) {
  for (;;) {
    const ScheduledEvent* top = queue_->peek();
    if (top == nullptr) return true;
    if (top->t > t) {
      // Cancelled tombstones are not pending work: an engine left with
      // nothing but a stopped sampler's wakeup reports "drained" instead
      // of fast-forwarding the clock to t. Every cancelled seq names a
      // pending entry, so the counts tell. Tombstones are left in place
      // otherwise: popping one past t would let the queue take its time
      // as the floor, and the model may schedule between t and it.
      if (pending_ != cancelled_.size()) {
        now_ = t;
        return false;
      }
      while (pending_ != 0) {
        const ScheduledEvent ev = queue_->pop();
        --pending_;
        PFSC_ASSERT(cancelled_.erase(ev.seq) > 0);
      }
      return true;
    }
    dispatch_one();  // also pops, and skips, a tombstone due by t
    rethrow_pending();
  }
}

}  // namespace pfsc::sim
