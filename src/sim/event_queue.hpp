// Pluggable pending-event queues for the simulation engine.
//
// The engine dispatches the globally minimal (t, seq) event on every step
// (see ScheduledEvent for the key), so any queue that pops in that order
// is bit-for-bit interchangeable with any other — the implementations
// below differ only in cost:
//
//  * BinaryHeapQueue — std::priority_queue over the key: O(log n) per
//    push/pop. The reference implementation; simple, and what the engine
//    shipped with historically.
//  * LadderQueue     — calendar queue (Brown '88) of min-heap buckets with
//    lazy resizing: events hash into `buckets` of `width` simulated
//    seconds each by floor(t / width), a cursor walks the buckets in year
//    order, and each bucket keeps its events as a tiny binary heap. With
//    the width tracking the observed event-time spread (recomputed from
//    the live events at every capacity doubling/halving) buckets hold O(1)
//    events, making push/pop amortised O(1) instead of O(log n). A flat
//    "today" ring short-circuits the calendar for schedule-at-now wakeups
//    (the bulk of a coroutine DES's traffic), which arrive pre-sorted.
//    This is the queue the DES literature recommends once event counts
//    reach the tens of millions a 4,096-rank PLFS run executes.
//
// Determinism: pop() always returns the minimal (t, seq) pending event,
// so every implementation yields the same dispatch sequence; the golden
// regression tests and the heap-vs-ladder property test pin this.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "support/units.hpp"

namespace pfsc::sim {

/// One scheduled resume, ordered by the key (t, seq): `seq` is the
/// engine-wide schedule counter, unique and monotone, so events due at the
/// same instant run in the order they were scheduled.
struct ScheduledEvent {
  Seconds t = 0.0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> h;
};
static_assert(sizeof(ScheduledEvent) == 24,
              "the event key is (t, seq) plus the handle");

enum class EventQueuePolicy {
  binary_heap,  // reference O(log n) heap
  ladder,       // calendar/ladder queue, amortised O(1) (default)
};

const char* event_queue_policy_name(EventQueuePolicy policy);

/// Interface for the engine's pending-event set, ordered by the (t, seq)
/// key.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void push(const ScheduledEvent& ev) = 0;
  /// The minimal pending event, or nullptr when empty. The pointer is
  /// valid until the next push/pop. Non-const: implementations may advance
  /// internal cursors while locating the minimum.
  virtual const ScheduledEvent* peek() = 0;
  /// Remove and return the minimal pending event. Requires !empty().
  virtual ScheduledEvent pop() = 0;

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  virtual EventQueuePolicy policy() const = 0;
};

/// Reference implementation: a binary heap over (t, seq).
class BinaryHeapQueue final : public EventQueue {
 public:
  void push(const ScheduledEvent& ev) override {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  const ScheduledEvent* peek() override {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  ScheduledEvent pop() override;

  bool empty() const override { return heap_.empty(); }
  std::size_t size() const override { return heap_.size(); }
  EventQueuePolicy policy() const override {
    return EventQueuePolicy::binary_heap;
  }

 private:
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::vector<ScheduledEvent> heap_;
};

/// Calendar queue of min-heap buckets; see file header. All operations are
/// amortised O(1) when the bucket width matches the event-time spread,
/// which the lazy resize maintains.
class LadderQueue final : public EventQueue {
 public:
  LadderQueue();

  void push(const ScheduledEvent& ev) override;
  const ScheduledEvent* peek() override;
  ScheduledEvent pop() override;

  bool empty() const override { return size_ == 0; }
  std::size_t size() const override { return size_; }
  EventQueuePolicy policy() const override { return EventQueuePolicy::ladder; }

  // -- introspection (tests/benchmarks) ---------------------------------
  std::size_t bucket_count() const { return buckets_.size(); }
  double bucket_width() const { return width_; }

 private:
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  using Bucket = std::vector<ScheduledEvent>;  // min-heap on (t, seq)

  /// Virtual bucket index of time `t` (the bucket array wraps this by
  /// `mask_`, one wrap per "year"). Placement and the cursor's window test
  /// both use this exact function, so floating-point rounding can never
  /// strand an event between a bucket and its window. Multiplies by the
  /// cached reciprocal: one fewer division on both hot paths.
  std::uint64_t vbucket(Seconds t) const {
    const double q = t * inv_width_;
    // Clamp absurd quotients (huge t over a tiny width) into the final
    // year rather than overflowing the conversion.
    if (q >= 9.0e18) return static_cast<std::uint64_t>(9.0e18);
    return static_cast<std::uint64_t>(q);
  }

  /// Point `cached_` at the bucket holding the global minimum; returns
  /// false when empty. Amortised O(1): the cursor resumes where it left
  /// off, and a full fruitless lap falls back to a direct scan + jump.
  bool locate_min();
  /// Rebuild with `nbuckets` buckets and a width recomputed from the
  /// observed spread of the live events.
  void rebuild(std::size_t nbuckets);
  void maybe_grow();
  void maybe_shrink();

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;         // buckets_.size() - 1 (power of two)
  double width_ = 1.0;           // seconds per bucket
  double inv_width_ = 1.0;       // 1 / width_, kept in lockstep
  std::uint64_t cur_vb_ = 0;     // cursor: current virtual bucket
  std::size_t size_ = 0;         // total pending (calendar + today ring)
  std::size_t cal_size_ = 0;     // events in buckets_
  std::size_t cached_bucket_ = 0;
  bool cache_valid_ = false;
  std::vector<ScheduledEvent> scratch_;  // rebuild staging, reused

  // "Today" ring: events pushed with t <= the last popped time (the
  // schedule-at-now wakeups joins/semaphores/pipes produce constantly).
  // They arrive already sorted — t is pinned to the engine's now and seq
  // grows monotonically — so a flat ring holds them in pop order with no
  // hashing or heap ops at all.
  std::vector<ScheduledEvent> today_;
  std::size_t today_head_ = 0;
  double t_floor_ = 0.0;  // time of the last popped event (monotone)
};

std::unique_ptr<EventQueue> make_event_queue(EventQueuePolicy policy);

}  // namespace pfsc::sim
