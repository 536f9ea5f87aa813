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
//  * RadixQueue      — monotone radix queue (the default). The engine
//    never schedules before now(), so every pending key is at or above
//    the current instant, the base. Times are keyed on their IEEE-754
//    bit pattern, which orders non-negative doubles like integers, and
//    each event sits in the bucket of the highest bit in which its key
//    differs from the base: 64 buckets, lower buckets hold smaller keys.
//    Events at the base instant form a FIFO run that pops in seq order,
//    so the schedule-at-now wakeups that dominate a coroutine DES are a
//    vector append and a head bump. When the run empties, the lowest
//    non-empty bucket is scanned for its minimum, which becomes the new
//    base; that bucket's events move into the run or into strictly lower
//    buckets. An event therefore moves at most 64 times in its life, and
//    no bucket width has to be tuned to the model's time scales.
//
// Determinism: pop() always returns the minimal (t, seq) pending event,
// so every implementation yields the same dispatch sequence; the golden
// regression tests and the heap-vs-radix property test pin this.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <memory>
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
  radix,        // monotone radix queue, amortised O(1) (default)
};

const char* event_queue_policy_name(EventQueuePolicy policy);

/// Interface for the engine's pending-event set, ordered by the (t, seq)
/// key.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void push(const ScheduledEvent& ev) = 0;
  /// The minimal pending event, or nullptr when empty. The pointer is
  /// valid until the next push/pop. Peeking never changes what a later
  /// push may schedule: anything at or after the last popped time stays
  /// valid, even below the peeked event.
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

/// Monotone radix queue over the (t, seq) key; see file header. Requires
/// the engine's two invariants: no push is timed before the last popped
/// event (a drained queue accepts any time), and `seq` grows with every
/// push.
class RadixQueue final : public EventQueue {
 public:
  void push(const ScheduledEvent& ev) override;
  const ScheduledEvent* peek() override;
  ScheduledEvent pop() override;

  bool empty() const override { return size_ == 0; }
  std::size_t size() const override { return size_; }
  EventQueuePolicy policy() const override { return EventQueuePolicy::radix; }

 private:
  /// Non-negative doubles order exactly as their bit patterns; `+ 0.0`
  /// folds -0.0 onto +0.0 so the two spellings of zero share one key.
  static std::uint64_t key(Seconds t) {
    return std::bit_cast<std::uint64_t>(t + 0.0);
  }
  /// Bucket of a key above the base: the highest bit it differs in.
  std::size_t bucket_of(std::uint64_t k) const {
    return static_cast<std::size_t>(std::bit_width(k ^ base_) - 1);
  }
  /// Rebase on the bucketed minimum: move its instant into the run and
  /// redistribute the rest of its bucket below it.
  void refill();
  /// Advance the run's head, emptying the run once it is drained.
  void consume_run_head() {
    if (++run_head_ == run_.size()) {  // drained: reset, keep capacity
      run_.clear();
      run_head_ = 0;
    }
  }

  // Bucket b holds the events whose key first differs from base_ at bit b,
  // so every key in bucket b is below every key in bucket b + 1. Vectors
  // keep (bounded) capacity across refills: the steady state allocates
  // next to nothing.
  std::array<std::vector<ScheduledEvent>, 64> buckets_;
  std::uint64_t nonempty_ = 0;  // bit b set iff buckets_[b] is non-empty
  std::uint64_t base_ = 0;      // key of the current instant
  // The current instant's events in seq order; pops come from its head,
  // and the vector is emptied (capacity kept) whenever the head drains it.
  std::vector<ScheduledEvent> run_;
  std::size_t run_head_ = 0;
  std::size_t size_ = 0;
};

std::unique_ptr<EventQueue> make_event_queue(EventQueuePolicy policy);

}  // namespace pfsc::sim
