#include "sim/event_queue.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pfsc::sim {

namespace {

/// Storage, in events, that a bucket emptied by a refill keeps for reuse.
/// Events cascade down through the buckets, so each one would otherwise
/// hold the largest population it ever saw: on the Fig. 3 quartet (about
/// 15 k pending) the buckets together held 100 k events of capacity and
/// peak RSS rose 10 %. Keeping 1,024 bounds the idle storage at 64 x
/// 24 KiB; only a bucket that outgrew it reallocates, about one
/// allocation per thousand events it carries.
constexpr std::size_t kRetainedCapacity = 1024;

}  // namespace

const char* event_queue_policy_name(EventQueuePolicy policy) {
  switch (policy) {
    case EventQueuePolicy::binary_heap: return "binary_heap";
    case EventQueuePolicy::radix: return "radix";
  }
  return "?";
}

ScheduledEvent BinaryHeapQueue::pop() {
  PFSC_ASSERT(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const ScheduledEvent ev = heap_.back();
  heap_.pop_back();
  return ev;
}

// ---------------------------------------------------------------------------
// RadixQueue
// ---------------------------------------------------------------------------

void RadixQueue::push(const ScheduledEvent& ev) {
  const std::uint64_t k = key(ev.t);
  ++size_;
  if (k == base_) {
    // The current instant: seq is monotone, so appending keeps the run in
    // (t, seq) order.
    run_.push_back(ev);
    return;
  }
  PFSC_ASSERT(k > base_);
  const std::size_t b = bucket_of(k);
  buckets_[b].push_back(ev);
  nonempty_ |= std::uint64_t{1} << b;
}

void RadixQueue::refill() {
  const auto b = static_cast<std::size_t>(std::countr_zero(nonempty_));
  std::vector<ScheduledEvent>& bucket = buckets_[b];
  std::uint64_t lo = key(bucket[0].t);
  std::uint64_t hi = lo;
  for (const ScheduledEvent& ev : bucket) {
    const std::uint64_t k = key(ev.t);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  base_ = lo;
  if (lo == hi) {
    // One instant (a collective's fan-out, a tick of lockstep timers):
    // the whole bucket becomes the run, and the run's spare capacity
    // becomes the bucket's.
    run_.swap(bucket);
  } else {
    // Every key in the bucket shares the new base's bits above b, so each
    // one either equals the base or first differs from it below bit b.
    for (const ScheduledEvent& ev : bucket) {
      const std::uint64_t k = key(ev.t);
      if (k == base_) {
        run_.push_back(ev);
      } else {
        const std::size_t to = bucket_of(k);
        buckets_[to].push_back(ev);
        nonempty_ |= std::uint64_t{1} << to;
      }
    }
    bucket.clear();
  }
  if (bucket.capacity() > kRetainedCapacity) {
    std::vector<ScheduledEvent>().swap(bucket);
  }
  nonempty_ &= ~(std::uint64_t{1} << b);
  // A bucket keeps each instant's events in seq order (they enter by
  // append, or by one refill of a bucket that kept it), so the check
  // passes in practice; the sort only guards the invariant.
  const auto by_seq = [](const ScheduledEvent& a, const ScheduledEvent& c) {
    return a.seq < c.seq;
  };
  if (!std::is_sorted(run_.begin(), run_.end(), by_seq)) {
    std::sort(run_.begin(), run_.end(), by_seq);
  }
}

const ScheduledEvent* RadixQueue::peek() {
  if (!run_.empty()) return &run_[run_head_];
  if (nonempty_ == 0) return nullptr;
  // Scan the lowest bucket without rebasing: run_until may stop short of
  // this event and let the model schedule between now() and it.
  const std::vector<ScheduledEvent>& bucket =
      buckets_[static_cast<std::size_t>(std::countr_zero(nonempty_))];
  const ScheduledEvent* best = &bucket[0];
  for (const ScheduledEvent& ev : bucket) {
    if (key(ev.t) < key(best->t) ||
        (key(ev.t) == key(best->t) && ev.seq < best->seq)) {
      best = &ev;
    }
  }
  return best;
}

ScheduledEvent RadixQueue::pop() {
  PFSC_ASSERT(size_ != 0);
  if (run_.empty()) refill();
  const ScheduledEvent ev = run_[run_head_];
  consume_run_head();
  // A drained queue keys from zero again: if the engine popped a cancelled
  // wakeup last, its clock stayed behind that wakeup's time.
  if (--size_ == 0) base_ = 0;
  return ev;
}

std::unique_ptr<EventQueue> make_event_queue(EventQueuePolicy policy) {
  switch (policy) {
    case EventQueuePolicy::binary_heap:
      return std::make_unique<BinaryHeapQueue>();
    case EventQueuePolicy::radix:
      return std::make_unique<RadixQueue>();
  }
  PFSC_REQUIRE(false, "make_event_queue: unknown EventQueuePolicy");
  return nullptr;
}

}  // namespace pfsc::sim
