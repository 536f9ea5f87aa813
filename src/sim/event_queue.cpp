#include "sim/event_queue.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pfsc::sim {

namespace {

constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
/// Floor for the bucket width: well below any simulated latency in the
/// model, so the spread-derived width can never degenerate to zero (which
/// would collapse every event into one virtual bucket index).
constexpr double kMinWidth = 1.0e-12;

}  // namespace

const char* event_queue_policy_name(EventQueuePolicy policy) {
  switch (policy) {
    case EventQueuePolicy::binary_heap: return "binary_heap";
    case EventQueuePolicy::ladder: return "ladder";
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
// LadderQueue
// ---------------------------------------------------------------------------

LadderQueue::LadderQueue() : buckets_(kMinBuckets), mask_(kMinBuckets - 1) {}

void LadderQueue::push(const ScheduledEvent& ev) {
  // Immediate wakeups (t no later than the last pop) keep arriving in
  // key order — see the today_ member comment — so they bypass the
  // calendar entirely: O(1) ring append, O(1) ring pop.
  if (ev.t <= t_floor_) {
    today_.push_back(ev);
    ++size_;
    return;
  }
  maybe_grow();
  // An event timed before the cursor's window (possible right after a
  // direct-search jump) joins the cursor bucket; the window test below is
  // by vbucket(t), so it still qualifies immediately and pops in correct
  // key order.
  std::uint64_t vb = vbucket(ev.t);
  if (vb < cur_vb_) vb = cur_vb_;
  Bucket& b = buckets_[vb & mask_];
  b.push_back(ev);
  std::push_heap(b.begin(), b.end(), Later{});
  ++size_;
  ++cal_size_;
  cache_valid_ = false;
}

bool LadderQueue::locate_min() {
  if (cache_valid_) return true;
  if (cal_size_ == 0) return false;
  const std::size_t nbuckets = buckets_.size();
  for (std::size_t lap = 0; lap < nbuckets; ++lap) {
    const Bucket& b = buckets_[cur_vb_ & mask_];
    // The bucket is a min-heap, so its front is its global minimum; if the
    // front does not fall inside the cursor's window no bucket member does
    // (vbucket is monotonic in t), and the cursor may advance.
    if (!b.empty() && vbucket(b.front().t) <= cur_vb_) {
      cached_bucket_ = cur_vb_ & mask_;
      cache_valid_ = true;
      return true;
    }
    ++cur_vb_;
  }
  // A full fruitless lap: every pending event lives at least one year
  // ahead (a sparse far-future tail). Direct-scan the buckets for the
  // global minimum and jump the cursor to its year, preserving the
  // invariant cursor-bucket == physical bucket of the minimum.
  std::size_t best = nbuckets;
  for (std::size_t i = 0; i < nbuckets; ++i) {
    if (buckets_[i].empty()) continue;
    if (best == nbuckets ||
        Later{}(buckets_[best].front(), buckets_[i].front())) {
      best = i;
    }
  }
  PFSC_ASSERT(best < nbuckets);
  const std::uint64_t base = vbucket(buckets_[best].front().t);
  cur_vb_ = base + ((best + nbuckets - (base & mask_)) & mask_);
  cached_bucket_ = best;
  cache_valid_ = true;
  return true;
}

const ScheduledEvent* LadderQueue::peek() {
  const ScheduledEvent* cal =
      locate_min() ? &buckets_[cached_bucket_].front() : nullptr;
  const ScheduledEvent* today =
      today_head_ < today_.size() ? &today_[today_head_] : nullptr;
  if (today == nullptr) return cal;
  if (cal == nullptr) return today;
  return Later{}(*cal, *today) ? today : cal;
}

ScheduledEvent LadderQueue::pop() {
  const ScheduledEvent* cal =
      locate_min() ? &buckets_[cached_bucket_].front() : nullptr;
  ScheduledEvent ev;
  if (today_head_ < today_.size() &&
      (cal == nullptr || Later{}(*cal, today_[today_head_]))) {
    ev = today_[today_head_++];
    if (today_head_ == today_.size()) {  // drained: reset, keep capacity
      today_.clear();
      today_head_ = 0;
    }
    --size_;
  } else {
    PFSC_ASSERT(cal != nullptr);
    Bucket& b = buckets_[cached_bucket_];
    std::pop_heap(b.begin(), b.end(), Later{});
    ev = b.back();
    b.pop_back();
    --size_;
    --cal_size_;
    cache_valid_ = false;
    maybe_shrink();
  }
  t_floor_ = ev.t;  // pops are globally non-decreasing in t
  return ev;
}

void LadderQueue::maybe_grow() {
  if (cal_size_ + 1 > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    rebuild(buckets_.size() * 2);
  }
}

void LadderQueue::maybe_shrink() {
  if (cal_size_ > 0 && cal_size_ < buckets_.size() / 4 &&
      buckets_.size() > kMinBuckets) {
    rebuild(std::max(kMinBuckets, buckets_.size() / 2));
  }
}

void LadderQueue::rebuild(std::size_t nbuckets) {
  // Stage the live events in a reused scratch vector and clear() (not
  // reallocate) the buckets: rebuilds happen on every capacity change, so
  // both the scratch buffer and every bucket's heap storage must keep
  // their capacity across rebuilds or burst-grow/drain-shrink patterns
  // (task fan-out, end-of-run drains) spend all their time in malloc.
  scratch_.clear();
  scratch_.reserve(cal_size_);
  for (Bucket& b : buckets_) {
    scratch_.insert(scratch_.end(), b.begin(), b.end());
    b.clear();
  }
  PFSC_ASSERT(scratch_.size() == cal_size_);

  // Lazy width recalibration: spread the *observed* event times evenly
  // over the live population, so each bucket holds O(1) events whatever
  // timescale the model currently runs at.
  if (!scratch_.empty()) {
    double lo = scratch_.front().t;
    double hi = lo;
    for (const ScheduledEvent& ev : scratch_) {
      lo = std::min(lo, ev.t);
      hi = std::max(hi, ev.t);
    }
    const double spread = hi - lo;
    if (spread > 0.0) {
      width_ = std::max(kMinWidth,
                        spread / static_cast<double>(scratch_.size()));
      inv_width_ = 1.0 / width_;
    }
    cur_vb_ = vbucket(lo);
  }

  buckets_.resize(nbuckets);  // all empty here; keeps surviving capacity
  mask_ = nbuckets - 1;
  for (const ScheduledEvent& ev : scratch_) {
    std::uint64_t vb = vbucket(ev.t);
    if (vb < cur_vb_) vb = cur_vb_;
    buckets_[vb & mask_].push_back(ev);
  }
  for (Bucket& b : buckets_) std::make_heap(b.begin(), b.end(), Later{});
  cache_valid_ = false;
}

std::unique_ptr<EventQueue> make_event_queue(EventQueuePolicy policy) {
  switch (policy) {
    case EventQueuePolicy::binary_heap:
      return std::make_unique<BinaryHeapQueue>();
    case EventQueuePolicy::ladder:
      return std::make_unique<LadderQueue>();
  }
  PFSC_REQUIRE(false, "make_event_queue: unknown EventQueuePolicy");
  return nullptr;
}

}  // namespace pfsc::sim
