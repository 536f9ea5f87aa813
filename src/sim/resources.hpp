// Synchronisation primitives for simulation processes.
//
//  * Event          — one-shot (resettable) broadcast signal.
//  * Condition      — condition-variable-like signal (no latched state).
//  * Resource       — counting semaphore with FIFO hand-off.
//  * Barrier        — reusable N-party barrier (generation-counted).
//  * WaiterRing     — the FIFO of parked coroutines behind Resource.
//
// The bandwidth servers built on these primitives (the basic building
// blocks of the network model) live in sim/link.hpp as implementations of
// the pluggable LinkModel interface.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "support/units.hpp"

namespace pfsc::sim {

class Event {
 public:
  explicit Event(Engine& eng) : eng_(&eng) {}

  bool fired() const { return fired_; }

  /// Fire the event, waking all current waiters at the current time.
  void trigger() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) eng_->schedule(h, eng_->now());
    waiters_.clear();
  }

  /// Re-arm a fired event (no waiters may be pending).
  void reset() {
    PFSC_ASSERT(waiters_.empty());
    fired_ = false;
  }

  auto wait() {
    struct Awaiter {
      Event& evt;
      bool await_ready() const noexcept { return evt.fired_; }
      void await_suspend(std::coroutine_handle<> h) { evt.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Condition-variable-like signal: wait() always suspends until the next
/// notify_all(). Unlike Event there is no latched state, so it suits
/// "re-check a predicate in a loop" patterns with many concurrent waiters.
class Condition {
 public:
  explicit Condition(Engine& eng) : eng_(&eng) {}

  auto wait() {
    struct Awaiter {
      Condition& cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_all() {
    for (auto h : waiters_) eng_->schedule(h, eng_->now());
    waiters_.clear();
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// FIFO of parked coroutines on a power-of-two ring buffer that keeps its
/// capacity: once it has held its high-water mark of waiters, pushes and
/// pops never allocate (a std::deque allocates and frees a 512-byte chunk
/// every 64 handles as the queue moves along it).
class WaiterRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(std::coroutine_handle<> h) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = h;
    ++size_;
  }

  std::coroutine_handle<> pop_front() {
    PFSC_ASSERT(size_ > 0);
    const std::coroutine_handle<> h = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return h;
  }

 private:
  void grow() {
    std::vector<std::coroutine_handle<>> bigger(
        std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<std::coroutine_handle<>> slots_;  // size is a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Counting semaphore. release() hands the token directly to the oldest
/// waiter, so admission is strictly FIFO (no barging).
class Resource {
 public:
  Resource(Engine& eng, std::size_t capacity)
      : eng_(&eng), capacity_(capacity), available_(capacity) {
    PFSC_REQUIRE(capacity > 0, "Resource: capacity must be positive");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return available_; }
  std::size_t queue_length() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter {
      Resource& res;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (res.available_ > 0) {
          --res.available_;
          return false;  // token taken; continue immediately
        }
        res.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      // The token passes directly to the oldest waiter.
      eng_->schedule(waiters_.pop_front(), eng_->now());
    } else {
      PFSC_ASSERT(available_ < capacity_);
      ++available_;
    }
  }

 private:
  Engine* eng_;
  std::size_t capacity_;
  std::size_t available_;
  WaiterRing waiters_;
};

/// Reusable barrier for `parties` processes.
class Barrier {
 public:
  Barrier(Engine& eng, std::size_t parties)
      : eng_(&eng), parties_(parties) {
    PFSC_REQUIRE(parties > 0, "Barrier: parties must be positive");
  }

  auto arrive() {
    struct Awaiter {
      Barrier& bar;
      bool await_ready() const noexcept { return bar.parties_ == 1; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (bar.arrived_ + 1 == bar.parties_) {
          bar.arrived_ = 0;
          ++bar.generation_;
          for (auto w : bar.waiters_) bar.eng_->schedule(w, bar.eng_->now());
          bar.waiters_.clear();
          return false;  // last arriver passes straight through
        }
        ++bar.arrived_;
        bar.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::uint64_t generation() const { return generation_; }

 private:
  Engine* eng_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace pfsc::sim
