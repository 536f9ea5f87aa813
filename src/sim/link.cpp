#include "sim/link.hpp"

#include <algorithm>
#include <utility>

namespace pfsc::sim {

namespace {

/// A nanosecond of simulated slack: a flow whose remaining service time
/// falls below this completes in the current batch. Far below the
/// microsecond-scale latencies being modelled, but comfortably above the
/// floating-point error the virtual clock can accumulate — without it a
/// wake-up could land an ulp early and re-arm a zero-length timer forever.
constexpr Seconds kSlackEps = 1e-9;

}  // namespace

std::uint64_t LinkModel::trace_flow_begin(Bytes bytes) {
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(trace::Cat::link)) return 0;
  const trace::TrackId track = track_.get(*rec, trace_label_);
  const std::uint64_t id = rec->next_id();
  const Seconds now = eng_->now();
  rec->begin(trace::Cat::link, track, "flow", now, id,
             static_cast<std::int64_t>(bytes));
  // Counters are sampled at the transition; the arriving flow has not yet
  // joined the model's books, so this reads one low for an instant.
  rec->counter(trace::Cat::link, track, "flows", now,
               static_cast<double>(active_flows()));
  return id;
}

void LinkModel::trace_flow_end(std::uint64_t id) {
  if (id == 0) return;
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(trace::Cat::link)) return;
  const trace::TrackId track = track_.get(*rec, trace_label_);
  const Seconds now = eng_->now();
  rec->end(trace::Cat::link, track, "flow", now, id);
  rec->counter(trace::Cat::link, track, "flows", now,
               static_cast<double>(active_flows()));
  rec->counter(trace::Cat::link, track, "flow_mbps", now,
               to_mbps(flow_rate()));
}

const char* link_policy_name(LinkPolicy policy) {
  switch (policy) {
    case LinkPolicy::fifo: return "fifo";
    case LinkPolicy::fair_share: return "fair_share";
  }
  return "?";
}

void LinkModel::schedule_relay(Seconds t) {
  if (!relay_.valid()) relay_ = relay_loop();
  eng_->schedule(relay_.handle(), t);
}

/// The link's relay coroutine: never spawned, only scheduled, one run of
/// relay() per dispatch. The first dispatch starts the body from its
/// initial suspension; every later one returns from the park below.
Task LinkModel::relay_loop() {
  for (;;) {
    relay();
    co_await std::suspend_always{};
  }
}

// ---------------------------------------------------------------------------
// FifoPipe
// ---------------------------------------------------------------------------

bool FifoPipe::start_service(Transfer& flow) {
  const Seconds service = latency_ + static_cast<double>(flow.bytes) / rate_;
  busy_time_ += service;
  bytes_moved_ += flow.bytes;
  ++transfers_;
  if (service <= 0.0) return false;
  eng_->schedule_after(flow.caller, service);
  return true;
}

bool FifoPipe::arrive(Transfer& flow) {
  if (busy_ < channels_) {
    ++busy_;
    return start_service(flow);
  }
  queue_.push_back(flow);
  return true;
}

void FifoPipe::depart(Transfer& /*flow*/) {
  if (queue_.size() > granted_) {
    // The channel passes directly to the oldest waiting flow; its service
    // starts in the relay event scheduled here.
    ++granted_;
    schedule_relay(eng_->now());
  } else {
    PFSC_ASSERT(busy_ > 0);
    --busy_;
  }
}

void FifoPipe::relay() {
  PFSC_ASSERT(granted_ > 0);
  --granted_;
  Transfer& flow = queue_.pop_front();
  // A zero-length service completes inside this event.
  if (!start_service(flow)) flow.caller.resume();
}

// ---------------------------------------------------------------------------
// FairSharePipe
// ---------------------------------------------------------------------------

bool FairSharePipe::arrive(Transfer& flow) {
  if (latency_ > 0.0) {
    hop_.push_back(flow);
    schedule_relay(eng_->now() + latency_);
  } else {
    join(flow);
  }
  return true;
}

void FairSharePipe::relay() { join(hop_.pop_front()); }

void FairSharePipe::depart(Transfer& flow) {
  bytes_moved_ += flow.bytes;
  ++transfers_;
}

/// Integrate the virtual clock (and the utilisation integral) up to now.
/// Must run before any change to the flow set.
void FairSharePipe::advance_clock() {
  const Seconds now = eng_->now();
  const std::size_t n = flows_.size();
  if (n > 0) {
    const Seconds dt = now - last_update_;
    vtime_ += dt * speed(n);
    const double c = static_cast<double>(channels_);
    busy_time_ += dt * std::min(static_cast<double>(n), c) / c;
  }
  last_update_ = now;
}

double FairSharePipe::utilisation() const {
  const Seconds t = eng_->now();
  if (t <= 0.0) return 0.0;
  Seconds busy = busy_time_;
  if (!flows_.empty()) {
    const double c = static_cast<double>(channels_);
    busy += (t - last_update_) *
            std::min(static_cast<double>(flows_.size()), c) / c;
  }
  return busy / t;
}

void FairSharePipe::join(Transfer& transfer) {
  advance_clock();
  Flow flow;
  flow.finish_v = vtime_ + static_cast<double>(transfer.bytes) / rate_;
  flow.id = next_flow_id_++;
  flow.waiter = transfer.caller;
  flows_.push_back(flow);
  std::push_heap(flows_.begin(), flows_.end(), LaterFinish{});
  arm();
}

/// Pop and resume every flow whose remaining service has vanished. Each
/// departure speeds up the survivors, so the per-iteration conversion from
/// virtual slack to real time uses the shrinking flow count.
void FairSharePipe::complete_due() {
  const Seconds now = eng_->now();
  while (!flows_.empty()) {
    const double remaining_v = flows_.front().finish_v - vtime_;
    const Seconds remaining_t = remaining_v / speed(flows_.size());
    if (remaining_t > kSlackEps) break;
    std::pop_heap(flows_.begin(), flows_.end(), LaterFinish{});
    eng_->schedule(flows_.back().waiter, now);
    flows_.pop_back();
  }
}

/// Parks the persistent timer coroutine and arms it for the earliest
/// completion. Publishing the handle from await_suspend (rather than
/// spawning the coroutine armed) closes the construction-order gap: flows
/// that join before the timer root's first dispatch find timer_h_ null,
/// and this arm() catches up for them.
struct FairShareTimerPark {
  FairSharePipe& pipe;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    pipe.timer_h_ = h;
    pipe.arm();
  }
  void await_resume() const noexcept {
    pipe.timer_token_ = WakeToken{};  // this wakeup just fired
  }
};

/// (Re-)schedule the timer for the earliest completion: cancel the pending
/// wakeup by token and schedule a fresh one. No-op until the timer
/// coroutine has parked for the first time (it re-arms itself on parking).
void FairSharePipe::arm() {
  eng_->cancel_scheduled(std::exchange(timer_token_, WakeToken{}));
  if (flows_.empty() || !timer_h_) return;
  const double remaining_v = flows_.front().finish_v - vtime_;
  const Seconds dt = std::max(0.0, remaining_v / speed(flows_.size()));
  timer_token_ = eng_->schedule_after(timer_h_, dt);
}

/// The pipe's one timer coroutine: parks, and on each wakeup settles all
/// due completions. Re-parking re-arms for whatever is due next.
Task FairSharePipe::timer_loop() {
  for (;;) {
    co_await FairShareTimerPark{*this};
    advance_clock();
    complete_due();
  }
}

std::unique_ptr<LinkModel> make_link(Engine& eng, LinkPolicy policy,
                                     BytesPerSecond rate,
                                     Seconds per_message_latency,
                                     std::size_t channels) {
  switch (policy) {
    case LinkPolicy::fifo:
      return std::make_unique<FifoPipe>(eng, rate, per_message_latency, channels);
    case LinkPolicy::fair_share:
      return std::make_unique<FairSharePipe>(eng, rate, per_message_latency,
                                             channels);
  }
  PFSC_REQUIRE(false, "make_link: unknown LinkPolicy");
  return nullptr;
}

}  // namespace pfsc::sim
