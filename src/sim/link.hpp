// Pluggable link-sharing models: how concurrent transfers share a
// bandwidth-limited link (fabric, OSS front end, node NIC, per-process
// pipe).
//
//  * LinkModel      — the interface every layer transfers through. A link
//                     has a nominal per-channel `rate`, an optional
//                     per-message latency, and `channels` parallel lanes;
//                     implementations decide how simultaneous flows share
//                     that capacity.
//  * FifoPipe       — store-and-forward FIFO server: a transfer holds a
//                     whole channel for bytes/rate seconds, so concurrent
//                     flows share capacity in arrival order. This is the
//                     historical `sim::BandwidthPipe` behaviour, preserved
//                     bit-for-bit (the golden-number regression tests pin
//                     it), and the default policy everywhere.
//  * FairSharePipe  — progress-based processor-sharing server: all
//                     in-flight flows advance simultaneously, each at
//                     min(rate, channels*rate/n). Implemented with a
//                     virtual-time clock and an earliest-completion heap,
//                     so a flow arrival or departure costs O(log n) — no
//                     rescan of the other in-flight flows. This models the
//                     paper's central picture of contention (n concurrent
//                     writers each seeing rate/n at the same instant)
//                     directly instead of emergently.
//
// Frames: `co_await link.transfer(bytes)` creates no coroutine frame. The
// Transfer awaiter lives in the caller's frame for the whole flow; the
// link parks the caller's handle and resumes it once, at the flow's
// completion. Where a flow must take a step at an instant of its own while
// its caller stays parked — a FIFO slot handed to a queued flow, the end of
// a fair-share latency hop — the link's one relay coroutine (created at
// the first such step) is scheduled for that instant and takes the step
// for the oldest flow due. That event takes the queue slot a coroutine per
// transfer would take, so the dispatch sequence — and every golden number
// — is the same as with a frame per transfer (the LinkHandOff tests pin
// it).
//
// `LinkPolicy` selects the implementation; `make_link` is the factory the
// owning layers (lustre::FileSystem, mpi::Runtime, lustre::Client) build
// their links through, driven by hw::PlatformParams::link_policy.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::sim {

enum class LinkPolicy {
  fifo,        // store-and-forward, arrival order (historical default)
  fair_share,  // processor sharing: n flows each progress at rate/n
};

const char* link_policy_name(LinkPolicy policy);

/// Interface for one bandwidth-limited link. Implementations own all the
/// queueing/sharing semantics; the common statistics and the probe surface
/// (flow count, per-flow rate, utilisation) work for every model.
class LinkModel {
 public:
  LinkModel(Engine& eng, BytesPerSecond rate, Seconds per_message_latency,
            std::size_t channels)
      : eng_(&eng), rate_(rate), latency_(per_message_latency), channels_(channels) {
    PFSC_REQUIRE(rate > 0.0, "LinkModel: rate must be positive");
    PFSC_REQUIRE(channels >= 1, "LinkModel: need at least one channel");
  }

  LinkModel(const LinkModel&) = delete;
  LinkModel& operator=(const LinkModel&) = delete;
  virtual ~LinkModel() = default;

  class Transfer;

  /// Move `bytes` through the link: `co_await link.transfer(bytes)`
  /// completes after queueing + service. The awaiter must be awaited where
  /// it is created (it is neither copyable nor movable).
  Transfer transfer(Bytes bytes);

  virtual LinkPolicy policy() const = 0;

  // -- probe surface (instantaneous; cheap, side-effect free) -----------
  /// Flows currently inside transfer(): queued + in service.
  virtual std::size_t active_flows() const = 0;
  /// Instantaneous service rate an in-service flow sees (0 when idle).
  virtual BytesPerSecond flow_rate() const = 0;
  /// Fraction of [0, now] this link spent serving (per channel).
  virtual double utilisation() const = 0;

  // -- common statistics -------------------------------------------------
  BytesPerSecond rate() const { return rate_; }
  std::size_t channels() const { return channels_; }
  Bytes bytes_moved() const { return bytes_moved_; }
  std::uint64_t transfers() const { return transfers_; }

  /// Name this link's trace track ("fabric", "oss3", "nic.node0", ...).
  /// Owners set it at construction; unnamed links trace as "link".
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }
  const std::string& trace_label() const { return trace_label_; }

 protected:
  /// Intrusive FIFO of parked flows, linked through their Transfer
  /// awaiters (which live in the parked callers' frames), so queueing
  /// never allocates.
  class FlowQueue {
   public:
    std::size_t size() const { return size_; }
    void push_back(Transfer& flow);
    Transfer& pop_front();

   private:
    Transfer* head_ = nullptr;
    Transfer* tail_ = nullptr;
    std::size_t size_ = 0;
  };

  /// A flow arrives (the caller is suspending; `flow.caller` is set).
  /// Returns false when the flow has already completed and the caller
  /// continues at once.
  virtual bool arrive(Transfer& flow) = 0;
  /// The flow's caller resumes: settle the flow's departure.
  virtual void depart(Transfer& flow) = 0;
  /// One step of the relay coroutine; see schedule_relay().
  virtual void relay() = 0;

  /// Schedule one run of relay() at absolute time `t`, in this call's
  /// queue slot. Runs dispatch in (t, seq) order like any wakeup; the
  /// relay coroutine is created on first use.
  void schedule_relay(Seconds t);

  /// Emit a flow-arrival async span + flow counters; returns the span id
  /// (0 when tracing is off — trace_flow_end then no-ops). The Transfer
  /// awaiter calls this on arrival and pairs it with trace_flow_end at
  /// departure, bracketing queueing + service.
  std::uint64_t trace_flow_begin(Bytes bytes);
  void trace_flow_end(std::uint64_t id);

  Engine* eng_;
  BytesPerSecond rate_;
  Seconds latency_;
  std::size_t channels_;
  Bytes bytes_moved_ = 0;
  std::uint64_t transfers_ = 0;

 private:
  Task relay_loop();

  std::string trace_label_ = "link";
  trace::TrackHandle track_;
  Task relay_;  // the relay coroutine; invalid until first scheduled
};

/// Awaiter for one flow through a link (see the file header). It records
/// the parked caller and links the flow into the link's queues; it must
/// stay where it was created until the caller resumes.
class LinkModel::Transfer {
 public:
  Transfer(LinkModel& link, Bytes bytes) : bytes(bytes), link_(&link) {}
  Transfer(const Transfer&) = delete;
  Transfer& operator=(const Transfer&) = delete;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    caller = h;
    trace_id_ = link_->trace_flow_begin(bytes);
    return link_->arrive(*this);
  }
  void await_resume() {
    link_->depart(*this);
    link_->trace_flow_end(trace_id_);
  }

  const Bytes bytes;
  std::coroutine_handle<> caller;  // resumed once, when the flow completes

 private:
  friend class FlowQueue;

  LinkModel* link_;
  std::uint64_t trace_id_ = 0;
  Transfer* next_ = nullptr;  // FlowQueue link
};

inline LinkModel::Transfer LinkModel::transfer(Bytes bytes) {
  return Transfer{*this, bytes};
}

inline void LinkModel::FlowQueue::push_back(Transfer& flow) {
  flow.next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->next_ = &flow;
  } else {
    head_ = &flow;
  }
  tail_ = &flow;
  ++size_;
}

inline LinkModel::Transfer& LinkModel::FlowQueue::pop_front() {
  PFSC_ASSERT(head_ != nullptr);
  Transfer& flow = *head_;
  head_ = flow.next_;
  if (head_ == nullptr) tail_ = nullptr;
  --size_;
  return flow;
}

/// FIFO store-and-forward server; see file header. `channels` > 1 models a
/// link that can serve that many transfers at full rate each (used
/// sparingly).
///
/// A flow that finds a free channel starts service at once: its caller is
/// scheduled for the service's end. Otherwise it queues. A departing flow
/// hands its channel straight to the oldest queued flow (no barging) and
/// schedules the relay for the same instant; the relay starts that flow's
/// service.
class FifoPipe final : public LinkModel {
 public:
  FifoPipe(Engine& eng, BytesPerSecond rate, Seconds per_message_latency = 0.0,
           std::size_t channels = 1)
      : LinkModel(eng, rate, per_message_latency, channels) {}

  LinkPolicy policy() const override { return LinkPolicy::fifo; }
  std::size_t active_flows() const override {
    return busy_ + (queue_.size() - granted_);
  }
  BytesPerSecond flow_rate() const override { return busy_ > 0 ? rate_ : 0.0; }
  double utilisation() const override {
    const Seconds t = eng_->now();
    if (t <= 0.0) return 0.0;
    return busy_time_ / (t * static_cast<double>(channels_));
  }

 private:
  bool arrive(Transfer& flow) override;
  void depart(Transfer& flow) override;
  void relay() override;
  /// Begin `flow`'s service on a channel it holds; false when the service
  /// takes no time and the flow is already done.
  bool start_service(Transfer& flow);

  std::size_t busy_ = 0;     // channels held, by flows in service or granted
  FlowQueue queue_;          // granted flows first, then waiting ones
  std::size_t granted_ = 0;  // leading queue_ entries holding a channel
  Seconds busy_time_ = 0.0;
};

/// Progress-based processor-sharing server; see file header.
///
/// All in-flight flows progress at the same normalised speed
/// g(n) = min(1, channels/n), so one scalar virtual clock V with
/// dV/dt = g(n) orders every completion: a flow of `bytes` arriving at
/// virtual time V_a finishes when V reaches V_a + bytes/rate. Arrivals and
/// departures each cost one heap operation plus an O(1) clock advance. One
/// persistent timer coroutine, created when the first flow joins (an idle
/// pipe costs no frame and no event), sleeps until the earliest
/// completion; every change to the earliest completion cancels its pending
/// wakeup by token (Engine::cancel_scheduled) and re-schedules it, so
/// re-arming costs two queue operations instead of a coroutine spawn per
/// arrival/departure. With a per-message latency a
/// flow first waits out its latency hop in `hop_`; the relay coroutine
/// joins it to the sharing set when the hop ends (every hop lasts the
/// same, so hops end in arrival order).
class FairSharePipe final : public LinkModel {
 public:
  FairSharePipe(Engine& eng, BytesPerSecond rate,
                Seconds per_message_latency = 0.0, std::size_t channels = 1)
      : LinkModel(eng, rate, per_message_latency, channels) {
    flows_.reserve(64);
  }
  ~FairSharePipe() override { eng_->cancel_scheduled(timer_token_); }

  LinkPolicy policy() const override { return LinkPolicy::fair_share; }
  std::size_t active_flows() const override { return flows_.size(); }
  BytesPerSecond flow_rate() const override {
    return flows_.empty() ? 0.0 : rate_ * speed(flows_.size());
  }
  double utilisation() const override;

 private:
  struct Flow {
    double finish_v = 0.0;   // virtual time at which the flow completes
    std::uint64_t id = 0;    // arrival order; deterministic tie-break
    std::coroutine_handle<> waiter;
  };
  struct LaterFinish {
    bool operator()(const Flow& a, const Flow& b) const {
      if (a.finish_v != b.finish_v) return a.finish_v > b.finish_v;
      return a.id > b.id;
    }
  };

  /// Normalised per-flow progress rate with n flows in flight.
  double speed(std::size_t n) const {
    const double c = static_cast<double>(channels_);
    const double nn = static_cast<double>(n);
    return nn <= c ? 1.0 : c / nn;
  }

  bool arrive(Transfer& flow) override;
  void depart(Transfer& flow) override;
  void relay() override;

  void advance_clock();
  /// Add `transfer` to the sharing set.
  void join(Transfer& transfer);
  void complete_due();
  /// (Re-)schedule the timer for the earliest completion, creating the
  /// timer coroutine on first use.
  void arm();
  Task timer_loop();

  FlowQueue hop_;            // flows inside the latency hop, oldest first
  std::vector<Flow> flows_;  // min-heap on (finish_v, id) via LaterFinish
  double vtime_ = 0.0;
  Seconds last_update_ = 0.0;
  Seconds busy_time_ = 0.0;  // integral of min(n, channels)/channels dt
  std::uint64_t next_flow_id_ = 0;
  Task timer_;            // the timer coroutine; invalid until first armed
  WakeToken timer_token_;  // its pending wakeup; null when unarmed
};

/// Construct the link implementation selected by `policy`.
std::unique_ptr<LinkModel> make_link(Engine& eng, LinkPolicy policy,
                                     BytesPerSecond rate,
                                     Seconds per_message_latency = 0.0,
                                     std::size_t channels = 1);

}  // namespace pfsc::sim
