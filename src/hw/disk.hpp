// Object-storage-target disk model.
//
// Each OST backs onto a RAID-6 (8+2) volume of 10k-RPM spindles fronted by
// a write-back controller cache. The behaviours that matter for this study:
//
//  * STREAMING: contiguous traffic within one backend object runs at the
//    volume's sequential rate; the controller coalesces sub-stripe
//    sequential writes into full-stripe destages (no read-modify-write).
//  * ELEVATOR: the scheduler drains up to `batch` queued requests from the
//    current stream — served in ascending offset order — before rotating to
//    the next stream.
//  * SEEK: switching streams, or jumping within a stream by more than
//    `reorder_window` (the slack the write-back caches absorb), repositions
//    the heads: `seek_time`, plus read-modify-write for sub-stripe writes
//    (a discontiguous partial-stripe landing cannot be coalesced).
//  * CONTENTION AMPLIFICATION: with many competing streams the cache is
//    partitioned ever thinner, prefetch/destage efficiency collapses, and
//    each switch costs progressively more:
//        seek_eff = seek_time * (1 + alpha * max(0, streams - knee)).
//    This is the mechanism behind the paper's Figure 2 (per-process
//    bandwidth diverging from ideal 1/n beyond ~3 writers) and the PLFS
//    collapse at scale (Tables VII-IX).
//
// A request is (stream, offset, bytes); streams are backend objects. The
// submit() awaitable completes when the request has been serviced.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::hw {

struct DiskParams {
  BytesPerSecond sequential_bw = mb_per_sec(300.0);  // streaming write rate
  Seconds seek_time = 6.0e-3;                        // base reposition cost
  Seconds per_request_overhead = 0.25e-3;            // RPC/service setup
  Bytes raid_full_stripe = 4_MiB;                    // 8 data disks x 512 KiB
  double rmw_factor = 0.45;      // bw multiplier for discontiguous sub-stripe writes
  double read_factor = 1.15;     // reads slightly faster than writes
  std::uint32_t batch = 8;       // elevator: max consecutive same-stream reqs
  /// Same-stream offset jumps within this window are absorbed by the
  /// write-back caches and charged no seek. 0 = strict contiguity.
  Bytes reorder_window = 16_MiB;
  /// Contention amplification: the seek-cost multiplier grows linearly by
  /// `alpha` per hot stream beyond `knee` (cache partitioning; calibrated
  /// against the paper's Figure 2, where one OST's throughput roughly
  /// halves by 16 writers), plus a quadratic term beyond `quad_knee`
  /// (working set far past the controller cache: destage efficiency
  /// collapses -- the regime of the paper's Tables VIII/IX). Hot streams
  /// are the distinct streams serviced within the last `hot_window`
  /// requests.
  double contention_alpha = 0.67;
  std::uint32_t contention_knee = 3;
  double contention_quad_alpha = 0.35;
  std::uint32_t contention_quad_knee = 10;
  std::uint32_t hot_window = 64;
};

class DiskModel {
 public:
  using StreamId = std::uint64_t;

  DiskModel(sim::Engine& eng, DiskParams params);

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  /// Awaitable I/O request; resumes the caller at service completion.
  auto submit(StreamId stream, Bytes offset, Bytes bytes, bool is_write) {
    struct Awaiter {
      DiskModel& disk;
      StreamId stream;
      Bytes offset;
      Bytes bytes;
      bool is_write;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        disk.enqueue(Request{stream, offset, bytes, is_write, h});
      }
      void await_resume() const noexcept {}
    };
    PFSC_ASSERT(bytes > 0);
    return Awaiter{*this, stream, offset, bytes, is_write};
  }

  /// Mark a stream closed so its positional state can be dropped.
  void forget_stream(StreamId stream);

  /// Degraded operation (RAID rebuild, media errors): every subsequent
  /// service takes `factor` times as long. 1.0 restores full speed.
  void set_service_multiplier(double factor);
  double service_multiplier() const { return service_multiplier_; }

  // -- statistics ------------------------------------------------------
  Bytes bytes_serviced() const { return bytes_serviced_; }
  std::uint64_t requests_serviced() const { return requests_; }
  std::uint64_t stream_switches() const { return switches_; }
  std::uint64_t seeks() const { return seeks_; }
  Seconds busy_time() const { return busy_time_; }
  Seconds seek_time_total() const { return seek_time_total_; }
  /// Streams with at least one queued request right now (O(1): maintained
  /// incrementally, not recomputed by scanning the stream table).
  std::size_t runnable_streams() const { return runnable_; }
  std::size_t queue_depth() const { return queued_; }
  /// High-water mark of concurrently runnable streams.
  std::size_t max_runnable_streams() const { return max_runnable_; }
  /// Distinct streams serviced within the last `hot_window` requests.
  std::size_t hot_streams() const { return hot_counts_.size(); }
  const DiskParams& params() const { return params_; }

  /// Name this disk's trace track ("ost7.disk"); set by the owning
  /// FileSystem. Unnamed disks trace as "disk".
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }

 private:
  struct Request {
    StreamId stream;
    Bytes offset;
    Bytes bytes;
    bool is_write;
    std::coroutine_handle<> waiter;
  };

  /// Per-stream elevator queue: requests served in ascending offset order.
  using Pending = std::multimap<Bytes, Request>;
  struct StreamQueue {
    Pending pending;
  };

  void enqueue(Request req);
  sim::Task service_loop();
  Seconds service_time(const Request& req, bool switched);

  sim::Engine* eng_;
  DiskParams params_;
  sim::Event work_;

  std::unordered_map<StreamId, StreamQueue> queues_;
  // Nodes of serviced requests, re-keyed by the next enqueue: the elevator
  // allocates a node only when its total queue depth reaches a new high.
  std::vector<Pending::node_type> spare_nodes_;
  std::deque<StreamId> rotation_;  // runnable streams, oldest first
  std::unordered_map<StreamId, Bytes> next_offset_;  // expected seq. position
  StreamId current_stream_ = 0;
  bool have_current_ = false;
  std::uint32_t batch_used_ = 0;
  std::size_t queued_ = 0;
  std::size_t runnable_ = 0;

  Bytes bytes_serviced_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t seeks_ = 0;
  double service_multiplier_ = 1.0;
  Seconds busy_time_ = 0.0;
  Seconds seek_time_total_ = 0.0;
  std::size_t max_runnable_ = 0;

  // Sliding window of recently-serviced stream ids.
  std::deque<StreamId> hot_ring_;
  std::unordered_map<StreamId, std::uint32_t> hot_counts_;

  // Tracing: stream open/close instants, hot-window transitions, and one
  // sync span per serviced request (the loop serves one at a time).
  std::string trace_label_ = "disk";
  trace::TrackHandle track_;
  std::size_t traced_hot_ = static_cast<std::size_t>(-1);
};

}  // namespace pfsc::hw
