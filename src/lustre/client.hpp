// Lustre client: the per-process data path.
//
// A Client owns the process-local I/O ceiling (one core's worth of memcpy +
// RPC stack) and optionally shares a node NIC link with the other clients
// on its node. write()/read() decompose an extent into per-object bulk RPCs
// (capped at max_rpc_size) and pipeline them with at most
// `client_max_rpcs_in_flight` outstanding, each flowing
//
//   process link -> node NIC -> fabric -> request hop -> OSS scheduler
//     -> OSS link -> OST disk -> reply hop
//
// which is where every bandwidth effect in the paper's experiments arises.
// Every link is a sim::LinkModel, so the platform's link_policy decides
// whether concurrent RPCs queue (FIFO) or share capacity (fair-share).
//
// Frames: one io() call is one coroutine frame, and each of its bulk RPCs
// is one more — the rpc() task, which awaits every station above in turn.
// The links, the scheduler's admission and the disk are awaiters that add
// no frame of their own, and write() hands back io()'s coroutine as is.
#pragma once

#include <memory>
#include <string>

#include "lustre/fs.hpp"

namespace pfsc::lustre {

class Client {
 public:
  /// `node_nic` may be shared by several clients (one per node); pass
  /// nullptr for a client with no node-level bottleneck.
  Client(FileSystem& fs, std::string name, sim::LinkModel* node_nic = nullptr);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // -- namespace (forwarded to the MDS) ---------------------------------
  sim::Co<Result<InodeId>> create(std::string path, StripeSettings settings);
  sim::Co<Result<InodeId>> open(std::string path);
  sim::Co<Result<InodeId>> mkdir(std::string path);
  sim::Co<Errno> unlink(std::string path);

  // -- data --------------------------------------------------------------
  sim::Co<Errno> write(InodeId file, Bytes offset, Bytes length);
  sim::Co<Errno> read(InodeId file, Bytes offset, Bytes length);

  /// Buffered (page-cache) write: returns once the data is accepted into
  /// the client's write-back budget; the transfer to the servers continues
  /// asynchronously. Errors surface at the next flush(). This is how POSIX
  /// buffered writes behave on a Lustre client.
  sim::Co<Errno> write_buffered(InodeId file, Bytes offset, Bytes length);

  /// Wait for all buffered writes to reach the servers; returns the first
  /// asynchronous error, if any (fsync semantics).
  sim::Co<Errno> flush();

  /// Cost of staging `bytes` through this process (collective-buffer
  /// shuffle, scatter after collective reads): occupies the per-process
  /// pipe but moves nothing over the I/O fabric.
  sim::Co<void> local_copy(Bytes bytes);

  /// Tag this client's RPCs as belonging to `job` (OSS schedulers account
  /// and arbitrate per JobId). Untagged clients are job 0.
  void set_job(sched::JobId job) { job_ = job; }
  sched::JobId job() const { return job_; }

  const std::string& name() const { return name_; }
  Bytes bytes_written() const { return bytes_written_; }
  Bytes bytes_read() const { return bytes_read_; }
  FileSystem& fs() { return *fs_; }
  /// Identity of this client's node (clients sharing a NIC share a node).
  const void* node_key() const { return node_nic_; }
  /// Per-process link statistics (diagnostics/benchmarks).
  const sim::LinkModel& proc_pipe() const { return *proc_pipe_; }

 private:
  /// First error of one io() call's RPCs. It lives in io()'s frame: io
  /// joins every RPC it spawned before it returns or rethrows.
  struct IoState {
    Errno err = Errno::ok;
  };

  sim::Co<Errno> io(InodeId file, Bytes offset, Bytes length, bool is_write);
  sim::Task rpc(OstIndex ost, ObjectId object, Bytes object_offset, Bytes bytes,
                bool is_write, IoState* state);
  sim::Task drain_buffered(InodeId file, Bytes offset, Bytes length);

  FileSystem* fs_;
  sim::Engine* eng_;
  std::string name_;
  std::string trace_label_;    // "client.<name>"
  trace::TrackHandle track_;
  std::unique_ptr<sim::LinkModel> proc_pipe_;
  sim::LinkModel* node_nic_;
  sim::Resource rpc_slots_;
  // io()'s stripe decomposition, reused across calls: filled and consumed
  // with no suspension in between, so concurrent io() calls never share it.
  std::vector<LayoutSegment> segments_;
  sched::JobId job_ = sched::kDefaultJob;
  Bytes bytes_written_ = 0;
  Bytes bytes_read_ = 0;

  // Write-back state for write_buffered()/flush().
  Bytes dirty_bytes_ = 0;
  std::size_t outstanding_buffered_ = 0;
  sim::Condition writeback_space_;
  sim::Event writeback_idle_;
  Errno async_err_ = Errno::ok;
};

}  // namespace pfsc::lustre
