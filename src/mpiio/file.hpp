// MPI-IO file handle (the MPI_File surface used by the workloads).
//
// One File object is the shared collective state of an MPI_File_open
// across a communicator: every rank calls open/.../close on it with its own
// rank id and lustre::Client. Collective data calls (write_at_all /
// read_at_all) rendezvous exactly like MPI collectives: per-rank call
// sequence numbers match invocations, the last arriver builds the two-phase
// plan and spawns one task per aggregator, and every rank resumes when the
// round trips complete. Independent calls (write_at / read_at) go straight
// to the ADIO driver.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "mpiio/adio.hpp"
#include "mpiio/two_phase.hpp"

namespace pfsc::mpiio {

class File {
 public:
  /// `plfs` is required when hints.driver == ad_plfs, ignored otherwise.
  File(mpi::Communicator& comm, lustre::FileSystem& fs, std::string path,
       Hints hints, plfs::Plfs* plfs = nullptr);

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Collective open. Every rank of the communicator must call it; rank 0's
  /// client creates (or opens) the file before the others open it.
  sim::Co<Errno> open(int rank, lustre::Client& client, bool create = true);

  // -- independent I/O ---------------------------------------------------
  sim::Co<Errno> write_at(int rank, Bytes offset, Bytes length);
  sim::Co<Errno> read_at(int rank, Bytes offset, Bytes length);

  // -- collective I/O ----------------------------------------------------
  sim::Co<Errno> write_at_all(int rank, Bytes offset, Bytes length);
  sim::Co<Errno> read_at_all(int rank, Bytes offset, Bytes length);

  /// Collective close.
  sim::Co<Errno> close(int rank);

  Bytes size() const { return driver_->size(ctx_); }
  const OpenContext& context() const { return ctx_; }
  const Hints& hints() const { return ctx_.hints; }

 private:
  struct CollState {
    int arrived = 0;
    int consumed = 0;
    std::vector<IoRequest> reqs;
    std::unique_ptr<sim::Event> done;
    Errno err = Errno::ok;
  };

  class Finish;

  CollState& state_for(int rank, std::uint64_t& seq_out);
  /// Awaiter: waits for collective `seq` to complete, then yields its
  /// result; the last rank to collect it releases its state.
  Finish finish(std::uint64_t seq);
  sim::Co<Errno> collective_io(int rank, Bytes offset, Bytes length,
                               bool is_write);
  sim::Task aggregator_task(AggregatorPlan plan, CollState* st, bool is_write);
  sim::Task orchestrate(std::vector<AggregatorPlan> plans, CollState* st,
                        bool is_write);
  sim::Task drain_round(lustre::Client& client, Round round,
                        sim::Resource* dirty);
  /// Wait for all write-behind drains; folds async errors into the result.
  sim::Co<Errno> flush();
  sim::Resource& dirty_slots(int agg_rank);
  lustre::Client& client_of(int rank);
  void merge_err(CollState& st, Errno e);

  mpi::Communicator* comm_;
  lustre::FileSystem* fs_;
  std::unique_ptr<AdioDriver> driver_;
  OpenContext ctx_;
  bool opened_ = false;

  std::vector<lustre::Client*> clients_;
  std::vector<std::uint64_t> next_seq_;
  std::map<std::uint64_t, CollState> coll_;

  // Write-behind state: count of in-flight drain tasks, an event fired when
  // the count returns to zero, per-aggregator dirty budgets, and the first
  // asynchronous error (surfaced at the next flush point).
  std::size_t outstanding_drains_ = 0;
  sim::Event all_drained_;
  std::map<int, std::unique_ptr<sim::Resource>> dirty_;
  Errno async_err_ = Errno::ok;
};

}  // namespace pfsc::mpiio
