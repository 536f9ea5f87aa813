// Simulated Lustre file system: metadata server, namespace, OST allocation,
// and the server-side hardware (fabric, OSS pipes, OST disks).
//
// The MDS resolves paths, creates layouts and journals namespace changes;
// metadata operations cost simulated time and are limited to
// `mds_parallelism` concurrent services. Data movement happens in
// lustre::Client, which uses the pipes and disks exposed here.
//
// OST assignment follows the paper's description of lscratchc: "targets
// assigned at random (based on current usage, to maintain an approximately
// even capacity)". PlacementKind::uniform_random (placement.hpp), the
// default params.ost_placement, reproduces that (and the binomial
// occupancy statistics of Eq. 1-6); the other placement kinds exist as
// ablations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hw/disk.hpp"
#include "hw/platform.hpp"
#include "lustre/errors.hpp"
#include "lustre/extent_map.hpp"
#include "lustre/layout.hpp"
#include "lustre/pfl.hpp"
#include "lustre/placement.hpp"
#include "lustre/sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"

namespace pfsc::lustre {

using InodeId = std::uint64_t;
inline constexpr InodeId kNoInode = 0;

struct Inode {
  InodeId id = kNoInode;
  InodeId parent = kNoInode;
  std::string name;
  bool is_dir = false;

  // -- files -----------------------------------------------------------
  StripeLayout layout;
  ExtentMap written;
  Bytes size = 0;
  std::uint32_t open_count = 0;

  // -- directories -------------------------------------------------------
  std::map<std::string, InodeId, std::less<>> entries;
  StripeSettings dir_default;  // lfs setstripe on a directory
  bool has_dir_default = false;
};

class FileSystem {
 public:
  FileSystem(sim::Engine& eng, hw::PlatformParams params, std::uint64_t seed);

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // -- metadata operations (cost simulated MDS time) --------------------
  sim::Co<Result<InodeId>> create(std::string path, StripeSettings settings);
  sim::Co<Result<InodeId>> open(std::string path);
  sim::Co<Result<InodeId>> mkdir(std::string path);
  sim::Co<Errno> unlink(std::string path);
  sim::Co<Result<std::vector<std::string>>> readdir(std::string path);
  /// lfs setstripe on a directory: default layout for files created inside.
  sim::Co<Errno> set_dir_stripe(std::string path, StripeSettings settings);

  // -- instantaneous inspection (tests, statistics; no simulated cost) --
  Inode* find(std::string_view path);
  const Inode* find(std::string_view path) const;
  Inode& inode(InodeId id);
  const Inode& inode(InodeId id) const;
  bool exists(std::string_view path) const { return find(path) != nullptr; }
  /// All file inodes under `dir_path` (recursive).
  std::vector<InodeId> files_under(std::string_view dir_path) const;

  // -- data-path plumbing used by lustre::Client -------------------------
  // All links are built through sim::make_link following
  // params().link_policy, so every data path shares capacity under the
  // platform's configured model. The server half of a bulk RPC (request
  // hop, sched_for_ost admission, oss_pipe_for_ost, ost_disk, completion,
  // reply hop, each hop params().rpc_latency) runs inside the client's
  // per-RPC coroutine, Client::rpc, which awaits these pieces directly.
  hw::DiskModel& ost_disk(OstIndex ost);
  sim::LinkModel& oss_pipe_for_ost(OstIndex ost);
  sim::LinkModel& fabric() { return *fabric_; }
  sim::LinkModel& oss_pipe(std::uint32_t oss) {
    PFSC_REQUIRE(oss < oss_pipes_.size(), "oss_pipe: bad index");
    return *oss_pipes_[oss];
  }
  sim::Engine& engine() { return *eng_; }
  const hw::PlatformParams& params() const { return params_; }

  /// Liveness token for telemetry probes: a probe capturing `this` must
  /// hold a weak_ptr of this token and assert it is not expired before
  /// dereferencing (trace::Sampler's probe packs do; see telemetry.hpp).
  /// Probes must not outlive their FileSystem.
  std::shared_ptr<const void> liveness() const { return live_; }

  // -- OSS request scheduling --------------------------------------------
  // One scheduler per OSS (built by sched::make_scheduler following
  // params().oss_sched_policy) gates every bulk RPC between its arrival
  // at the OSS and the link/disk service underneath.
  sched::Scheduler& oss_sched(std::uint32_t oss) {
    PFSC_REQUIRE(oss < oss_scheds_.size(), "oss_sched: bad index");
    return *oss_scheds_[oss];
  }
  sched::Scheduler& sched_for_ost(OstIndex ost);
  /// Pending (not yet granted) requests summed over all OSS schedulers.
  std::size_t sched_queue_depth() const;
  /// Granted-but-uncompleted requests summed over all OSS schedulers.
  std::size_t sched_in_service() const;
  /// Served bytes per job, merged across all OSS schedulers.
  std::map<sched::JobId, Bytes> sched_served_by_job() const;
  /// Jain fairness index over the merged per-job served bytes.
  double sched_jain() const;

  // -- OST pools (lfs pool_* semantics) ----------------------------------
  /// Create an empty pool; EEXIST if it already exists.
  Errno pool_new(const std::string& name);
  /// Add OSTs to a pool; ENOENT if the pool does not exist.
  Errno pool_add(const std::string& name, std::span<const OstIndex> osts);
  /// Members of a pool; ENOENT if it does not exist.
  Result<std::vector<OstIndex>> pool_members(const std::string& name) const;
  std::vector<std::string> pool_names() const;

  // -- health / failure injection ----------------------------------------
  void fail_ost(OstIndex ost);
  void restore_ost(OstIndex ost);
  /// Degrade (or restore with factor 1.0) an OST's service rate; models a
  /// RAID rebuild slowing the volume without taking it offline.
  void degrade_ost(OstIndex ost, double factor);
  bool ost_failed(OstIndex ost) const;
  std::uint32_t healthy_ost_count() const;

  // -- runtime-retunable endpoints (control plane; ctrl/ wraps these) ----
  // All three are instantaneous administrative actions: they schedule no
  // engine events and only affect files created afterwards, so a run that
  // never calls them is bit-for-bit unchanged.
  /// Swap the placement policy allocating new-file OST sets.
  void set_placement(PlacementKind kind) { placement_ = make_placement(kind); }
  /// Install (or clear, with a default-constructed spec) the PFL size-class
  /// table consulted by effective_settings() for creates that default their
  /// stripe count and carry a size_hint.
  void set_pfl(PflSpec spec);
  const PflSpec& pfl() const { return pfl_; }
  /// set_dir_stripe without the simulated MDS round trip: the control
  /// plane's administrative default-layout change (a controller decision
  /// must not perturb MDS queueing, or `--ctrl` runs would diverge from
  /// their goldens in ways unrelated to the tuning itself).
  Errno set_dir_stripe_now(std::string_view path, StripeSettings settings);

  // -- statistics ---------------------------------------------------------
  /// The effective placement policy allocating new-file OST sets.
  PlacementKind placement_kind() const { return placement_->kind(); }
  /// Objects currently allocated on each OST.
  std::vector<std::uint64_t> objects_per_ost() const { return objects_per_ost_; }
  /// For the given files: how many of them have >= 1 object on each OST.
  std::vector<std::uint32_t> ost_occupancy(std::span<const InodeId> files) const;
  /// Histogram h[k] = number of OSTs used by exactly k of the given files.
  std::vector<std::uint32_t> collision_histogram(std::span<const InodeId> files) const;
  std::uint64_t files_created() const { return files_created_; }
  Bytes total_bytes_written() const;

 private:
  sim::Co<void> mds_op(Seconds cost);
  Result<InodeId> resolve(std::string_view path) const;
  /// Resolve all but the last component; returns (parent inode, leaf name).
  Result<std::pair<InodeId, std::string>> resolve_parent(std::string_view path) const;
  Result<std::vector<OstIndex>> allocate_osts(const StripeSettings& settings);
  StripeSettings effective_settings(const Inode& dir, StripeSettings req) const;
  Inode& new_inode(bool is_dir, InodeId parent, std::string name);

  sim::Engine* eng_;
  hw::PlatformParams params_;
  std::unique_ptr<PlacementPolicy> placement_;
  PflSpec pfl_;
  Rng rng_;
  std::shared_ptr<const void> live_ = std::make_shared<int>(0);

  std::unique_ptr<sim::LinkModel> fabric_;
  std::vector<std::unique_ptr<sim::LinkModel>> oss_pipes_;
  std::vector<std::unique_ptr<sched::Scheduler>> oss_scheds_;
  std::vector<std::unique_ptr<hw::DiskModel>> ost_disks_;
  std::vector<bool> ost_failed_;
  std::vector<std::uint64_t> objects_per_ost_;

  sim::Resource mds_slots_;
  std::vector<std::unique_ptr<Inode>> inodes_;  // index = InodeId - 1
  InodeId root_ = kNoInode;
  ObjectId next_object_ = 1;
  std::uint64_t files_created_ = 0;
  std::map<std::string, std::vector<OstIndex>, std::less<>> pools_;
};

/// Split "/a/b/c" into components; rejects empty components.
std::vector<std::string_view> split_path(std::string_view path);

}  // namespace pfsc::lustre
