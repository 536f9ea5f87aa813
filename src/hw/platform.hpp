// Platform descriptions: every calibration knob for the simulated testbeds.
//
// `cab_lscratchc()` models the system of the paper's Table I: the Cab
// cluster (1,200 × dual E5-2670 nodes, QDR InfiniBand) attached to the
// lscratchc Lustre file system (32 OSS, 480 OSTs, ~30 GB/s theoretical).
// Absolute constants are calibrated so the simulator lands in the paper's
// measured ballpark (see DESIGN.md §5); the *shapes* of the reproduced
// results do not depend on their exact values.
#pragma once

#include <cstdint>
#include <string>

#include "hw/disk.hpp"
#include "lustre/placement.hpp"
#include "lustre/sched/policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "support/units.hpp"

namespace pfsc::hw {

struct PlatformParams {
  std::string name;

  // -- cluster ---------------------------------------------------------
  std::uint32_t nodes = 1200;
  std::uint32_t cores_per_node = 16;
  /// Effective per-node injection bandwidth into the I/O network.
  BytesPerSecond node_nic_bw = mb_per_sec(3200.0);
  /// Per-process I/O processing ceiling (memcpy + RPC stack, one core).
  BytesPerSecond per_process_bw = mb_per_sec(420.0);
  /// One-way message latency for RPCs (request and reply each pay this).
  Seconds rpc_latency = 25.0e-6;

  // -- file-system fabric ----------------------------------------------
  /// Aggregate islanded-I/O-network capacity (all clients -> all servers).
  BytesPerSecond fabric_bw = mb_per_sec(24000.0);

  // -- link sharing -------------------------------------------------------
  /// How concurrent flows share every bandwidth link (per-process pipe,
  /// node NIC, fabric, OSS front end). `fifo` is the historical
  /// store-and-forward server; `fair_share` is the processor-sharing model
  /// where n concurrent flows each see rate/n simultaneously. See
  /// sim/link.hpp and DESIGN.md for when each is appropriate.
  sim::LinkPolicy link_policy = sim::LinkPolicy::fifo;

  // -- event queue --------------------------------------------------------
  /// Pending-event queue backing the simulation engine. Purely a
  /// performance knob: both queues dispatch the identical (time, seq)
  /// order, pinned by the golden regression tests and the heap-vs-radix
  /// property test. `radix` (amortised O(1)) is the default; `binary_heap`
  /// is the O(log n) reference. See sim/event_queue.hpp and DESIGN.md §10.
  sim::EventQueuePolicy event_queue = sim::EventQueuePolicy::radix;

  // -- OSS request scheduling ---------------------------------------------
  /// Server-side (NRS-style) request scheduling on each OSS: how the OSS
  /// orders competing jobs' bulk RPCs before link/disk service. `fifo` is
  /// arrival order with no admission control (the historical behaviour,
  /// pinned bit-for-bit by the golden regression tests); `job_fair` runs
  /// deficit round robin across JobIds; `token_bucket` caps each job's
  /// service rate. See lustre/sched/scheduler.hpp and DESIGN.md §6.
  lustre::sched::SchedPolicy oss_sched_policy = lustre::sched::SchedPolicy::fifo;
  /// Constants for the non-fifo scheduling policies (quantum, service
  /// slots, per-job rate, bucket depth).
  lustre::sched::SchedTuning oss_sched{};

  // -- OST placement -------------------------------------------------------
  /// MDS allocator policy for new-file OST sets. `uniform_random` is the
  /// paper's lscratchc behaviour (the default, pinned bit-for-bit by the
  /// golden tests); `load_aware`/`node_affine` act on the contention model
  /// by spreading live per-OST demand. See lustre/placement.hpp and
  /// DESIGN.md §12.
  lustre::PlacementKind ost_placement = lustre::PlacementKind::uniform_random;

  // -- servers -----------------------------------------------------------
  std::uint32_t oss_count = 32;
  std::uint32_t ost_count = 480;
  /// Effective per-OSS network/service bandwidth. 32 x 600 MB/s ~= 19 GB/s,
  /// matching the ~18 GB/s saturation the paper observes.
  BytesPerSecond oss_bw = mb_per_sec(600.0);
  DiskParams ost_disk{};

  // -- metadata ----------------------------------------------------------
  /// MDS cost to create one file (allocate layout, journal).
  Seconds mds_create_time = 0.4e-3;
  /// MDS cost of open/stat on an existing file.
  Seconds mds_open_time = 0.1e-3;
  /// Concurrent metadata operations the MDS can service.
  std::uint32_t mds_parallelism = 16;

  // -- Lustre defaults ---------------------------------------------------
  std::uint32_t default_stripe_count = 2;
  Bytes default_stripe_size = 1_MiB;
  /// Per-file stripe-count ceiling (160 in Lustre 2.4.x).
  std::uint32_t max_stripe_count = 160;
  /// Largest bulk RPC a client issues to one OST.
  Bytes max_rpc_size = 4_MiB;
  /// Max in-flight RPCs per client process towards the file system.
  std::uint32_t client_max_rpcs_in_flight = 8;
  /// Page-cache write-back budget per client process: buffered writes
  /// return once accepted, with up to this many bytes still in flight.
  Bytes client_writeback_bytes = 32_MiB;

  std::uint32_t total_cores() const { return nodes * cores_per_node; }
};

/// The paper's testbed (Table I): Cab + lscratchc, Lustre 2.4.2.
PlatformParams cab_lscratchc();

/// The Stampede-like configuration of Table VI (58 OSS, 160 OSTs) used to
/// extrapolate the contention metrics to another machine.
PlatformParams stampede_fs();

/// A deliberately tiny platform for fast unit/integration tests.
PlatformParams tiny_test_platform();

}  // namespace pfsc::hw
