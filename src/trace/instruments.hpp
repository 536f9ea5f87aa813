// Instruments: named read-out functions over the simulated system, the
// shared vocabulary between the periodic Sampler (which polls them into
// time series) and the event-driven Recorder (which mirrors each tick as
// Cat::sampler counters).
//
// An Instrument reads one number instantaneously and must be cheap and
// side-effect free. The builders below assemble the standard packs the
// harness and tests use; Sampler's add_*_probe members are thin wrappers
// over them, so both consumers stay in lockstep.
//
// Lifetime rule: an instrument captures a reference to the device it
// reads. It must not outlive that device — register instruments through
// Sampler::add_instruments with FileSystem::liveness() so a stale read
// trips an assertion instead of undefined behaviour.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lustre/fs.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"

namespace pfsc::trace {

struct Instrument {
  std::string name;
  std::function<double()> read;
};

using InstrumentSet = std::vector<Instrument>;

/// Link-level view of one sim::LinkModel: `<prefix>_flows` (instantaneous
/// flow count), `<prefix>_flow_mbps` (per-flow rate), `<prefix>_util`
/// (cumulative utilisation).
InstrumentSet link_instruments(const std::string& prefix, sim::LinkModel& link);

/// Scheduler view, aggregated over all OSS schedulers of `fs`:
/// `sched_queue`, `sched_inflight`, `sched_jain`, plus one `jobJ_bytes`
/// cumulative-served series per requested job.
InstrumentSet sched_instruments(lustre::FileSystem& fs,
                                std::vector<lustre::sched::JobId> jobs = {});

/// Cumulative bytes written to all OSTs of `fs` (`total_bytes`).
InstrumentSet total_bytes_instruments(lustre::FileSystem& fs);

/// One OST disk: `ostN_busy` (cumulative busy seconds) and `ostN_queue`
/// (instantaneous queue depth).
InstrumentSet ost_instruments(lustre::FileSystem& fs, lustre::OstIndex ost);

/// Roll a finished run up into a RunSummary. Per-job bytes and the Jain
/// index come straight from FileSystem::sched_* (so they match the
/// scheduler's own accounting bit for bit); per-OST bytes from the disks;
/// mean queue depth and event counts from the recorder when one is given
/// (`rec` may be null: the summary then reports zero events).
RunSummary collect_summary(lustre::FileSystem& fs, const Recorder* rec);

}  // namespace pfsc::trace
