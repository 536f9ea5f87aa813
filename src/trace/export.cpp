#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "support/table.hpp"

namespace pfsc::trace {

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_ts(std::string& out, Seconds t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", t * 1e6);  // sim seconds -> us
  out += buf;
}

/// Common prefix of every emitted event object: name, cat, pid/tid, ts.
void open_event(std::string& out, bool& first, std::string_view name, Cat cat,
                TrackId track, Seconds t) {
  out += first ? "\n" : ",\n";
  first = false;
  out += "{\"name\":";
  append_json_string(out, name);
  out += ",\"cat\":\"";
  out += cat_name(cat);
  out += "\",\"pid\":0,\"tid\":";
  out += std::to_string(track);
  out += ",\"ts\":";
  append_ts(out, t);
}

void append_args(std::string& out, const Event& e) {
  out += ",\"args\":{\"value\":";
  append_number(out, e.value);
  out += ",\"a0\":";
  out += std::to_string(e.arg0);
  out += ",\"a1\":";
  out += std::to_string(e.arg1);
  out += "}}";
}

/// The canonical view of a recorder: its tracks sorted by name, the remap
/// from recorded track ids into that order, and every event stably ordered
/// by (t, canonical track). A recorder's events are already time-ordered
/// and each track's own order is kept, so the view depends only on the
/// simulated history, not on the order in which tracks were first named.
struct CanonicalView {
  std::vector<std::string> tracks;
  std::vector<TrackId> remap;  // recorded id -> canonical id
  std::vector<const Event*> events;
};

CanonicalView canonical_view(const Recorder& rec) {
  CanonicalView v;
  v.tracks = rec.tracks();
  std::sort(v.tracks.begin(), v.tracks.end());
  v.remap.reserve(rec.tracks().size());
  for (const std::string& name : rec.tracks()) {
    const auto it = std::lower_bound(v.tracks.begin(), v.tracks.end(), name);
    v.remap.push_back(static_cast<TrackId>(it - v.tracks.begin()));
  }
  v.events.reserve(rec.events().size());
  for (const Event& e : rec.events()) v.events.push_back(&e);
  std::stable_sort(v.events.begin(), v.events.end(),
                   [&v](const Event* a, const Event* b) {
                     if (a->t != b->t) return a->t < b->t;
                     return v.remap[a->track] < v.remap[b->track];
                   });
  return v;
}

}  // namespace

std::string export_chrome_trace(const Recorder& rec) {
  const CanonicalView v = canonical_view(rec);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Metadata: name the process and one thread row per track.
  out += "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"pfsc\"}}";
  first = false;
  for (TrackId i = 0; i < v.tracks.size(); ++i) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(i);
    out += ",\"args\":{\"name\":";
    append_json_string(out, v.tracks[i]);
    out += "}}";
  }

  // Async ids come from the recorder's counter, which drops and instrument
  // order also advance; renumber by first appearance in the canonical
  // order so the output depends on the emitted events alone.
  std::map<std::uint64_t, std::uint64_t> ids;
  const auto canonical_id = [&ids](std::uint64_t id) {
    auto [it, inserted] = ids.try_emplace(id, ids.size() + 1);
    return it->second;
  };

  // Per-track stack of open *sync* spans, so a truncated trace (an engine
  // batch still open, a disk mid-service) closes cleanly at export time.
  std::vector<std::vector<const char*>> open_sync(v.tracks.size());
  Seconds last_t = 0.0;

  for (const Event* ep : v.events) {
    const Event& e = *ep;
    const TrackId track = v.remap[e.track];
    last_t = std::max(last_t, e.t);
    switch (e.kind) {
      case EventKind::span_begin:
        open_event(out, first, e.name, e.cat, track, e.t);
        if (e.id == 0) {
          out += ",\"ph\":\"B\"";
          open_sync[track].push_back(e.name);
        } else {
          out += ",\"ph\":\"b\",\"id\":" + std::to_string(canonical_id(e.id));
        }
        append_args(out, e);
        break;
      case EventKind::span_end:
        open_event(out, first, e.name, e.cat, track, e.t);
        if (e.id == 0) {
          out += ",\"ph\":\"E\"";
          if (!open_sync[track].empty()) open_sync[track].pop_back();
        } else {
          out += ",\"ph\":\"e\",\"id\":" + std::to_string(canonical_id(e.id));
        }
        append_args(out, e);
        break;
      case EventKind::instant:
        open_event(out, first, e.name, e.cat, track, e.t);
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        append_args(out, e);
        break;
      case EventKind::counter: {
        // Counters are keyed by (pid, name) in the viewer, so the track
        // label joins the name to keep per-device series distinct.
        std::string qualified = v.tracks[track];
        qualified += '.';
        qualified += e.name;
        open_event(out, first, qualified, e.cat, track, e.t);
        out += ",\"ph\":\"C\",\"args\":{\"value\":";
        append_number(out, e.value);
        out += "}}";
        break;
      }
    }
  }

  for (TrackId track = 0; track < open_sync.size(); ++track) {
    auto& stack = open_sync[track];
    while (!stack.empty()) {
      // Category is unknowable here; the engine owns most sync spans.
      open_event(out, first, stack.back(), Cat::engine, track, last_t);
      out += ",\"ph\":\"E\",\"args\":{}}";
      stack.pop_back();
    }
  }

  out += "\n]}\n";
  return out;
}

std::string export_counters_csv(const Recorder& rec) {
  const CanonicalView v = canonical_view(rec);
  std::string out = "time,track,name,value\n";
  char buf[64];
  for (const Event* ep : v.events) {
    const Event& e = *ep;
    if (e.kind != EventKind::counter) continue;
    std::snprintf(buf, sizeof buf, "%.9g,", e.t);
    out += buf;
    out += v.tracks[v.remap[e.track]];
    out += ',';
    out += e.name;
    std::snprintf(buf, sizeof buf, ",%.9g\n", e.value);
    out += buf;
  }
  return out;
}

double mean_counter_sum(const Recorder& rec, Cat cat, const char* name) {
  const CanonicalView v = canonical_view(rec);
  const std::string_view wanted = name;
  std::unordered_map<TrackId, double> last;
  double sum = 0.0;
  double integral = 0.0;
  Seconds prev = 0.0;
  Seconds start = 0.0;
  bool seen = false;
  for (const Event* ep : v.events) {
    const Event& e = *ep;
    if (e.kind != EventKind::counter || e.cat != cat || wanted != e.name) {
      continue;
    }
    if (!seen) {
      seen = true;
      start = prev = e.t;
    }
    integral += sum * (e.t - prev);
    prev = e.t;
    auto& value = last[e.track];
    sum += e.value - value;
    value = e.value;
  }
  if (!seen) return 0.0;
  const Seconds span = prev - start;
  // A single sampling instant has no extent to average over; report the
  // instantaneous sum instead of 0/0.
  return span > 0.0 ? integral / span : sum;
}

std::string RunSummary::format() const {
  std::string out;
  Bytes total = 0;
  for (const auto& [job, bytes] : job_bytes) total += bytes;

  TextTable table({"job", "served MiB", "share %"});
  for (const auto& [job, bytes] : job_bytes) {
    table.add_row({fmt_int(static_cast<long long>(job)),
                   fmt_double(static_cast<double>(bytes) / (1 << 20), 1),
                   fmt_double(total > 0 ? 100.0 * static_cast<double>(bytes) /
                                              static_cast<double>(total)
                                        : 0.0,
                              1)});
  }
  out += "trace summary: per-job served bytes\n";
  out += table.to_string();

  std::size_t touched = 0;
  std::size_t busiest = 0;
  Bytes busiest_bytes = 0;
  for (std::size_t i = 0; i < ost_bytes.size(); ++i) {
    if (ost_bytes[i] == 0) continue;
    ++touched;
    if (ost_bytes[i] > busiest_bytes) {
      busiest_bytes = ost_bytes[i];
      busiest = i;
    }
  }
  out += "jain index:        " + fmt_double(jain, 4) + "\n";
  out += "mean queue depth:  " + fmt_double(mean_queue_depth, 2) + "\n";
  out += "osts touched:      " + fmt_int(static_cast<long long>(touched)) +
         " of " + fmt_int(static_cast<long long>(ost_bytes.size()));
  if (touched > 0) {
    out += " (busiest ost" + fmt_int(static_cast<long long>(busiest)) + ": " +
           fmt_double(static_cast<double>(busiest_bytes) / (1 << 20), 1) +
           " MiB)";
  }
  out += "\nevents recorded:   " +
         fmt_int(static_cast<long long>(recorded_events)) + " (dropped " +
         fmt_int(static_cast<long long>(dropped_events)) + ")\n";
  return out;
}

std::string resolve_trace_path(const std::string& path, std::uint64_t seed) {
  std::string out = path;
  const std::string placeholder = "{seed}";
  const std::string value = std::to_string(seed);
  std::size_t pos = 0;
  while ((pos = out.find(placeholder, pos)) != std::string::npos) {
    out.replace(pos, placeholder.size(), value);
    pos += value.size();
  }
  return out;
}

}  // namespace pfsc::trace
