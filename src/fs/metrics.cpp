#include "fs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace h4d::fs {

namespace {

std::string fmt(double v, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// JSON number for a double: fixed 9-digit precision covers sub-ns times
/// without scientific notation (some strict parsers dislike it in schemas).
void jnum(std::ostream& os, double v) {
  os << std::fixed << std::setprecision(9) << v << std::defaultfloat
     << std::setprecision(6);
}

void jstr(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void write_meter_object(std::ostream& os, const WorkMeter& m) {
  os << "{";
  bool first = true;
  WorkMeter::for_each_field(m, [&](std::string_view name, std::int64_t v) {
    if (!first) os << ", ";
    first = false;
    jstr(os, name);
    os << ": " << v;
  });
  os << "}";
}

void write_timing_fields(std::ostream& os, double busy, double blocked_in,
                         double blocked_out, double enqueue_stall,
                         std::int64_t stalled_pushes, std::size_t max_inbox,
                         double finish) {
  os << "\"busy_seconds\": ";
  jnum(os, busy);
  os << ", \"blocked_input_seconds\": ";
  jnum(os, blocked_in);
  os << ", \"blocked_output_seconds\": ";
  jnum(os, blocked_out);
  os << ", \"enqueue_stall_seconds\": ";
  jnum(os, enqueue_stall);
  os << ", \"stalled_pushes\": " << stalled_pushes
     << ", \"max_inbox\": " << max_inbox << ", \"finish_time\": ";
  jnum(os, finish);
}

}  // namespace

BottleneckReport analyze_bottleneck(const RunStats& stats) {
  BottleneckReport r;
  r.makespan = stats.total_seconds;

  for (const CopyStats& c : stats.copies) {
    auto it = std::find_if(r.filters.begin(), r.filters.end(),
                           [&](const FilterMetrics& f) { return f.filter == c.filter; });
    if (it == r.filters.end()) {
      r.filters.push_back(FilterMetrics{});
      it = std::prev(r.filters.end());
      it->filter = c.filter;
    }
    it->copies++;
    it->meter += c.meter;
    it->busy_seconds += c.busy_seconds;
    it->blocked_input_seconds += c.blocked_input_seconds;
    it->blocked_output_seconds += c.blocked_output_seconds;
    it->enqueue_stall_seconds += c.enqueue_stall_seconds;
    it->stalled_pushes += c.stalled_pushes;
    it->max_inbox = std::max(it->max_inbox, c.max_inbox);
    it->finish_time = std::max(it->finish_time, c.finish_time);
  }

  for (FilterMetrics& f : r.filters) {
    const double span = r.makespan * f.copies;
    f.utilization = span > 0.0 ? f.busy_seconds / span : 0.0;
    f.output_stall_fraction = span > 0.0 ? f.blocked_output_seconds / span : 0.0;
    if (f.utilization > r.bound_utilization) {
      r.bound_utilization = f.utilization;
      r.bound_filter = f.filter;
    }
    if (f.meter.bytes_out > r.dominant_stream_bytes) {
      r.dominant_stream_bytes = f.meter.bytes_out;
      r.dominant_stream_filter = f.filter;
    }
  }

  // Verdict: who is the bound stage, and is the rest of the pipeline
  // backpressured on it (the paper Fig. 9 / Fig. 7(b) plateau analysis)?
  std::ostringstream v;
  if (r.filters.empty() || r.makespan <= 0.0) {
    v << "no data";
  } else if (r.bound_utilization < 0.5) {
    v << "balanced: no filter dominates (max utilization "
      << fmt(r.bound_utilization * 100, 1) << "% at " << r.bound_filter
      << "); the run is likely bound by stream traffic or startup/drain";
  } else {
    double upstream_stall = 0.0;
    for (const FilterMetrics& f : r.filters) {
      if (f.filter != r.bound_filter) upstream_stall += f.blocked_output_seconds;
    }
    v << r.bound_filter << "-bound: utilization "
      << fmt(r.bound_utilization * 100, 1) << "%";
    if (upstream_stall > 0.1 * r.makespan) {
      v << "; other filters spent " << fmt(upstream_stall) << " s blocked on full "
        << "downstream inboxes / sends (pipeline backpressured on " << r.bound_filter
        << ")";
    } else {
      v << "; upstream filters are not significantly backpressured (compute-bound "
        << "stage, adding " << r.bound_filter << " copies should help)";
    }
  }
  r.verdict = v.str();
  return r;
}

void print_bottleneck_report(std::ostream& os, const BottleneckReport& report) {
  os << "bottleneck report (makespan " << fmt(report.makespan) << " s):\n";
  os << "  " << std::left << std::setw(10) << "filter" << std::right << std::setw(7)
     << "copies" << std::setw(10) << "busy(s)" << std::setw(7) << "util" << std::setw(11)
     << "blk-in(s)" << std::setw(12) << "blk-out(s)" << std::setw(10) << "stall(s)"
     << std::setw(7) << "max-q" << std::setw(12) << "bytes-out" << "\n";
  for (const FilterMetrics& f : report.filters) {
    os << "  " << std::left << std::setw(10) << f.filter << std::right << std::setw(7)
       << f.copies << std::setw(10) << fmt(f.busy_seconds) << std::setw(6)
       << fmt(f.utilization * 100, 0) << "%" << std::setw(11)
       << fmt(f.blocked_input_seconds) << std::setw(12) << fmt(f.blocked_output_seconds)
       << std::setw(10) << fmt(f.enqueue_stall_seconds) << std::setw(7) << f.max_inbox
       << std::setw(12) << f.meter.bytes_out << "\n";
  }
  if (!report.dominant_stream_filter.empty()) {
    os << "  dominant stream: " << report.dominant_stream_filter << " emits "
       << report.dominant_stream_bytes << " bytes\n";
  }
  os << "  verdict: " << report.verdict << "\n";
}

void write_metrics_object(std::ostream& os, const RunStats& stats,
                          const BottleneckReport& report, const MetricsExtra& extra) {
  os << "{\"schema\": \"h4d-metrics-v1\", \"makespan_seconds\": ";
  jnum(os, stats.total_seconds);

  os << ",\n \"filters\": [";
  for (std::size_t i = 0; i < report.filters.size(); ++i) {
    const FilterMetrics& f = report.filters[i];
    os << (i ? ",\n   " : "\n   ") << "{\"filter\": ";
    jstr(os, f.filter);
    os << ", \"copies\": " << f.copies << ", ";
    write_timing_fields(os, f.busy_seconds, f.blocked_input_seconds,
                        f.blocked_output_seconds, f.enqueue_stall_seconds,
                        f.stalled_pushes, f.max_inbox, f.finish_time);
    os << ", \"utilization\": ";
    jnum(os, f.utilization);
    os << ", \"output_stall_fraction\": ";
    jnum(os, f.output_stall_fraction);
    os << ", \"meter\": ";
    write_meter_object(os, f.meter);
    os << "}";
  }
  os << "],\n \"copies\": [";
  for (std::size_t i = 0; i < stats.copies.size(); ++i) {
    const CopyStats& c = stats.copies[i];
    os << (i ? ",\n   " : "\n   ") << "{\"filter\": ";
    jstr(os, c.filter);
    os << ", \"copy\": " << c.copy << ", \"node\": " << c.node << ", ";
    write_timing_fields(os, c.busy_seconds, c.blocked_input_seconds,
                        c.blocked_output_seconds, c.enqueue_stall_seconds,
                        c.stalled_pushes, c.max_inbox, c.finish_time);
    os << ", \"meter\": ";
    write_meter_object(os, c.meter);
    os << "}";
  }
  os << "],\n \"bottleneck\": {\"bound_filter\": ";
  jstr(os, report.bound_filter);
  os << ", \"bound_utilization\": ";
  jnum(os, report.bound_utilization);
  os << ", \"dominant_stream_filter\": ";
  jstr(os, report.dominant_stream_filter);
  os << ", \"dominant_stream_bytes\": " << report.dominant_stream_bytes
     << ", \"verdict\": ";
  jstr(os, report.verdict);
  os << "}";
  os << ",\n \"execution\": {\"copy_restarts\": " << stats.exec.copy_restarts
     << ", \"chunks_quarantined\": " << stats.exec.chunks_quarantined
     << ", \"watchdog_kills\": " << stats.exec.watchdog_kills
     << ", \"buffers_lost\": " << stats.exec.buffers_lost
     << ", \"chunks_resumed\": " << stats.exec.chunks_resumed
     << ", \"replica_failovers\": " << stats.exec.replica_failovers
     << ", \"nodes_evicted\": " << stats.exec.nodes_evicted
     << ", \"queue_stalled_pushes\": " << stats.exec.queue_stalled_pushes
     << ", \"queue_stall_seconds\": ";
  jnum(os, stats.exec.queue_stall_seconds);
  os << ", \"queue_max_depth\": " << stats.exec.queue_max_depth
     << ", \"quarantined\": [";
  for (std::size_t i = 0; i < stats.exec.quarantined.size(); ++i) {
    const QuarantinedBuffer& q = stats.exec.quarantined[i];
    os << (i ? ", " : "") << "{\"filter\": ";
    jstr(os, q.filter);
    os << ", \"copy\": " << q.copy << ", \"port\": " << q.port
       << ", \"chunk_id\": " << q.chunk_id << ", \"seq\": " << q.seq
       << ", \"from_copy\": " << q.from_copy << ", \"region\": ";
    jstr(os, q.region.str());
    os << ", \"reason\": ";
    jstr(os, q.reason);
    os << "}";
  }
  os << "], \"incidents\": [";
  for (std::size_t i = 0; i < stats.exec.incidents.size(); ++i) {
    const CopyIncident& inc = stats.exec.incidents[i];
    os << (i ? ", " : "") << "{\"kind\": ";
    jstr(os, incident_kind_name(inc.kind));
    os << ", \"filter\": ";
    jstr(os, inc.filter);
    os << ", \"copy\": " << inc.copy << ", \"error\": ";
    jstr(os, inc.error);
    os << "}";
  }
  os << "]}";
  if (stats.cache.present) {
    const CacheReport& c = stats.cache;
    os << ",\n \"cache\": {\"budget_bytes\": " << c.budget_bytes
       << ", \"tile_w\": " << c.tile_w << ", \"tile_h\": " << c.tile_h
       << ", \"prefetch_depth\": " << c.prefetch_depth
       << ", \"lookups\": " << c.lookups << ", \"hits\": " << c.hits
       << ", \"misses\": " << c.misses << ", \"bytes_read_disk\": " << c.bytes_read_disk
       << ", \"bytes_served_cache\": " << c.bytes_served_cache
       << ", \"prefetch_issued\": " << c.prefetch_issued
       << ", \"prefetch_useful\": " << c.prefetch_useful
       << ", \"evictions\": " << c.evictions
       << ", \"resident_bytes\": " << c.resident_bytes << "}";
  }
  if (stats.tail.present) {
    const TailReport& t = stats.tail;
    os << ",\n \"io_tail\": {\"deadline_mode\": ";
    jstr(os, t.deadline_mode);
    os << ", \"deadline_ms\": ";
    jnum(os, t.deadline_ms);
    os << ", \"deadline_k\": ";
    jnum(os, t.deadline_k);
    os << ", \"deadline_floor_ms\": ";
    jnum(os, t.deadline_floor_ms);
    os << ", \"deadline_ceiling_ms\": ";
    jnum(os, t.deadline_ceiling_ms);
    os << ", \"hedge_enabled\": " << (t.hedge_enabled ? "true" : "false")
       << ", \"hedge_pct\": ";
    jnum(os, t.hedge_pct);
    os << ", \"hedge_max_inflight\": " << t.hedge_max_inflight
       << ", \"reads\": " << t.reads << ", \"hedges_issued\": " << t.hedges_issued
       << ", \"hedges_won\": " << t.hedges_won
       << ", \"hedges_abandoned\": " << t.hedges_abandoned
       << ", \"reads_abandoned\": " << t.reads_abandoned
       << ", \"breaches\": " << t.breaches
       << ", \"evictions_slow\": " << t.evictions_slow << ", \"nodes\": [";
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      const TailNodeRow& n = t.nodes[i];
      os << (i ? ", " : "") << "{\"node\": " << n.node << ", \"reads\": " << n.reads
         << ", \"ewma_ms\": ";
      jnum(os, n.ewma_ms);
      os << ", \"p50_ms\": ";
      jnum(os, n.p50_ms);
      os << ", \"p99_ms\": ";
      jnum(os, n.p99_ms);
      os << ", \"breaches\": " << n.breaches << "}";
    }
    os << "], \"evictions\": [";
    for (std::size_t i = 0; i < t.evictions.size(); ++i) {
      os << (i ? ", " : "") << "{\"node\": " << t.evictions[i].node
         << ", \"reason\": ";
      jstr(os, t.evictions[i].reason);
      os << "}";
    }
    os << "]}";
  }
  if (!extra.empty()) {
    os << ",\n \"extra\": {";
    for (std::size_t i = 0; i < extra.size(); ++i) {
      if (i) os << ", ";
      jstr(os, extra[i].first);
      os << ": ";
      jnum(os, extra[i].second);
    }
    os << "}";
  }
  os << "}";
}

void write_metrics_csv(std::ostream& os, const RunStats& stats) {
  os << "filter,copy,node,busy_seconds,blocked_input_seconds,blocked_output_seconds,"
        "enqueue_stall_seconds,stalled_pushes,max_inbox,finish_time";
  for (const std::string_view name : WorkMeter::kFieldNames) os << "," << name;
  os << "\n";
  for (const CopyStats& c : stats.copies) {
    os << c.filter << "," << c.copy << "," << c.node << ",";
    jnum(os, c.busy_seconds);
    os << ",";
    jnum(os, c.blocked_input_seconds);
    os << ",";
    jnum(os, c.blocked_output_seconds);
    os << ",";
    jnum(os, c.enqueue_stall_seconds);
    os << "," << c.stalled_pushes << "," << c.max_inbox << ",";
    jnum(os, c.finish_time);
    WorkMeter::for_each_field(c.meter,
                              [&](std::string_view, std::int64_t v) { os << "," << v; });
    os << "\n";
  }
}

void write_metrics_file(const std::filesystem::path& path, const RunStats& stats,
                        const MetricsExtra& extra) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("metrics: cannot write " + path.string());
  if (path.extension() == ".csv") {
    write_metrics_csv(os, stats);
  } else {
    write_metrics_object(os, stats, analyze_bottleneck(stats), extra);
    os << "\n";
  }
}

}  // namespace h4d::fs
