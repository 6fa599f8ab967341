#include "svc/jobs_metrics.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace h4d::svc {

namespace {

void jnum(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  os << v;
}

void jstr(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u001f";  // control chars cannot appear in our names
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_counters(std::ostream& os, const ServiceCounters& c) {
  os << "{\"submitted\": " << c.submitted << ", \"admitted\": " << c.admitted
     << ", \"completed\": " << c.completed << ", \"rejected\": " << c.rejected
     << ", \"rejected_queue_full\": " << c.rejected_queue_full
     << ", \"rejected_quota\": " << c.rejected_quota
     << ", \"rejected_deadline\": " << c.rejected_deadline
     << ", \"shed\": " << c.shed << ", \"failed\": " << c.failed
     << ", \"retried\": " << c.retried
     << ", \"deadline_missed\": " << c.deadline_missed
     << ", \"cancelled\": " << c.cancelled
     << ", \"degraded\": " << c.degraded << "}";
}

void write_meter(std::ostream& os, const fs::WorkMeter& m) {
  os << '{';
  bool first = true;
  fs::WorkMeter::for_each_field(m, [&](std::string_view name, const auto& v) {
    if (!first) os << ", ";
    first = false;
    jstr(os, name);
    os << ": " << v;
  });
  os << '}';
}

void write_exec(std::ostream& os, const fs::ExecutionReport& e) {
  os << "{\"copy_restarts\": " << e.copy_restarts
     << ", \"chunks_quarantined\": " << e.chunks_quarantined
     << ", \"watchdog_kills\": " << e.watchdog_kills
     << ", \"buffers_lost\": " << e.buffers_lost
     << ", \"chunks_resumed\": " << e.chunks_resumed
     << ", \"replica_failovers\": " << e.replica_failovers
     << ", \"nodes_evicted\": " << e.nodes_evicted
     << ", \"queue_stalled_pushes\": " << e.queue_stalled_pushes
     << ", \"queue_stall_seconds\": ";
  jnum(os, e.queue_stall_seconds);
  os << ", \"queue_max_depth\": " << e.queue_max_depth << "}";
}

}  // namespace

void write_jobs_metrics_object(std::ostream& os, const ServiceStats& stats) {
  os << "{\"schema\": \"h4d-jobs-v1\",\n  \"jobs\": ";
  write_counters(os, stats.counters);
  os << ",\n  \"tenants\": [";
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const TenantStats& t = stats.tenants[i];
    os << (i ? ",\n    " : "\n    ") << "{\"tenant\": ";
    jstr(os, t.tenant);
    os << ", \"weight\": ";
    jnum(os, t.weight);
    os << ", \"submitted\": " << t.submitted << ", \"completed\": " << t.completed
       << ", \"rejected\": " << t.rejected << ", \"shed\": " << t.shed
       << ", \"failed\": " << t.failed << ", \"busy_seconds\": ";
    jnum(os, t.busy_seconds);
    os << ", \"cache_hits\": " << t.cache_hits
       << ", \"cache_misses\": " << t.cache_misses
       << ", \"cache_bytes_served\": " << t.cache_bytes_served
       << ", \"cache_resident_bytes\": " << t.cache_resident_bytes << '}';
  }
  os << "],\n  \"meter\": ";
  write_meter(os, stats.meter);
  os << ",\n  \"exec\": ";
  write_exec(os, stats.exec);
  if (stats.cache.present) {
    const fs::CacheReport& c = stats.cache;
    os << ",\n  \"cache\": {\"budget_bytes\": " << c.budget_bytes
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
    const fs::TailReport& t = stats.tail;
    os << ",\n  \"io_tail\": {\"deadline_mode\": ";
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
      const fs::TailNodeRow& n = t.nodes[i];
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
  os << ",\n  \"per_job\": [";
  for (std::size_t i = 0; i < stats.jobs.size(); ++i) {
    const JobRecord& j = stats.jobs[i];
    os << (i ? ",\n    " : "\n    ") << "{\"id\": " << j.id << ", \"tenant\": ";
    jstr(os, j.tenant);
    os << ", \"priority\": ";
    jstr(os, priority_name(j.priority));
    os << ", \"state\": ";
    jstr(os, state_name(j.state));
    os << ", \"reject_reason\": ";
    jstr(os, reject_reason_name(j.reject_reason));
    os << ", \"attempts\": " << j.attempts
       << ", \"dispatch_order\": " << j.dispatch_order
       << ", \"degraded\": " << (j.degraded ? "true" : "false")
       << ", \"deadline_missed\": " << (j.deadline_missed ? "true" : "false")
       << ", \"cancelled\": " << (j.cancelled ? "true" : "false")
       << ", \"queued_seconds\": ";
    jnum(os, j.queued_seconds);
    os << ", \"run_seconds\": ";
    jnum(os, j.run_seconds);
    os << ", \"result_crc\": " << j.result_crc << '}';
  }
  os << "]\n}";
}

void write_jobs_metrics_file(const std::filesystem::path& path,
                             const ServiceStats& stats) {
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write jobs metrics to " + path.string());
  write_jobs_metrics_object(os, stats);
  os << '\n';
  if (!os) throw std::runtime_error("failed writing jobs metrics to " + path.string());
}

}  // namespace h4d::svc
