#include "svc/jobs_metrics.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "fs/metrics.hpp"
#include "nd/json.hpp"

namespace h4d::svc {

namespace {

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

}  // namespace

void write_jobs_metrics_object(std::ostream& os, const ServiceStats& stats) {
  os << "{\"schema\": \"h4d-jobs-v1\",\n  \"jobs\": ";
  write_counters(os, stats.counters);
  os << ",\n  \"tenants\": [";
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const TenantStats& t = stats.tenants[i];
    os << (i ? ",\n    " : "\n    ") << "{\"tenant\": ";
    write_json_string(os, t.tenant);
    os << ", \"weight\": ";
    write_json_number(os, t.weight);
    os << ", \"submitted\": " << t.submitted << ", \"completed\": " << t.completed
       << ", \"rejected\": " << t.rejected << ", \"shed\": " << t.shed
       << ", \"failed\": " << t.failed << ", \"busy_seconds\": ";
    write_json_number(os, t.busy_seconds);
    os << ", \"cache_hits\": " << t.cache_hits
       << ", \"cache_misses\": " << t.cache_misses
       << ", \"cache_bytes_served\": " << t.cache_bytes_served
       << ", \"cache_resident_bytes\": " << t.cache_resident_bytes << '}';
  }
  os << "],\n  \"meter\": ";
  fs::write_meter_object(os, stats.meter);
  os << ",\n  \"exec\": ";
  fs::write_execution_object(os, stats.exec, false);
  if (stats.cache.present) {
    os << ",\n  \"cache\": ";
    fs::write_cache_object(os, stats.cache);
  }
  if (stats.tail.present) {
    os << ",\n  \"io_tail\": ";
    fs::write_tail_object(os, stats.tail);
  }
  os << ",\n  \"per_job\": [";
  for (std::size_t i = 0; i < stats.jobs.size(); ++i) {
    const JobRecord& j = stats.jobs[i];
    os << (i ? ",\n    " : "\n    ") << "{\"id\": " << j.id << ", \"tenant\": ";
    write_json_string(os, j.tenant);
    os << ", \"priority\": ";
    write_json_string(os, priority_name(j.priority));
    os << ", \"state\": ";
    write_json_string(os, state_name(j.state));
    os << ", \"reject_reason\": ";
    write_json_string(os, reject_reason_name(j.reject_reason));
    os << ", \"attempts\": " << j.attempts
       << ", \"dispatch_order\": " << j.dispatch_order
       << ", \"degraded\": " << (j.degraded ? "true" : "false")
       << ", \"deadline_missed\": " << (j.deadline_missed ? "true" : "false")
       << ", \"cancelled\": " << (j.cancelled ? "true" : "false")
       << ", \"queued_seconds\": ";
    write_json_number(os, j.queued_seconds);
    os << ", \"run_seconds\": ";
    write_json_number(os, j.run_seconds);
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
