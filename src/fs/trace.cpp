#include "fs/trace.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "nd/json.hpp"

namespace h4d::fs {

void TraceRecorder::span(int pid, int tid, std::string name, double ts, double dur,
                         Args args) {
  std::lock_guard lk(mu_);
  events_.push_back(Event{'X', pid, tid, ts, dur, std::move(name), std::move(args)});
}

void TraceRecorder::instant(int pid, int tid, std::string name, double ts, Args args) {
  std::lock_guard lk(mu_);
  events_.push_back(Event{'i', pid, tid, ts, 0.0, std::move(name), std::move(args)});
}

void TraceRecorder::counter(int pid, std::string name, double ts, std::int64_t value) {
  std::lock_guard lk(mu_);
  events_.push_back(Event{'C', pid, 0, ts, 0.0, std::move(name), {{"value", value}}});
}

void TraceRecorder::set_process_name(int pid, std::string name) {
  std::lock_guard lk(mu_);
  process_names_[pid] = std::move(name);
}

void TraceRecorder::set_thread_name(int pid, int tid, std::string name) {
  std::lock_guard lk(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

bool TraceRecorder::empty() const {
  std::lock_guard lk(mu_);
  return events_.empty() && process_names_.empty();
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard lk(mu_);
  return events_.size();
}

void TraceRecorder::write_json(std::ostream& os) const {
  std::lock_guard lk(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n  ";
  };

  for (const auto& [pid, name] : process_names_) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
       << ", \"tid\": 0, \"args\": {\"name\": ";
    write_json_string(os, name);
    os << "}}";
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << key.first
       << ", \"tid\": " << key.second << ", \"args\": {\"name\": ";
    write_json_string(os, name);
    os << "}}";
  }

  for (const Event& e : events_) {
    sep();
    os << "{\"ph\": \"" << e.phase << "\", \"name\": ";
    write_json_string(os, e.name);
    // Microseconds, with sub-µs precision kept (Perfetto accepts fractional ts).
    os << ", \"pid\": " << e.pid << ", \"tid\": " << e.tid << ", \"ts\": ";
    write_json_number(os, e.ts * 1e6, 3);
    if (e.phase == 'X') {
      os << ", \"dur\": ";
      write_json_number(os, e.dur * 1e6, 3);
    }
    if (e.phase == 'i') os << ", \"s\": \"t\"";
    if (!e.args.empty()) {
      os << ", \"args\": {";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ", ";
        write_json_string(os, e.args[i].first);
        os << ": " << e.args[i].second;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

void write_trace_file(const std::filesystem::path& path, const TraceRecorder& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace: cannot write " + path.string());
  trace.write_json(os);
}

}  // namespace h4d::fs
