// Observability round-trip tests: meter fold, trace JSON, metrics export,
// and the bottleneck report on a deliberately throttled graph.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "fs/executor_threads.hpp"
#include "fs/meter.hpp"
#include "fs/metrics.hpp"
#include "fs/trace.hpp"
#include "json_lite.hpp"
#include "sim/executor_sim.hpp"
#include "toy_filters.hpp"

namespace h4d::fs {
namespace {

namespace json = h4d::testing::json;
using h4d::fs::testing::CollectSink;
using h4d::fs::testing::NumberSource;
using h4d::fs::testing::ScaleFilter;
using h4d::fs::testing::SinkState;
using h4d::fs::testing::SlowFilter;

// ---- WorkMeter fold (the delta() drift bugfix) ----

TEST(MeterFold, FieldListCoversTheWholeStruct) {
  // The static_asserts in meter.hpp are the real guard; restate them as a
  // runtime check so a failure shows up in test output too.
  EXPECT_EQ(WorkMeter::kFieldNames.size() * sizeof(std::int64_t), sizeof(WorkMeter));
}

TEST(MeterFold, PlusEqualsAndDeltaVisitEveryField) {
  WorkMeter a;
  std::int64_t v = 1;
  WorkMeter::for_each_field(a, [&](std::string_view, std::int64_t& x) { x = v++; });
  // Every field must now be distinct and non-zero.
  WorkMeter::for_each_field(a, [&](std::string_view name, std::int64_t x) {
    EXPECT_GT(x, 0) << name;
  });

  WorkMeter b = a;
  b += a;  // b = 2a, field-wise
  const WorkMeter d = delta(a, b);  // should recover a exactly
  std::int64_t expect = 1;
  WorkMeter::for_each_field(d, [&](std::string_view name, std::int64_t x) {
    EXPECT_EQ(x, expect++) << "delta() lost field " << name;
  });

  // delta(x, x) must be all-zero for every field.
  const WorkMeter z = delta(b, b);
  WorkMeter::for_each_field(z, [&](std::string_view name, std::int64_t x) {
    EXPECT_EQ(x, 0) << name;
  });
}

// ---- shared toy graphs ----

FilterGraph pipeline_graph(std::shared_ptr<SinkState> state, int items,
                           std::int64_t work = 0) {
  FilterGraph g;
  const int src = g.add_filter(
      {"source", [items, work] { return std::make_unique<NumberSource>(items, work); }, 1, {}});
  const int mid = g.add_filter(
      {"scale", [work] { return std::make_unique<ScaleFilter>(2, work); }, 2, {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(src, 0, mid, Policy::RoundRobin);
  g.connect(mid, 0, sink);
  return g;
}

std::int64_t copy_sum(const RunStats& stats, std::int64_t WorkMeter::*field) {
  std::int64_t s = 0;
  for (const auto& c : stats.copies) s += c.meter.*field;
  return s;
}

// ---- trace recorder ----

TEST(Trace, ThreadedRunEmitsValidChromeTrace) {
  auto state = std::make_shared<SinkState>();
  TraceRecorder trace;
  ThreadedOptions opt;
  opt.trace = &trace;
  const RunStats stats = run_threaded(pipeline_graph(state, 32), opt);
  EXPECT_EQ(state->count(), 32u);
  EXPECT_FALSE(trace.empty());

  std::ostringstream os;
  trace.write_json(os);
  const json::Value doc = json::parse(os.str());  // throws on malformed JSON
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is(json::Value::Type::Array));
  ASSERT_FALSE(events.array.empty());

  int spans = 0, metadata = 0, instants = 0;
  bool saw_scale_span = false, saw_handoff = false;
  for (const auto& e : events.array) {
    const std::string& ph = e.at("ph").str();
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("ts").num(), 0.0);
      EXPECT_GE(e.at("dur").num(), 0.0);
      if (e.at("name").str().rfind("scale", 0) == 0) saw_scale_span = true;
    } else if (ph == "M") {
      ++metadata;
    } else if (ph == "i") {
      ++instants;
      if (e.at("name").str().rfind("handoff:", 0) == 0) {
        saw_handoff = true;
        EXPECT_TRUE(e.at("args").has("bytes"));
      }
    }
  }
  // 4 copies => at least 4 process/thread name records and activity spans.
  EXPECT_GE(metadata, 7);  // 3 process names + 4 thread names
  EXPECT_GE(spans, 32);    // every process() call of every copy
  EXPECT_GT(instants, 0);
  EXPECT_TRUE(saw_scale_span);
  EXPECT_TRUE(saw_handoff);
  (void)stats;
}

TEST(Trace, SimulatedRunEmitsSpansInVirtualTime) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src = g.add_filter(
      {"source", [] { return std::make_unique<NumberSource>(20, 1'000'000); }, 1, {0}});
  const int mid = g.add_filter(
      {"scale", [] { return std::make_unique<ScaleFilter>(2, 2'000'000); }, 2, {0, 1}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {0}});
  g.connect(src, 0, mid);
  g.connect(mid, 0, sink);

  TraceRecorder trace;
  sim::SimOptions opt;
  opt.cluster.add_cluster("test", 2, 1.0, 1, 100 * sim::kMbit, 100e-6);
  opt.trace = &trace;
  const sim::SimStats stats = sim::run_simulated(g, opt);
  EXPECT_EQ(state->count(), 20u);
  EXPECT_FALSE(trace.empty());

  std::ostringstream os;
  trace.write_json(os);
  const json::Value doc = json::parse(os.str());
  int spans = 0;
  double max_end = 0.0;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.at("ph").str() == "X") {
      ++spans;
      max_end = std::max(max_end, e.at("ts").num() + e.at("dur").num());
    }
  }
  EXPECT_GT(spans, 0);
  // Spans live on the virtual timeline: none may end after the makespan
  // (both in microseconds vs. seconds — convert).
  EXPECT_LE(max_end, stats.total_seconds * 1e6 * 1.001);
}

// ---- metrics export ----

TEST(Metrics, JsonMatchesInMemoryMeterSums) {
  auto state = std::make_shared<SinkState>();
  const RunStats stats = run_threaded(pipeline_graph(state, 24, 100), {});

  const BottleneckReport report = analyze_bottleneck(stats);
  std::ostringstream os;
  write_metrics_object(os, stats, report, {{"answer", 42.0}});
  const json::Value doc = json::parse(os.str());

  EXPECT_EQ(doc.at("schema").str(), "h4d-metrics-v1");
  EXPECT_GT(doc.at("makespan_seconds").num(), 0.0);
  EXPECT_EQ(doc.at("extra").at("answer").num(), 42.0);

  const auto& copies = doc.at("copies");
  ASSERT_EQ(copies.array.size(), stats.copies.size());

  // Per-copy counters in the file must reproduce the in-memory meters, and
  // the per-filter aggregates must equal the sum of their copies — the
  // acceptance criterion for the export.
  double file_buffers_in = 0, file_bytes_out = 0;
  for (const auto& c : copies.array) {
    file_buffers_in += c.at("meter").at("buffers_in").num();
    file_bytes_out += c.at("meter").at("bytes_out").num();
  }
  EXPECT_EQ(static_cast<std::int64_t>(file_buffers_in),
            copy_sum(stats, &WorkMeter::buffers_in));
  EXPECT_EQ(static_cast<std::int64_t>(file_bytes_out),
            copy_sum(stats, &WorkMeter::bytes_out));

  double agg_buffers_in = 0;
  for (const auto& f : doc.at("filters").array) {
    agg_buffers_in += f.at("meter").at("buffers_in").num();
    const double u = f.at("utilization").num();
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
    // Every meter field name must be present in the export.
    for (const auto name : WorkMeter::kFieldNames) {
      EXPECT_TRUE(f.at("meter").has(std::string(name))) << name;
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(agg_buffers_in),
            copy_sum(stats, &WorkMeter::buffers_in));

  const auto& bn = doc.at("bottleneck");
  EXPECT_TRUE(bn.has("bound_filter"));
  EXPECT_TRUE(bn.has("verdict"));
}

TEST(Metrics, CsvHasOneRowPerCopyAndEveryCounterColumn) {
  auto state = std::make_shared<SinkState>();
  const RunStats stats = run_threaded(pipeline_graph(state, 8), {});

  std::ostringstream os;
  write_metrics_csv(os, stats);
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  for (const auto name : WorkMeter::kFieldNames) {
    EXPECT_NE(header.find(name), std::string::npos) << name;
  }
  EXPECT_NE(header.find("busy_seconds"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, stats.copies.size());
}

TEST(Metrics, SimulatedRunExportsCleanly) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src = g.add_filter(
      {"source", [] { return std::make_unique<NumberSource>(16, 500'000); }, 1, {0}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state, 4'000'000); }, 1, {1}});
  g.connect(src, 0, sink);
  sim::SimOptions opt;
  opt.cluster.add_cluster("test", 2, 1.0, 1, 100 * sim::kMbit, 100e-6);
  const sim::SimStats stats = sim::run_simulated(g, opt);

  const BottleneckReport report = analyze_bottleneck(stats);
  std::ostringstream os;
  write_metrics_object(os, stats, report);
  const json::Value doc = json::parse(os.str());
  EXPECT_EQ(doc.at("schema").str(), "h4d-metrics-v1");
  // The sink does 8x the source's work on an equal node: it must be the
  // bound filter in virtual time too.
  EXPECT_EQ(doc.at("bottleneck").at("bound_filter").str(), "sink");
  for (const auto& c : doc.at("copies").array) {
    EXPECT_GE(c.at("busy_seconds").num(), 0.0);
    EXPECT_GE(c.at("blocked_input_seconds").num(), -1e-9);
    EXPECT_GE(c.at("blocked_output_seconds").num(), -1e-9);
  }
}

// Quotes, a backslash, a newline and byte 0x01: every export must escape
// them so the string parses back unchanged.
const std::string kAwkward = std::string("a\"b\\c\nd") + '\x01' + "e";

TEST(Metrics, StringsWithControlBytesRoundTripAndNanExportsAsZero) {
  RunStats stats;
  stats.total_seconds = 1.0;
  QuarantinedBuffer q;
  q.filter = "HCC";
  q.reason = kAwkward;
  stats.exec.quarantined.push_back(q);
  stats.exec.chunks_quarantined = 1;
  CopyIncident inc;
  inc.filter = "HCC";
  inc.error = kAwkward;
  stats.exec.incidents.push_back(inc);

  std::ostringstream os;
  write_metrics_object(os, stats, analyze_bottleneck(stats),
                       {{"undefined", std::nan("")}});
  json::Value doc;
  ASSERT_NO_THROW(doc = json::parse(os.str())) << os.str();
  const json::Value& ex = doc.at("execution");
  EXPECT_EQ(ex.at("quarantined").array.at(0).at("reason").str(), kAwkward);
  EXPECT_EQ(ex.at("incidents").array.at(0).at("error").str(), kAwkward);
  EXPECT_EQ(doc.at("extra").at("undefined").num(), 0.0);
  EXPECT_EQ(os.str().find(": nan"), std::string::npos) << os.str();
}

TEST(Trace, SpanNamesWithControlBytesRoundTrip) {
  TraceRecorder trace;
  trace.set_thread_name(0, 0, kAwkward);
  trace.span(0, 0, kAwkward, 0.5, 0.25, {{kAwkward, 7}});
  std::ostringstream os;
  trace.write_json(os);
  json::Value doc;
  ASSERT_NO_THROW(doc = json::parse(os.str())) << os.str();
  int spans = 0;
  for (const json::Value& e : doc.at("traceEvents").array) {
    if (e.at("ph").str() == "M") {
      EXPECT_EQ(e.at("args").at("name").str(), kAwkward);
    } else {
      ++spans;
      EXPECT_EQ(e.at("name").str(), kAwkward);
      EXPECT_EQ(e.at("args").at(kAwkward).num(), 7.0);
      EXPECT_EQ(e.at("ts").num(), 500000.0);
      EXPECT_EQ(e.at("dur").num(), 250000.0);
    }
  }
  EXPECT_EQ(spans, 1);
}

// ---- bottleneck report ----

TEST(Bottleneck, ReportNamesTheThrottledFilter) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src = g.add_filter(
      {"source", [] { return std::make_unique<NumberSource>(40); }, 1, {}});
  const int slow = g.add_filter(
      {"slow", [] { return std::make_unique<SlowFilter>(std::chrono::milliseconds(3)); },
       1, {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(src, 0, slow);
  g.connect(slow, 0, sink);

  ThreadedOptions opt;
  opt.queue_capacity = 2;  // force the source to stall against the slow stage
  const RunStats stats = run_threaded(g, opt);
  EXPECT_EQ(state->count(), 40u);

  const BottleneckReport report = analyze_bottleneck(stats);
  EXPECT_EQ(report.bound_filter, "slow");
  EXPECT_GT(report.bound_utilization, 0.5);
  EXPECT_NE(report.verdict.find("slow"), std::string::npos);

  // Backpressure must be visible in the raw stats: the source blocked
  // pushing, and the slow copy's inbox recorded the stalls.
  double source_blocked = 0, slow_stall = 0;
  std::int64_t slow_stalled_pushes = 0;
  for (const auto& c : stats.copies) {
    if (c.filter == "source") source_blocked += c.blocked_output_seconds;
    if (c.filter == "slow") {
      slow_stall += c.enqueue_stall_seconds;
      slow_stalled_pushes += c.stalled_pushes;
    }
  }
  EXPECT_GT(source_blocked, 0.0);
  EXPECT_GT(slow_stall, 0.0);
  EXPECT_GT(slow_stalled_pushes, 0);

  std::ostringstream os;
  print_bottleneck_report(os, report);
  EXPECT_NE(os.str().find("slow"), std::string::npos);
  EXPECT_NE(os.str().find("verdict"), std::string::npos);
}

TEST(Bottleneck, BalancedGraphGetsBalancedVerdict) {
  auto state = std::make_shared<SinkState>();
  const RunStats stats = run_threaded(pipeline_graph(state, 16), {});
  const BottleneckReport report = analyze_bottleneck(stats);
  // No filter does real work: nothing should look like a hot bound stage.
  EXPECT_LT(report.bound_utilization, 0.5);
  EXPECT_NE(report.verdict.find("balanced"), std::string::npos);
}

CopyStats copy_stats(const std::string& filter, int copy, double busy,
                     std::int64_t buffers_in) {
  CopyStats c;
  c.filter = filter;
  c.copy = copy;
  c.busy_seconds = busy;
  c.finish_time = 1.0;
  c.meter.buffers_in = buffers_in;
  return c;
}

TEST(Bottleneck, IdleCopyMakesTheVerdictChunkStarved) {
  // The default split run's shape: 3 chunks for 3 HCC copies, one copy
  // took two and another none, so HCC's mean utilization falls under 50%.
  RunStats stats;
  stats.total_seconds = 1.0;
  stats.copies = {copy_stats("RFR", 0, 0.05, 0),  copy_stats("IIC", 0, 0.10, 24),
                  copy_stats("HCC", 0, 0.62, 2),  copy_stats("HCC", 1, 0.61, 1),
                  copy_stats("HCC", 2, 0.0, 0),   copy_stats("HPC", 0, 0.30, 8)};
  const BottleneckReport report = analyze_bottleneck(stats);
  EXPECT_EQ(report.bound_filter, "HCC");
  EXPECT_LT(report.bound_utilization, 0.5);
  EXPECT_EQ(report.verdict.rfind("chunk-starved: 1 of 3 HCC copies received no input", 0), 0u)
      << report.verdict;
  EXPECT_EQ(report.verdict.find("balanced"), std::string::npos) << report.verdict;
  // RFR is a source: none of its copies takes input, so it is not starved.
  EXPECT_EQ(report.verdict.find("RFR"), std::string::npos) << report.verdict;
}

TEST(Bottleneck, AddCopiesAdviceOnlyWhenInputOutnumbersCopies) {
  RunStats stats;
  stats.total_seconds = 1.0;
  stats.copies = {copy_stats("RFR", 0, 0.05, 0), copy_stats("IIC", 0, 0.10, 24),
                  copy_stats("HCC", 0, 0.90, 1), copy_stats("HCC", 1, 0.92, 1),
                  copy_stats("HCC", 2, 0.88, 1), copy_stats("HPC", 0, 0.30, 8)};
  BottleneckReport report = analyze_bottleneck(stats);
  EXPECT_EQ(report.bound_filter, "HCC");
  EXPECT_EQ(report.verdict.rfind("HCC-bound", 0), 0u) << report.verdict;
  // One chunk per copy: a fourth copy would get nothing.
  EXPECT_EQ(report.verdict.find("should help"), std::string::npos) << report.verdict;
  EXPECT_NE(report.verdict.find("3 input buffers for 3 copies"), std::string::npos)
      << report.verdict;

  for (CopyStats& c : stats.copies) {
    if (c.filter == "HCC") c.meter.buffers_in = 2;
  }
  report = analyze_bottleneck(stats);
  EXPECT_NE(report.verdict.find("adding HCC copies should help"), std::string::npos)
      << report.verdict;
}

}  // namespace
}  // namespace h4d::fs
