#include "sim/executor_sim.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "fs/trace.hpp"

namespace h4d::sim {

namespace {

/// splitmix64 (same mixer as the storage-fault injector): crash decisions
/// are pure hashes, independent of event-queue ordering.
std::uint64_t fmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double funit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

using fs::BufferPtr;
using fs::CopyStats;
using fs::EdgeSpec;
using fs::Filter;
using fs::FilterContext;
using fs::FilterGraph;
using fs::Policy;
using fs::WorkMeter;

constexpr std::size_t kEosBytes = 64;  ///< wire size of an end-of-stream token

/// Min-heap discrete event queue with deterministic FIFO tie-breaking.
class EventQueue {
 public:
  void schedule(double time, std::function<void()> fn) {
    heap_.push(Event{time, seq_++, std::move(fn)});
  }
  bool empty() const { return heap_.empty(); }
  double now() const { return now_; }

  void run_next() {
    Event e = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = e.time;
    e.fn();
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

struct Item {
  enum class Kind { Data, SourceRun, Flush };
  Kind kind = Kind::Data;
  int port = 0;
  BufferPtr buffer;
  bool remote = false;  ///< arrived over the network (recv CPU applies)
};

struct SimCopy {
  int group = 0;
  int copy = 0;
  int node = 0;
  int ncopies = 1;
  std::unique_ptr<Filter> filter;
  std::deque<Item> inbox;
  bool busy = false;
  bool queued = false;          ///< waiting in the node's ready queue
  bool flush_enqueued = false;
  bool done = false;
  int remaining_eos = 0;
  int pending_deliveries = 0;  ///< buffers routed here but not yet arrived
  double available_at = 0.0;    ///< blocking-send release time
  CopyStats stats;
  // Failure-model state: restart budget spent, and per-task crash counts
  // (key: port, chunk_id, seq, from_copy — one in-flight buffer's identity).
  int restarts_used = 0;
  std::map<std::tuple<int, std::int64_t, std::int64_t, std::int32_t>, int> crashes;
};

struct SimNode {
  NodeSpec spec;
  int busy_cores = 0;
  std::deque<SimCopy*> ready;
  double nic_free = 0.0;
};

struct EdgeRt {
  const EdgeSpec* spec = nullptr;
  std::vector<SimCopy*> consumers;
  std::uint64_t rr_next = 0;
};

/// Collects emissions from a filter call together with the cumulative
/// compute cost at each emission point (used to stream source output over
/// virtual time instead of releasing it all at completion).
class RecordingContext final : public FilterContext {
 public:
  RecordingContext(SimCopy* self, const CostModel* cost)
      : self_(self), cost_(cost), base_(self->stats.meter) {}

  void emit(int port, BufferPtr buffer) override {
    if (!buffer) return;
    buffer->header.from_copy = self_->copy;
    const WorkMeter d = delta(base_, self_->stats.meter);
    const double cum_cost = cost_->compute_seconds(d);
    // A feature block travels as the paper's stream carried its values: one
    // message per kFeatureRecordsPerMessage of them, each routed on its own
    // (CostModel::wire_bytes prices them).
    const std::int64_t per = CostModel::kFeatureRecordsPerMessage;
    const std::int64_t n = fs::feature_block_size(*buffer);
    if (buffer->header.kind == fs::BufferKind::FeatureValues && n > per) {
      for (std::int64_t k = 0; k < n; k += per) {
        emissions_.push_back(
            {port, fs::feature_block_slice(*buffer, k, std::min(per, n - k)), cum_cost});
      }
      return;
    }
    emissions_.push_back({port, std::move(buffer), cum_cost});
  }
  int copy_index() const override { return self_->copy; }
  int num_copies() const override { return self_->ncopies; }
  WorkMeter& meter() override { return self_->stats.meter; }

  struct Emission {
    int port;
    BufferPtr buffer;
    double cum_cost;  ///< compute cost accumulated before this emission
  };
  const std::vector<Emission>& emissions() const { return emissions_; }

  /// Total compute cost of the whole call (speed-1 seconds).
  double total_cost() const {
    return cost_->compute_seconds(delta(base_, self_->stats.meter));
  }

 private:
  SimCopy* self_;
  const CostModel* cost_;
  WorkMeter base_;
  std::vector<Emission> emissions_;
};

class Simulator {
 public:
  Simulator(const FilterGraph& graph, const SimOptions& opt) : graph_(graph), opt_(opt) {
    build();
  }

  SimStats run() {
    // Seed source copies.
    for (auto& group : copies_) {
      for (auto& c : group) {
        if (graph_.is_source(c->group)) {
          c->inbox.push_back(Item{Item::Kind::SourceRun, 0, nullptr, false});
          SimCopy* cp = c.get();
          events_.schedule(0.0, [this, cp] { request_run(cp); });
        }
      }
    }
    while (!events_.empty()) {
      if (opt_.cancel != nullptr && opt_.cancel->load(std::memory_order_acquire)) {
        throw fs::CancelledError("simulated run cancelled at virtual t=" +
                                 std::to_string(events_.now()) + " s");
      }
      if (opt_.virtual_deadline_s > 0.0 && events_.now() > opt_.virtual_deadline_s) {
        throw fs::CancelledError("simulated run exceeded its virtual deadline (" +
                                 std::to_string(opt_.virtual_deadline_s) + " s)");
      }
      events_.run_next();
    }

    SimStats out;
    out.total_seconds = finish_time_;
    out.exec = report_;
    out.network_transfers = net_transfers_;
    out.network_bytes = net_bytes_;
    out.network_busy_seconds = net_busy_;
    for (auto& group : copies_) {
      for (auto& c : group) {
        if (!c->done) {
          throw std::logic_error("simulation ended with unfinished filter copy " +
                                 c->stats.filter + "[" + std::to_string(c->copy) + "]");
        }
        // Whatever of the copy's lifetime was neither compute nor a
        // blocking-send window is attributed to waiting for input (or a
        // core) — the sim has no bounded inboxes to measure directly.
        c->stats.blocked_input_seconds =
            std::max(0.0, c->stats.finish_time - c->stats.busy_seconds -
                              c->stats.blocked_output_seconds);
        out.copies.push_back(c->stats);
      }
    }
    return out;
  }

 private:
  void build() {
    graph_.validate();
    for (const NodeSpec& n : opt_.cluster.nodes) nodes_.push_back(SimNode{n, 0, {}, 0.0});
    if (nodes_.empty()) throw std::invalid_argument("sim: cluster has no nodes");

    // Shared-link resources: one slot per shared group plus one per
    // dedicated link.
    int max_group = -1;
    for (const InterLink& l : opt_.cluster.inter_links) {
      max_group = std::max(max_group, l.shared_group);
    }
    link_free_.assign(
        static_cast<std::size_t>(max_group + 1) + opt_.cluster.inter_links.size(), 0.0);

    const auto& filters = graph_.filters();
    copies_.resize(filters.size());
    for (std::size_t f = 0; f < filters.size(); ++f) {
      for (int k = 0; k < filters[f].copies; ++k) {
        auto c = std::make_unique<SimCopy>();
        c->group = static_cast<int>(f);
        c->copy = k;
        c->node = filters[f].node_of_copy(k);
        if (c->node < 0 || c->node >= static_cast<int>(nodes_.size())) {
          throw std::invalid_argument("sim: filter " + filters[f].name + " copy " +
                                      std::to_string(k) + " placed on invalid node " +
                                      std::to_string(c->node));
        }
        c->ncopies = filters[f].copies;
        c->filter = filters[f].factory();
        c->stats.filter = filters[f].name;
        c->stats.copy = k;
        c->stats.node = c->node;
        copies_[f].push_back(std::move(c));
      }
      if (opt_.trace != nullptr) {
        opt_.trace->set_process_name(static_cast<int>(f), filters[f].name);
        for (int k = 0; k < filters[f].copies; ++k) {
          opt_.trace->set_thread_name(
              static_cast<int>(f), k,
              filters[f].name + "[" + std::to_string(k) + "] node" +
                  std::to_string(filters[f].node_of_copy(k)));
        }
      }
    }
    for (const EdgeSpec& e : graph_.edges()) {
      EdgeRt rt;
      rt.spec = &e;
      for (auto& c : copies_[static_cast<std::size_t>(e.to)]) rt.consumers.push_back(c.get());
      const int producer_copies = filters[static_cast<std::size_t>(e.from)].copies;
      for (auto& c : copies_[static_cast<std::size_t>(e.to)]) {
        c->remaining_eos += producer_copies;
      }
      edges_.push_back(std::move(rt));
    }
  }

  // ---- node scheduling ----

  void request_run(SimCopy* c) {
    const double now = events_.now();
    if (c->busy || c->done || c->inbox.empty()) return;
    if (now < c->available_at) {
      // Still blocked draining a send; retry when released.
      if (!c->queued) {
        c->queued = true;
        events_.schedule(c->available_at, [this, c] {
          c->queued = false;
          request_run(c);
        });
      }
      return;
    }
    // FIFO-fair core allocation: always queue behind already-waiting
    // co-located copies (a copy finishing a task must not starve its
    // neighbours — the co-location pipelining of paper Sec. 5.2 depends on
    // the OS multiplexing filters fairly).
    SimNode& node = nodes_[static_cast<std::size_t>(c->node)];
    if (!c->queued) {
      c->queued = true;
      node.ready.push_back(c);
    }
    node_dispatch(node);
  }

  void node_dispatch(SimNode& node) {
    while (node.busy_cores < node.spec.cores && !node.ready.empty()) {
      SimCopy* c = node.ready.front();
      node.ready.pop_front();
      c->queued = false;
      if (!c->busy && !c->done && !c->inbox.empty() && events_.now() >= c->available_at) {
        start_task(c);
      } else if (!c->inbox.empty() && !c->busy && !c->done) {
        request_run(c);  // re-queue with the availability retry path
      }
    }
  }

  void start_task(SimCopy* c) {
    const double now = events_.now();
    Item item = std::move(c->inbox.front());
    c->inbox.pop_front();
    c->busy = true;
    SimNode& node = nodes_[static_cast<std::size_t>(c->node)];
    node.busy_cores++;

    RecordingContext ctx(c, &opt_.cost);
    double duration = 0.0;       // speed-1 seconds, scaled below
    double failure_delay = 0.0;  // wall virtual seconds lost to crashes/restarts

    switch (item.kind) {
      case Item::Kind::SourceRun:
        c->filter->run_source(ctx);
        c->filter->flush(ctx);
        break;
      case Item::Kind::Data: {
        if (item.remote) {
          const std::size_t bytes = opt_.cost.wire_bytes(*item.buffer);
          duration += opt_.cost.recv_cpu_seconds(bytes);
          c->stats.meter.bytes_in += static_cast<std::int64_t>(bytes);
        }
        c->stats.meter.buffers_in++;
        const bool survives = !opt_.failures.enabled() ||
                              apply_failure_model(c, item, failure_delay);
        if (survives) c->filter->process(item.port, item.buffer, ctx);
        break;
      }
      case Item::Kind::Flush:
        c->filter->flush(ctx);
        break;
    }
    duration += ctx.total_cost();

    const double speed = node.spec.speed;
    const bool is_source = item.kind == Item::Kind::SourceRun;
    const bool is_flush = item.kind == Item::Kind::Flush;

    // Routing decisions (demand-driven load inspection, network queueing)
    // happen at emission release time: completion for ordinary tasks, the
    // emission's own cumulative-cost point for sources, which stream output
    // while they run. Crash/restart delays occupy the copy in wall virtual
    // time (a rebuilding copy is not idle, it is recovering).
    const double completion = now + duration / speed + failure_delay;
    c->stats.busy_seconds += duration / speed + failure_delay;
    if (opt_.trace != nullptr && duration > 0.0) {
      const char* suffix = is_source ? "::source" : (is_flush ? "::flush" : "");
      opt_.trace->span(c->group, c->copy, c->stats.filter + suffix, now,
                       duration / speed);
    }

    const auto emissions = ctx.emissions();  // copy (ctx dies with this scope)
    events_.schedule(completion, [this, c, emissions, is_source, is_flush, now, speed,
                                  completion] {
      double release = completion;
      for (const auto& em : emissions) {
        const double when =
            is_source ? std::min(completion, now + em.cum_cost / speed) : completion;
        const double r = route_emission(c, em.port, em.buffer, when);
        release = std::max(release, r);
      }
      finish_task(c, completion, release, is_flush || is_source);
    });
  }

  /// Play out the failure model for one Data task: seeded crash decisions,
  /// bounded restarts, poison quarantine. Returns false when the task is
  /// quarantined (its data must not be processed); accumulates the virtual
  /// time lost to rebuilds in `failure_delay`. Escalations throw.
  bool apply_failure_model(SimCopy* c, const Item& item, double& failure_delay) {
    const FailureModel& fm = opt_.failures;
    const fs::BufferHeader& h = item.buffer->header;
    const auto key = std::make_tuple(item.port, h.chunk_id, h.seq, h.from_copy);
    int& task_crashes = c->crashes[key];
    const std::uint64_t base =
        fmix64(fm.seed ^ fmix64(static_cast<std::uint64_t>(c->group) << 32 |
                                static_cast<std::uint64_t>(c->copy))) ^
        fmix64(static_cast<std::uint64_t>(h.chunk_id + 1) * 0x9E3779B9u ^
               static_cast<std::uint64_t>(h.seq) << 8 ^
               static_cast<std::uint64_t>(h.from_copy) << 56 ^
               static_cast<std::uint64_t>(item.port));
    for (;;) {
      const double u = funit(fmix64(base ^ static_cast<std::uint64_t>(task_crashes)));
      if (u >= fm.p_crash) return true;  // this attempt succeeds
      task_crashes++;
      const std::string what = "sim: injected crash in " + c->stats.filter + "[" +
                               std::to_string(c->copy) + "] on chunk " +
                               std::to_string(h.chunk_id) + " seq " +
                               std::to_string(h.seq) + " (attempt " +
                               std::to_string(task_crashes) + ")";
      if (fm.policy == fs::SupervisePolicy::FailFast) {
        report_.incidents.push_back(
            {fs::CopyIncident::Kind::Fatal, c->stats.filter, c->copy, what});
        throw std::runtime_error(what);
      }
      const bool poison = task_crashes >= fm.poison_threshold;
      const bool budget_left = c->restarts_used < fm.max_restarts;
      if (fm.policy == fs::SupervisePolicy::Quarantine && (poison || !budget_left)) {
        fs::QuarantinedBuffer q;
        q.filter = c->stats.filter;
        q.copy = c->copy;
        q.port = item.port;
        q.chunk_id = h.chunk_id;
        q.seq = h.seq;
        q.from_copy = h.from_copy;
        q.region = h.region2.volume() > 0 ? h.region2 : h.region;
        q.reason = what;
        report_.chunks_quarantined++;
        report_.quarantined.push_back(std::move(q));
        c->stats.meter.chunks_quarantined++;
        // The crashed copy still rebuilds before taking its next buffer.
        record_restart(c, what, failure_delay);
        if (opt_.trace != nullptr) {
          opt_.trace->instant(c->group, c->copy, "quarantine", events_.now(),
                              {{"chunk", h.chunk_id}});
        }
        return false;
      }
      if (poison || !budget_left) {
        report_.incidents.push_back(
            {fs::CopyIncident::Kind::Fatal, c->stats.filter, c->copy, what});
        throw std::runtime_error(what + ": restart budget exhausted");
      }
      c->restarts_used++;
      record_restart(c, what, failure_delay);
    }
  }

  void record_restart(SimCopy* c, const std::string& what, double& failure_delay) {
    failure_delay += opt_.failures.restart_delay_s;
    c->stats.meter.copy_restarts++;
    report_.copy_restarts++;
    report_.incidents.push_back(
        {fs::CopyIncident::Kind::Restart, c->stats.filter, c->copy, what});
    if (opt_.trace != nullptr) {
      opt_.trace->instant(c->group, c->copy, "restart", events_.now(), {});
    }
  }

  void finish_task(SimCopy* c, double completion, double release, bool was_final) {
    SimNode& node = nodes_[static_cast<std::size_t>(c->node)];
    c->busy = false;
    node.busy_cores--;
    c->available_at = release;
    // Blocking-send window: emitted bytes still draining through the NIC.
    c->stats.blocked_output_seconds += std::max(0.0, release - completion);

    if (was_final) {
      // Source completed or flush completed: emit EOS downstream and retire.
      c->done = true;
      c->stats.finish_time = release;
      finish_time_ = std::max(finish_time_, release);
      send_eos(c, release);
    } else {
      request_run(c);
    }
    node_dispatch(node);
  }

  // ---- streams and network ----

  /// Route one buffer; returns the sender-release time (when its bytes have
  /// left the NIC — equal to `when` for local deliveries).
  double route_emission(SimCopy* from, int port, const BufferPtr& buffer, double when) {
    double release = when;
    for (EdgeRt& e : edges_) {
      if (e.spec->from != from->group || e.spec->port != port) continue;
      const int eport = e.spec->port;
      switch (e.spec->policy) {
        case Policy::Broadcast:
          for (SimCopy* dst : e.consumers) {
            release = std::max(release, deliver(from, dst, eport, buffer, when, false));
          }
          break;
        case Policy::RoundRobin: {
          SimCopy* dst = e.consumers[static_cast<std::size_t>(
              e.rr_next++ % static_cast<std::uint64_t>(e.consumers.size()))];
          release = std::max(release, deliver(from, dst, eport, buffer, when, false));
          break;
        }
        case Policy::DemandDriven: {
          SimCopy* best = e.consumers[0];
          double best_load = load_of(best);
          for (SimCopy* dst : e.consumers) {
            const double l = load_of(dst);
            if (l < best_load) {
              best = dst;
              best_load = l;
            }
          }
          release = std::max(release, deliver(from, best, eport, buffer, when, false));
          break;
        }
        case Policy::Explicit: {
          const int k = e.spec->route(buffer->header, static_cast<int>(e.consumers.size()));
          if (k < 0 || k >= static_cast<int>(e.consumers.size())) {
            throw std::out_of_range("sim: explicit route out of range");
          }
          release = std::max(release,
                             deliver(from, e.consumers[static_cast<std::size_t>(k)], eport,
                                     buffer, when, false));
          break;
        }
      }
    }
    return release;
  }

  /// Load metric for demand-driven distribution (paper Sec. 4.1: route to
  /// the copy with the highest buffer *consumption rate*): outstanding work
  /// divided by the hosting node's speed. In-flight deliveries count because
  /// routing decisions for a burst are made before their arrivals run.
  double load_of(const SimCopy* c) const {
    const double backlog = static_cast<double>(c->inbox.size()) +
                           static_cast<double>(c->pending_deliveries) +
                           (c->busy ? 1.0 : 0.0);
    return backlog / nodes_[static_cast<std::size_t>(c->node)].spec.speed;
  }

  /// Deliver a buffer (or EOS when eos==true). Returns sender-release time.
  double deliver(SimCopy* from, SimCopy* to, int port, const BufferPtr& buffer, double when,
                 bool eos) {
    const std::size_t bytes = eos ? kEosBytes : opt_.cost.wire_bytes(*buffer);
    from->stats.meter.buffers_out += eos ? 0 : 1;
    if (!eos) to->pending_deliveries++;
    if (opt_.trace != nullptr && !eos) {
      opt_.trace->instant(from->group, from->copy, "handoff:" + to->stats.filter, when,
                          {{"bytes", static_cast<std::int64_t>(bytes)},
                           {"to_copy", to->copy},
                           {"remote", from->node == to->node ? 0 : 1}});
    }

    if (from->node == to->node) {
      // Co-located: pointer copy, no wire cost, arrival immediate.
      schedule_arrival(to, port, buffer, when, false, eos);
      return when;
    }

    from->stats.meter.bytes_out += static_cast<std::int64_t>(bytes);
    // Send CPU extends the sender's blocking window.
    const double send_cpu =
        opt_.cost.send_cpu_seconds(bytes) / nodes_[static_cast<std::size_t>(from->node)].spec.speed;

    const auto [sender_release, arrival] = transfer(from->node, to->node, bytes, when);
    schedule_arrival(to, port, buffer, arrival, true, eos);
    return sender_release + send_cpu;
  }

  void schedule_arrival(SimCopy* to, int port, const BufferPtr& buffer, double at,
                        bool remote, bool eos) {
    events_.schedule(at, [this, to, port, buffer, remote, eos] {
      if (eos) {
        if (--to->remaining_eos == 0 && !to->flush_enqueued) {
          to->flush_enqueued = true;
          to->inbox.push_back(Item{Item::Kind::Flush, 0, nullptr, false});
          request_run(to);
        }
        return;
      }
      to->pending_deliveries--;
      to->inbox.push_back(Item{Item::Kind::Data, port, buffer, remote});
      to->stats.max_inbox = std::max(to->stats.max_inbox, to->inbox.size());
      request_run(to);
    });
  }

  /// (start+duration, arrival) of a network transfer.
  std::pair<double, double> transfer(int from_node, int to_node, std::size_t bytes,
                                     double ready) {
    SimNode& a = nodes_[static_cast<std::size_t>(from_node)];
    SimNode& b = nodes_[static_cast<std::size_t>(to_node)];
    const ClusterNet& ca = opt_.cluster.clusters[static_cast<std::size_t>(a.spec.cluster)];
    const ClusterNet& cb = opt_.cluster.clusters[static_cast<std::size_t>(b.spec.cluster)];

    double bw = std::min(ca.nic_bandwidth, cb.nic_bandwidth);
    double latency = 0.0;
    double* link_slot = nullptr;

    if (a.spec.cluster == b.spec.cluster) {
      latency = ca.latency;
    } else {
      const int li = opt_.cluster.find_inter_link(a.spec.cluster, b.spec.cluster);
      if (li < 0) {
        throw std::invalid_argument("sim: no link between clusters " +
                                    std::to_string(a.spec.cluster) + " and " +
                                    std::to_string(b.spec.cluster));
      }
      const InterLink& l = opt_.cluster.inter_links[static_cast<std::size_t>(li)];
      bw = std::min(bw, l.bandwidth);
      latency = ca.latency + l.latency + cb.latency;
      const std::size_t slot =
          l.shared_group >= 0
              ? static_cast<std::size_t>(l.shared_group)
              : num_shared_groups_() + static_cast<std::size_t>(li);
      link_slot = &link_free_[slot];
    }

    double start = std::max(ready, std::max(a.nic_free, b.nic_free));
    if (link_slot != nullptr) start = std::max(start, *link_slot);
    const double dur = static_cast<double>(bytes) / bw;
    a.nic_free = start + dur;
    b.nic_free = start + dur;
    if (link_slot != nullptr) *link_slot = start + dur;

    net_transfers_++;
    net_bytes_ += static_cast<std::int64_t>(bytes);
    net_busy_ += dur;
    return {start + dur, start + dur + latency};
  }

  std::size_t num_shared_groups_() const {
    int max_group = -1;
    for (const InterLink& l : opt_.cluster.inter_links) {
      max_group = std::max(max_group, l.shared_group);
    }
    return static_cast<std::size_t>(max_group + 1);
  }

  void send_eos(SimCopy* from, double when) {
    for (EdgeRt& e : edges_) {
      if (e.spec->from != from->group) continue;
      for (SimCopy* dst : e.consumers) {
        deliver(from, dst, e.spec->port, nullptr, when, true);
      }
    }
  }

  const FilterGraph& graph_;
  const SimOptions& opt_;
  EventQueue events_;
  std::vector<SimNode> nodes_;
  std::vector<std::vector<std::unique_ptr<SimCopy>>> copies_;
  std::vector<EdgeRt> edges_;
  std::vector<double> link_free_;
  fs::ExecutionReport report_;
  double finish_time_ = 0.0;
  std::int64_t net_transfers_ = 0;
  std::int64_t net_bytes_ = 0;
  double net_busy_ = 0.0;
};

}  // namespace

FailureModel FailureModel::parse(const std::string& spec) {
  FailureModel fm;
  if (spec.empty() || spec == "off") return fm;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("failure spec item needs key=value: " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    try {
      if (key == "seed") {
        fm.seed = std::stoull(value);
      } else if (key == "crash") {
        fm.p_crash = std::stod(value);
      } else if (key == "delay") {
        fm.restart_delay_s = std::stod(value);
      } else if (key == "max_restarts") {
        fm.max_restarts = std::stoi(value);
      } else if (key == "poison") {
        fm.poison_threshold = std::stoi(value);
      } else if (key == "policy") {
        fm.policy = fs::supervise_policy_from_name(value);
      } else {
        throw std::runtime_error("unknown failure spec key: " + key);
      }
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("bad failure spec value for " + key + ": " + value);
    }
  }
  if (fm.p_crash < 0.0 || fm.p_crash > 1.0) {
    throw std::runtime_error("failure crash probability outside [0,1]");
  }
  return fm;
}

std::string FailureModel::str() const {
  std::ostringstream os;
  os << "seed=" << seed << ",crash=" << p_crash << ",delay=" << restart_delay_s
     << ",max_restarts=" << max_restarts << ",poison=" << poison_threshold
     << ",policy=" << fs::supervise_policy_name(policy);
  return os.str();
}

SimStats run_simulated(const fs::FilterGraph& graph, const SimOptions& options) {
  Simulator sim(graph, options);
  return sim.run();
}

}  // namespace h4d::sim
