#include "fs/executor_threads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "fs/queue.hpp"
#include "fs/trace.hpp"

namespace h4d::fs {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Internal control-flow exception: thrown when a push/pop fails because the
/// run was aborted (fatal error elsewhere closed every stream). Caught at the
/// top of each copy thread — never recorded as the run's error.
struct PipelineAborted {};

struct Envelope {
  int port = 0;
  BufferPtr buffer;  ///< null => EOS token from one producer copy
};

struct CopyRuntime;

struct EdgeRuntime {
  const EdgeSpec* spec = nullptr;
  std::vector<CopyRuntime*> consumers;  ///< copies of spec->to
  std::atomic<std::uint64_t> rr_next{0};
};

struct CopyRuntime {
  int group = 0;
  int copy = 0;
  int node = 0;
  std::unique_ptr<Filter> filter;
  std::unique_ptr<BoundedQueue<Envelope>> inbox;
  int expected_eos = 0;
  CopyStats stats;

  // --- supervision state -------------------------------------------------
  /// Heartbeat: ns since run start when the current filter call began, or -1
  /// while idle (blocked in pop counts as idle — waiting is not hanging).
  /// Refreshed on every completed downstream push, so a backpressured copy
  /// that is still making progress is never declared dead.
  std::atomic<std::int64_t> busy_since_ns{-1};
  /// Set by the watchdog when this copy exceeded its deadline. Producers stop
  /// routing to it; the copy itself exits without flush/EOS when it wakes.
  std::atomic<bool> declared_dead{false};
  /// Whoever exchanges this to true owns flush+EOS for the copy: the copy
  /// thread on normal completion, or the watchdog on a kill — never both.
  std::atomic<bool> eos_sent{false};
};

/// Run-global supervision state shared by all copy threads and the watchdog.
struct SupervisorShared {
  SupervisorOptions opts;
  std::vector<CopyRuntime*> all;  ///< every copy, for close-all on abort
  std::atomic<bool> aborted{false};
  std::mutex mu;  ///< guards report and first_error
  ExecutionReport report;
  std::exception_ptr first_error;

  /// Fatal error: record it, then close every stream so peers blocked in
  /// push()/pop() unwind deterministically instead of deadlocking.
  void fatal(const CopyRuntime* rt, std::exception_ptr ep, const std::string& what) {
    {
      std::lock_guard lk(mu);
      if (!first_error) first_error = ep;
      report.incidents.push_back(
          {CopyIncident::Kind::Fatal, rt->stats.filter, rt->copy, what});
    }
    aborted.store(true);
    for (CopyRuntime* c : all) c->inbox->close();
  }
};

class ThreadedContext final : public FilterContext {
 public:
  ThreadedContext(CopyRuntime* self, int num_copies, std::vector<EdgeRuntime*> out,
                  SupervisorShared* shared, TraceRecorder* trace, Clock::time_point t0)
      : self_(self), num_copies_(num_copies), out_(std::move(out)), shared_(shared),
        trace_(trace), t0_(t0) {}

  void emit(int port, BufferPtr buffer) override {
    if (!buffer) return;
    buffer->header.from_copy = self_->copy;
    for (EdgeRuntime* e : out_) {
      if (e->spec->port != port) continue;
      deliver(*e, buffer);
    }
  }

  int copy_index() const override { return self_->copy; }
  int num_copies() const override { return num_copies_; }
  WorkMeter& meter() override { return self_->stats.meter; }

  /// Send one EOS token on every outgoing edge to every consumer copy.
  /// Failed pushes (dead consumer, aborted run) are deliberately ignored.
  void send_eos() {
    for (EdgeRuntime* e : out_) {
      for (CopyRuntime* c : e->consumers) {
        (void)c->inbox->push(Envelope{e->spec->port, nullptr});
      }
    }
  }

 private:
  static CopyRuntime* least_loaded_live(const std::vector<CopyRuntime*>& candidates,
                                        const CopyRuntime* exclude) {
    CopyRuntime* best = nullptr;
    std::size_t best_depth = 0;
    for (CopyRuntime* c : candidates) {
      if (c == exclude || c->declared_dead.load(std::memory_order_acquire)) continue;
      const std::size_t d = c->inbox->size();
      if (best == nullptr || d < best_depth) {
        best = c;
        best_depth = d;
      }
    }
    return best;
  }

  void deliver(EdgeRuntime& e, const BufferPtr& buffer) {
    const int n = static_cast<int>(e.consumers.size());
    switch (e.spec->policy) {
      case Policy::Broadcast:
        // Re-routing a broadcast buffer would double-deliver; a dead copy's
        // share is inventoried as lost instead.
        for (CopyRuntime* c : e.consumers) deliver_to(e, c, buffer, false);
        return;
      case Policy::RoundRobin: {
        const auto k = e.rr_next.fetch_add(1, std::memory_order_relaxed);
        deliver_to(e,
                   e.consumers[static_cast<std::size_t>(
                       k % static_cast<std::uint64_t>(n))],
                   buffer, true);
        return;
      }
      case Policy::DemandDriven: {
        // Route to the copy with the shortest inbox — the copy consuming
        // buffers the fastest (paper Sec. 4.1's demand-driven scheduling).
        CopyRuntime* best = least_loaded_live(e.consumers, nullptr);
        if (best == nullptr) best = e.consumers[0];  // all dead: recorded lost
        deliver_to(e, best, buffer, true);
        return;
      }
      case Policy::Explicit: {
        const int k = e.spec->route(buffer->header, n);
        if (k < 0 || k >= n) {
          throw std::out_of_range("explicit route returned copy " + std::to_string(k) +
                                  " of " + std::to_string(n));
        }
        deliver_to(e, e.consumers[static_cast<std::size_t>(k)], buffer, true);
        return;
      }
    }
  }

  /// Push to `dst`, falling over to live sibling copies when the target was
  /// declared dead (its inbox is closed). A push that fails because the run
  /// aborted throws PipelineAborted; a buffer with no live taker is counted
  /// in the damage inventory.
  void deliver_to(EdgeRuntime& e, CopyRuntime* dst, const BufferPtr& buffer,
                  bool reroute) {
    const int port = e.spec->port;
    // Sized before the push: once delivered, the consumer owns the buffer and
    // may take its contents (the Collector moves a FeatureMap's map out).
    const auto bytes = static_cast<std::int64_t>(buffer->wire_bytes());
    const auto push_start = Clock::now();
    CopyRuntime* target = dst;
    bool delivered = false;
    while (target != nullptr) {
      if (!target->declared_dead.load(std::memory_order_acquire)) {
        // Wait on backpressure in bounded slices: each timeout refreshes the
        // heartbeat, so a producer blocked on a full downstream inbox reads
        // as waiting, never as hung (only the consumer wedged *inside* a
        // filter call trips the watchdog).
        bool counted_stall = false;
        PushOutcome outcome;
        do {
          outcome = target->inbox->push_for(Envelope{port, buffer},
                                            std::chrono::milliseconds(50),
                                            !counted_stall);
          counted_stall = true;
          if (outcome == PushOutcome::Timeout &&
              self_->busy_since_ns.load(std::memory_order_relaxed) >= 0) {
            self_->busy_since_ns.store(ns_since(t0_), std::memory_order_relaxed);
          }
        } while (outcome == PushOutcome::Timeout &&
                 !target->declared_dead.load(std::memory_order_acquire));
        if (outcome == PushOutcome::Ok) {
          delivered = true;
          break;
        }
        if (shared_->aborted.load()) throw PipelineAborted{};
        // The target died between routing and push; its declared_dead store
        // happens-before the close that failed this push, so the retry loop
        // below will skip it.
      }
      if (!reroute) break;
      target = least_loaded_live(e.consumers, target);
    }
    const auto push_end = Clock::now();
    self_->stats.blocked_output_seconds +=
        std::chrono::duration<double>(push_end - push_start).count();
    if (!delivered) {
      std::lock_guard lk(shared_->mu);
      shared_->report.buffers_lost++;
      return;
    }
    self_->stats.meter.buffers_out++;
    self_->stats.meter.bytes_out += bytes;
    // A completed handoff is progress: refresh the heartbeat so a copy that
    // is slow only because of downstream backpressure is not declared hung.
    if (self_->busy_since_ns.load(std::memory_order_relaxed) >= 0) {
      self_->busy_since_ns.store(ns_since(t0_), std::memory_order_relaxed);
    }
    if (trace_ != nullptr) {
      trace_->instant(self_->group, self_->copy, "handoff:" + target->stats.filter,
                      seconds_since(t0_, push_end),
                      {{"bytes", bytes},
                       {"to_copy", target->copy}});
      trace_->counter(target->group,
                      "inbox:" + target->stats.filter + "#" +
                          std::to_string(target->copy),
                      seconds_since(t0_, push_end),
                      static_cast<std::int64_t>(target->inbox->size()));
    }
  }

  CopyRuntime* self_;
  int num_copies_;
  std::vector<EdgeRuntime*> out_;
  SupervisorShared* shared_;
  TraceRecorder* trace_;
  Clock::time_point t0_;
};

/// Marks the copy busy for the watchdog while a filter call runs.
struct HeartbeatGuard {
  HeartbeatGuard(CopyRuntime* rt, Clock::time_point t0) : rt_(rt) {
    rt_->busy_since_ns.store(ns_since(t0), std::memory_order_release);
  }
  ~HeartbeatGuard() { rt_->busy_since_ns.store(-1, std::memory_order_release); }
  CopyRuntime* rt_;
};

/// Identity of one in-flight buffer for poison accounting.
using BufferKey = std::tuple<int, std::int64_t, std::int64_t, std::int32_t>;

enum class CrashAction { Retry, Drop, Escalate };

}  // namespace

RunStats run_threaded(const FilterGraph& graph, const ThreadedOptions& options) {
  graph.validate();
  const auto& filters = graph.filters();
  const auto& edges = graph.edges();
  TraceRecorder* const trace = options.trace;

  SupervisorShared shared;
  shared.opts = options.supervise;

  // Instantiate copies.
  std::vector<std::vector<std::unique_ptr<CopyRuntime>>> copies(filters.size());
  for (std::size_t f = 0; f < filters.size(); ++f) {
    for (int c = 0; c < filters[f].copies; ++c) {
      auto rt = std::make_unique<CopyRuntime>();
      rt->group = static_cast<int>(f);
      rt->copy = c;
      rt->node = filters[f].node_of_copy(c);
      rt->filter = filters[f].factory();
      rt->inbox = std::make_unique<BoundedQueue<Envelope>>(options.queue_capacity);
      rt->stats.filter = filters[f].name;
      rt->stats.copy = c;
      rt->stats.node = rt->node;
      shared.all.push_back(rt.get());
      copies[f].push_back(std::move(rt));
    }
    if (trace != nullptr) {
      trace->set_process_name(static_cast<int>(f), filters[f].name);
      for (int c = 0; c < filters[f].copies; ++c) {
        trace->set_thread_name(static_cast<int>(f), c,
                               filters[f].name + "[" + std::to_string(c) + "]");
      }
    }
  }

  // Wire edges and EOS expectations.
  std::vector<std::unique_ptr<EdgeRuntime>> edge_rts;
  edge_rts.reserve(edges.size());
  std::vector<std::vector<EdgeRuntime*>> group_out(filters.size());
  for (const EdgeSpec& e : edges) {
    auto rt = std::make_unique<EdgeRuntime>();
    rt->spec = &e;
    for (auto& c : copies[static_cast<std::size_t>(e.to)]) rt->consumers.push_back(c.get());
    const int producer_copies = filters[static_cast<std::size_t>(e.from)].copies;
    for (auto& c : copies[static_cast<std::size_t>(e.to)]) c->expected_eos += producer_copies;
    group_out[static_cast<std::size_t>(e.from)].push_back(rt.get());
    edge_rts.push_back(std::move(rt));
  }

  const auto t0 = Clock::now();

  // Rebuild a crashed copy's filter from its factory: the failure domain is
  // one copy's in-memory state.
  auto rebuild = [&](CopyRuntime* rt, const std::string& what) {
    rt->filter = filters[static_cast<std::size_t>(rt->group)].factory();
    rt->stats.meter.copy_restarts++;
    {
      std::lock_guard lk(shared.mu);
      shared.report.copy_restarts++;
      shared.report.incidents.push_back(
          {CopyIncident::Kind::Restart, rt->stats.filter, rt->copy, what});
    }
    if (trace != nullptr) {
      trace->instant(rt->group, rt->copy, "restart", seconds_since(t0, Clock::now()),
                     {});
    }
  };

  // Decide what happens to the buffer whose process() call just threw.
  auto on_crash = [&](CopyRuntime* rt, const Envelope& env, const std::string& what,
                      std::map<BufferKey, int>& crashes, int& restarts_used) {
    const BufferHeader& h = env.buffer->header;
    const int n = ++crashes[BufferKey{env.port, h.chunk_id, h.seq, h.from_copy}];
    const bool poison = n >= shared.opts.poison_threshold;
    const bool budget_left = restarts_used < shared.opts.max_restarts;
    if (shared.opts.policy == SupervisePolicy::Quarantine && (poison || !budget_left)) {
      QuarantinedBuffer q;
      q.filter = rt->stats.filter;
      q.copy = rt->copy;
      q.port = env.port;
      q.chunk_id = h.chunk_id;
      q.seq = h.seq;
      q.from_copy = h.from_copy;
      q.region = h.region2.volume() > 0 ? h.region2 : h.region;
      q.reason = what;
      {
        std::lock_guard lk(shared.mu);
        shared.report.chunks_quarantined++;
        shared.report.quarantined.push_back(std::move(q));
      }
      rt->stats.meter.chunks_quarantined++;
      if (trace != nullptr) {
        trace->instant(rt->group, rt->copy, "quarantine",
                       seconds_since(t0, Clock::now()), {{"chunk", h.chunk_id}});
      }
      rebuild(rt, what);
      return CrashAction::Drop;
    }
    if (poison || !budget_left) return CrashAction::Escalate;
    restarts_used++;
    rebuild(rt, what);
    return CrashAction::Retry;
  };

  std::vector<std::thread> threads;
  for (std::size_t f = 0; f < filters.size(); ++f) {
    const bool source = graph.is_source(static_cast<int>(f));
    for (auto& copy : copies[f]) {
      CopyRuntime* rt = copy.get();
      const int ncopies = filters[f].copies;
      std::vector<EdgeRuntime*> out = group_out[f];
      threads.emplace_back([rt, ncopies, out = std::move(out), source, t0, trace,
                            &shared, &on_crash] {
        ThreadedContext ctx(rt, ncopies, out, &shared, trace, t0);
        auto busy = Clock::duration::zero();
        // Times one filter call; records its activity span when tracing.
        const auto timed_call = [&](const char* phase, auto&& call) {
          const auto b = Clock::now();
          call();
          const auto e = Clock::now();
          busy += e - b;
          if (trace != nullptr) {
            trace->span(rt->group, rt->copy, rt->stats.filter + phase,
                        seconds_since(t0, b), std::chrono::duration<double>(e - b).count());
          }
        };
        try {
          if (source) {
            // Sources are never restarted: re-running run_source() would
            // re-emit everything already delivered downstream. A source
            // crash is fatal under every policy.
            {
              HeartbeatGuard hb(rt, t0);
              timed_call("", [&] {
                rt->filter->run_source(ctx);
                rt->filter->flush(ctx);
              });
            }
            if (!rt->eos_sent.exchange(true)) ctx.send_eos();
          } else {
            int remaining = rt->expected_eos;
            int restarts_used = 0;
            std::map<BufferKey, int> crashes;
            while (remaining > 0) {
              const auto w0 = Clock::now();
              std::optional<Envelope> env = rt->inbox->pop();
              rt->stats.blocked_input_seconds +=
                  std::chrono::duration<double>(Clock::now() - w0).count();
              if (!env) break;  // closed: run aborted or this copy was killed
              if (rt->declared_dead.load(std::memory_order_acquire)) break;
              if (!env->buffer) {
                --remaining;
                continue;
              }
              rt->stats.meter.buffers_in++;
              rt->stats.meter.bytes_in +=
                  static_cast<std::int64_t>(env->buffer->wire_bytes());
              for (;;) {  // attempt loop: retried across copy restarts
                try {
                  {
                    HeartbeatGuard hb(rt, t0);
                    timed_call("",
                               [&] { rt->filter->process(env->port, env->buffer, ctx); });
                  }
                  break;
                } catch (const PipelineAborted&) {
                  throw;
                } catch (...) {
                  if (rt->declared_dead.load(std::memory_order_acquire)) {
                    // The watchdog already handed this copy's work to
                    // siblings and sent EOS on its behalf; just leave.
                    throw PipelineAborted{};
                  }
                  if (shared.opts.policy == SupervisePolicy::FailFast) throw;
                  std::string what = "unknown exception";
                  try {
                    throw;
                  } catch (const std::exception& ex) {
                    what = ex.what();
                  } catch (...) {
                  }
                  const CrashAction action =
                      on_crash(rt, *env, what, crashes, restarts_used);
                  if (action == CrashAction::Escalate) throw;
                  if (action == CrashAction::Drop) break;
                  // Retry: the copy was rebuilt; run the buffer again.
                }
              }
            }
            if (!shared.aborted.load() &&
                !rt->declared_dead.load(std::memory_order_acquire)) {
              timed_call("::flush", [&] {
                HeartbeatGuard hb(rt, t0);
                rt->filter->flush(ctx);
              });
              if (!rt->eos_sent.exchange(true)) ctx.send_eos();
            }
          }
        } catch (const PipelineAborted&) {
          // Cooperative shutdown; the originating copy recorded the error.
        } catch (...) {
          const std::exception_ptr ep = std::current_exception();
          std::string what = "unknown exception";
          try {
            std::rethrow_exception(ep);
          } catch (const std::exception& ex) {
            what = ex.what();
          } catch (...) {
          }
          rt->eos_sent.store(true);
          shared.fatal(rt, ep, what);
        }
        // Pushes into full downstream inboxes happen inside process()/
        // run_source(); report them as blocked-on-output, not busy time.
        rt->stats.busy_seconds = std::max(
            0.0, std::chrono::duration<double>(busy).count() -
                     rt->stats.blocked_output_seconds);
        rt->stats.finish_time = seconds_since(t0, Clock::now());
      });
    }
  }

  // Canceller: polls the external cancel token and, when it fires, closes
  // every stream — the same deterministic abort path as a fatal error, but
  // reported as CancelledError after join instead of a filter exception.
  std::thread canceller;
  std::mutex cx_mu;
  std::condition_variable cx_cv;
  bool cx_stop = false;
  std::atomic<bool> cancelled{false};
  if (options.cancel != nullptr) {
    canceller = std::thread([&] {
      const double poll_ms = options.cancel_poll_ms > 0.0 ? options.cancel_poll_ms : 5.0;
      std::unique_lock lk(cx_mu);
      while (!cx_stop) {
        if (options.cancel->load(std::memory_order_acquire)) {
          cancelled.store(true);
          shared.aborted.store(true);
          for (CopyRuntime* c : shared.all) c->inbox->close();
          return;
        }
        cx_cv.wait_for(lk, std::chrono::duration<double, std::milli>(poll_ms),
                       [&] { return cx_stop; });
      }
    });
  }

  // Watchdog: declares a copy dead when one filter call (with no completed
  // handoff) exceeds the deadline, re-routes its pending buffers to live
  // sibling copies, and sends EOS downstream on its behalf so the rest of
  // the pipeline completes (degraded, with a precise report).
  std::thread watchdog;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_stop = false;
  std::vector<std::atomic<bool>> killed(shared.all.size());
  for (auto& k : killed) k.store(false);
  if (shared.opts.watchdog_deadline_ms > 0.0) {
    watchdog = std::thread([&] {
      const auto deadline_ns =
          static_cast<std::int64_t>(shared.opts.watchdog_deadline_ms * 1e6);
      const double poll_ms = shared.opts.watchdog_poll_ms > 0.0
                                 ? shared.opts.watchdog_poll_ms
                                 : shared.opts.watchdog_deadline_ms / 4.0;
      std::unique_lock lk(wd_mu);
      while (!wd_stop) {
        wd_cv.wait_for(lk, std::chrono::duration<double, std::milli>(poll_ms),
                       [&] { return wd_stop; });
        if (wd_stop || shared.aborted.load()) break;
        const std::int64_t now = ns_since(t0);
        for (std::size_t i = 0; i < shared.all.size(); ++i) {
          CopyRuntime* rt = shared.all[i];
          const std::int64_t b = rt->busy_since_ns.load(std::memory_order_acquire);
          if (b < 0 || now - b < deadline_ns) continue;
          if (rt->eos_sent.exchange(true)) continue;  // finished concurrently
          rt->declared_dead.store(true, std::memory_order_release);
          rt->inbox->close();
          // Drain pending buffers: data re-routes demand-driven to live
          // siblings; the dead copy's own EOS tokens are moot.
          auto& siblings = copies[static_cast<std::size_t>(rt->group)];
          while (std::optional<Envelope> env = rt->inbox->try_pop()) {
            if (!env->buffer) continue;
            // Bounded takeover attempts: a sibling that already sent EOS has
            // left its pop loop and would silently strand the buffer; a
            // sibling that never frees a slot must not wedge the watchdog.
            bool placed = false;
            for (int attempt = 0; attempt < 20 && !placed; ++attempt) {
              CopyRuntime* best = nullptr;
              std::size_t depth = 0;
              for (auto& s : siblings) {
                if (s.get() == rt || s->declared_dead.load(std::memory_order_acquire) ||
                    s->eos_sent.load(std::memory_order_acquire)) {
                  continue;
                }
                const std::size_t d = s->inbox->size();
                if (best == nullptr || d < depth) {
                  best = s.get();
                  depth = d;
                }
              }
              if (best == nullptr) break;  // no copy can still take work
              placed = best->inbox->push_for(Envelope{*env},
                                             std::chrono::milliseconds(100),
                                             false) == PushOutcome::Ok;
            }
            if (placed) continue;
            std::lock_guard rlk(shared.mu);
            shared.report.buffers_lost++;
          }
          // EOS downstream on the dead copy's behalf: consumers still see
          // the full expected producer count.
          for (EdgeRuntime* e : group_out[static_cast<std::size_t>(rt->group)]) {
            for (CopyRuntime* c : e->consumers) {
              (void)c->inbox->push(Envelope{e->spec->port, nullptr});
            }
          }
          killed[i].store(true);
          {
            std::lock_guard rlk(shared.mu);
            shared.report.watchdog_kills++;
            shared.report.incidents.push_back({CopyIncident::Kind::WatchdogKill,
                                               rt->stats.filter, rt->copy,
                                               "deadline exceeded"});
          }
          if (trace != nullptr) {
            trace->instant(rt->group, rt->copy, "watchdog_kill",
                           seconds_since(t0, Clock::now()), {});
          }
        }
      }
    });
  }

  for (std::thread& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard lk(wd_mu);
      wd_stop = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }
  if (canceller.joinable()) {
    {
      std::lock_guard lk(cx_mu);
      cx_stop = true;
    }
    cx_cv.notify_all();
    canceller.join();
  }
  if (cancelled.load()) {
    // Leftover in-flight buffers are intentionally dropped on the floor of
    // their inboxes; no partial results escaped and the manifest is intact.
    for (CopyRuntime* c : shared.all) {
      while (c->inbox->try_pop()) {
      }
    }
    throw CancelledError("run cancelled");
  }
  if (shared.first_error) std::rethrow_exception(shared.first_error);

  // Anything still sitting in an inbox after every copy joined was never
  // processed — e.g. a takeover buffer that raced a sibling's shutdown. Fold
  // it into the loss inventory so the degraded-run report stays exact.
  for (CopyRuntime* c : shared.all) {
    while (std::optional<Envelope> env = c->inbox->try_pop()) {
      if (env->buffer) shared.report.buffers_lost++;
    }
  }

  RunStats out;
  out.total_seconds = seconds_since(t0, Clock::now());
  out.exec = shared.report;
  std::size_t idx = 0;
  for (auto& group : copies) {
    for (auto& c : group) {
      const QueueStats q = c->inbox->stats();
      c->stats.max_inbox = q.max_depth;
      c->stats.enqueue_stall_seconds = q.stall_seconds;
      c->stats.stalled_pushes = q.stalled_pushes;
      out.exec.queue_stalled_pushes += q.stalled_pushes;
      out.exec.queue_stall_seconds += q.stall_seconds;
      out.exec.queue_max_depth =
          std::max(out.exec.queue_max_depth, static_cast<std::int64_t>(q.max_depth));
      // Folded after join to keep the meter single-writer during the run.
      if (killed[idx].load()) c->stats.meter.watchdog_kills = 1;
      idx++;
      out.copies.push_back(c->stats);
    }
  }
  return out;
}

}  // namespace h4d::fs
