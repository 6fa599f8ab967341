#include "io/resilient_reader.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "io/replica_set.hpp"
#include "io/tile_cache.hpp"

namespace h4d::io {

namespace {

std::int64_t slice_key(const SliceRef& s) { return (s.t << 32) ^ s.z; }

}  // namespace

ChecksumError::ChecksumError(const std::string& file, std::int64_t t_, std::int64_t z_,
                             std::uint32_t expected, std::uint32_t actual)
    : std::runtime_error([&] {
        std::ostringstream os;
        os << "checksum mismatch in " << file << " (slice t=" << t_ << ", z=" << z_
           << "): index records crc32 " << std::hex << expected << ", read back "
           << actual;
        return os.str();
      }()),
      t(t_),
      z(z_) {}

double RetryPolicy::backoff_ms(int retry) const {
  double ms = backoff_base_ms;
  for (int i = 0; i < retry; ++i) {
    ms *= backoff_factor;
    if (ms >= backoff_max_ms) break;
  }
  return std::min(ms, backoff_max_ms);
}

double RetryPolicy::capped_backoff_ms(int retry, double spent_ms, bool& clipped) const {
  const double want = backoff_ms(retry);
  const double budget = std::max(0.0, total_backoff_cap_ms - spent_ms);
  clipped = want > budget;
  return std::min(want, budget);
}

std::string_view degrade_policy_name(DegradePolicy p) {
  switch (p) {
    case DegradePolicy::FailFast: return "fail_fast";
    case DegradePolicy::Retry: return "retry";
    case DegradePolicy::SkipAndFill: return "skip_and_fill";
  }
  return "?";
}

DegradePolicy degrade_policy_from_name(const std::string& name) {
  if (name == "fail_fast" || name == "fail") return DegradePolicy::FailFast;
  if (name == "retry") return DegradePolicy::Retry;
  if (name == "skip_and_fill" || name == "skip") return DegradePolicy::SkipAndFill;
  throw std::runtime_error("unknown degradation policy: " + name +
                           " (want fail|retry|skip)");
}

void FaultReport::merge(const FaultReport& o) {
  read_retries += o.read_retries;
  checksum_failures += o.checksum_failures;
  slices_skipped += o.slices_skipped;
  slices_recovered += o.slices_recovered;
  replica_failovers += o.replica_failovers;
  nodes_evicted += o.nodes_evicted;
  write_errors += o.write_errors;
  backoffs_capped += o.backoffs_capped;
  skipped.insert(skipped.end(), o.skipped.begin(), o.skipped.end());
}

std::string FaultReport::summary() const {
  std::ostringstream os;
  os << read_retries << " read retries, " << slices_recovered << " slices recovered, "
     << checksum_failures << " checksum failures, " << slices_skipped
     << " slices skipped";
  if (replica_failovers > 0 || nodes_evicted > 0) {
    os << ", " << replica_failovers << " replica failovers, " << nodes_evicted
       << " node evictions";
  }
  if (write_errors > 0) os << ", " << write_errors << " write errors";
  for (const SkippedSlice& s : skipped) {
    os << "\n  skipped slice (t=" << s.t << ", z=" << s.z << "): " << s.reason;
  }
  return os.str();
}

ResilientReader::ResilientReader(StorageNodeReader reader, ResilienceConfig config,
                                 FaultInjector* injector, FaultReportSink* sink,
                                 ReplicaSet* replicas)
    : reader_(std::move(reader)),
      cfg_(config),
      injector_(injector),
      sink_(sink),
      replicas_(replicas) {
  reader_.set_fault_injector(injector);
}

void ResilientReader::attach_cache(TileCache* cache, std::uint64_t dataset_key,
                                   int tenant) {
  cache_ = cache;
  cache_dataset_ = dataset_key;
  cache_tenant_ = tenant;
}

void ResilientReader::attach_tail(const TailConfig& config, LatencyTracker* tracker,
                                  SliceFetchPool* pool) {
  tail_cfg_ = config;
  tail_tracker_ = tracker;
  tail_pool_ = pool;
}

ResilientReader::~ResilientReader() {
  if (sink_) sink_->merge(report_);
}

std::int64_t ResilientReader::seeks_performed() const {
  std::int64_t seeks = reader_.seeks_performed() + pool_seeks_;
  for (const auto& [node, fallback] : fallbacks_) seeks += fallback.seeks_performed();
  return seeks;
}

ReaderCounters ReaderCounters::operator-(const ReaderCounters& o) const {
  return {seeks - o.seeks,
          bytes_read - o.bytes_read,
          cache_hits - o.cache_hits,
          cache_misses - o.cache_misses,
          cache_bytes_served - o.cache_bytes_served,
          read_retries - o.read_retries,
          slices_skipped - o.slices_skipped,
          checksum_failures - o.checksum_failures,
          replica_failovers - o.replica_failovers,
          nodes_evicted - o.nodes_evicted,
          hedges_issued - o.hedges_issued,
          hedges_won - o.hedges_won,
          hedges_abandoned - o.hedges_abandoned,
          reads_abandoned - o.reads_abandoned,
          tail_breaches - o.tail_breaches,
          slow_evictions - o.slow_evictions};
}

ReaderCounters ResilientReader::counters() const {
  ReaderCounters c = io_;
  c.seeks = seeks_performed();
  c.read_retries = report_.read_retries;
  c.slices_skipped = report_.slices_skipped;
  c.checksum_failures = report_.checksum_failures;
  c.replica_failovers = report_.replica_failovers;
  c.nodes_evicted = report_.nodes_evicted;
  return c;
}

std::int64_t ResilientReader::attempted_bytes_read() const {
  std::int64_t bytes = reader_.bytes_read() + pool_attempted_bytes_;
  for (const auto& [node, fallback] : fallbacks_) bytes += fallback.bytes_read();
  return bytes;
}

const StorageNodeReader* ResilientReader::reader_for(int node, std::string& error) {
  if (node == reader_.node_id()) return &reader_;
  if (const auto it = fallbacks_.find(node); it != fallbacks_.end()) return &it->second;
  try {
    // Fallback readers carry no fault injector: injected faults model the
    // first-asked storage path, so a failover lands on clean storage.
    StorageNodeReader fallback(replicas_->node_dir(node), reader_.meta(), node);
    return &fallbacks_.emplace(node, std::move(fallback)).first->second;
  } catch (const std::exception& e) {
    error = e.what();
    return nullptr;
  }
}

void ResilientReader::attempt_read(const StorageNodeReader& reader, const SliceRef& slice,
                                   std::uint16_t* out) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(reader.meta().slice_bytes()));
  reader.read_slice_bytes(slice, bytes.data());
  if (cfg_.verify_checksums && slice.has_crc) {
    const std::uint32_t actual = crc32(bytes.data(), bytes.size());
    if (actual != slice.crc) {
      ++report_.checksum_failures;
      throw ChecksumError(slice.filename, slice.t, slice.z, slice.crc, actual);
    }
  }
  deliver(slice, bytes, out);
}

void ResilientReader::deliver(const SliceRef& slice, const std::vector<std::uint8_t>& bytes,
                              std::uint16_t* out) {
  const DatasetMeta& m = reader_.meta();
  io_.bytes_read += static_cast<std::int64_t>(bytes.size());
  // Only verified-or-injector-free bytes are cache-eligible, which upholds
  // the corrupt-slices-never-cached contract. insert_slice keeps a resident
  // copy, so a duplicate fill from a hedge race dedups.
  if (cache_eligible(slice)) {
    cache_->insert_slice(cache_dataset_, m, slice.t, slice.z, bytes.data(),
                         /*prefetched=*/false, cache_tenant_);
  }
  widen_to_u16(m.dtype, bytes.data(), m.dims[0] * m.dims[1], out);
}

void ResilientReader::fill(std::uint16_t* out) const {
  const DatasetMeta& m = reader_.meta();
  std::fill_n(out, static_cast<std::size_t>(m.dims[0] * m.dims[1]), cfg_.fill_value);
}

void ResilientReader::note_tail_breach(int node) {
  ++io_.tail_breaches;
  if (!tail_tracker_->note_breach(node, tail_cfg_.slow_after)) return;
  if (replicas_ && replicas_->note_slow(node)) {
    ++io_.slow_evictions;
    ++report_.nodes_evicted;
    tail_tracker_->evictions_slow.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ResilientReader::hedged_fetch(const SliceRef& slice, const std::vector<int>& order,
                                   std::string& last_error, std::uint16_t* out) {
  using Clock = std::chrono::steady_clock;
  const bool verified = cfg_.verify_checksums && slice.has_crc;
  const int primary = order[0];
  const auto event = std::make_shared<FetchEvent>();

  struct InFlight {
    int node = -1;
    bool hedge = false;
    bool consumed = false;
    std::shared_ptr<FetchTicket> ticket;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(2);

  const auto submit_to = [&](int node, bool hedge) {
    SliceFetchPool::Request req;
    // Only the wrapped node's fetch consults the injector — injected faults
    // model the first-asked storage path, exactly like the sync fallbacks.
    req.node_dir =
        node == reader_.node_id() ? reader_.node_dir() : replicas_->node_dir(node);
    req.meta = reader_.meta();
    req.node = node;
    req.slice = slice;
    req.injector = node == reader_.node_id() ? injector_ : nullptr;
    req.verify = verified;
    inflight.push_back({node, hedge, false, tail_pool_->submit(std::move(req), event)});
  };

  submit_to(primary, /*hedge=*/false);
  const Clock::time_point start = Clock::now();
  const auto at_ms = [&](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  // Milestones relative to the submit: the hedge threshold (hedge_pct
  // percentile of the primary node's own history) and the adaptive deadline.
  const bool can_hedge = tail_cfg_.hedge_enabled && order.size() > 1;
  const double hedge_ms =
      can_hedge ? tail_tracker_->hedge_delay_for(primary, tail_cfg_) : 0.0;
  const bool has_deadline = tail_cfg_.deadline_enabled;
  const double deadline_ms =
      has_deadline ? tail_tracker_->deadline_for(primary, tail_cfg_) : 0.0;

  InFlight* winner = nullptr;
  const auto harvest = [&]() {
    for (InFlight& f : inflight) {
      if (f.consumed || !f.ticket->done()) continue;
      f.consumed = true;
      FetchResult& r = f.ticket->result();
      ++pool_seeks_;  // one whole-slice fetch = one seek + stream
      pool_attempted_bytes_ += r.bytes_read;
      if (r.ok) {
        winner = &f;
        return true;
      }
      last_error = r.error;
      if (r.crc_failed) ++report_.checksum_failures;
    }
    return false;
  };

  bool hedged = false;
  bool hedge_slot = false;
  int seen = 0;
  while (!harvest()) {
    bool all_done = true;
    for (const InFlight& f : inflight) all_done = all_done && f.consumed;
    if (all_done) {
      // Every issued fetch failed: hand the slice to the synchronous retry /
      // failover machinery (which owns the failure accounting).
      if (hedge_slot) tail_tracker_->end_hedge();
      return false;
    }
    const Clock::time_point now = Clock::now();
    if (has_deadline && now >= at_ms(deadline_ms)) {
      // Deadline expiry: abandon everything still in flight (cancelled if
      // unstarted, drained by its helper thread otherwise) and move on.
      for (InFlight& f : inflight) {
        if (f.consumed) continue;
        f.ticket->abandon();
        if (f.hedge) {
          ++io_.hedges_abandoned;
          tail_tracker_->hedges_abandoned.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++io_.reads_abandoned;
      tail_tracker_->reads_abandoned.fetch_add(1, std::memory_order_relaxed);
      note_tail_breach(primary);
      if (hedge_slot) tail_tracker_->end_hedge();
      last_error = "read deadline (" + std::to_string(deadline_ms) + " ms) expired";
      return false;
    }
    if (!hedged && can_hedge && now >= at_ms(hedge_ms)) {
      hedged = true;  // one hedge per read, whether or not a slot was free
      if (tail_tracker_->try_begin_hedge(tail_cfg_.hedge_max_inflight)) {
        hedge_slot = true;
        ++io_.hedges_issued;
        tail_tracker_->hedges_issued.fetch_add(1, std::memory_order_relaxed);
        submit_to(order[1], /*hedge=*/true);
      }
      continue;
    }
    Clock::time_point next = now + std::chrono::milliseconds(100);
    if (!hedged && can_hedge) next = std::min(next, at_ms(hedge_ms));
    if (has_deadline) next = std::min(next, at_ms(deadline_ms));
    seen = event->wait_until(next, seen);
  }

  // A verified (or injector-free) slice won the race: deliver it exactly
  // like a sync attempt, abandon the loser, settle stats.
  FetchResult& r = winner->ticket->result();
  for (InFlight& f : inflight) {
    if (f.consumed) continue;
    f.ticket->abandon();
    ++io_.hedges_abandoned;
    tail_tracker_->hedges_abandoned.fetch_add(1, std::memory_order_relaxed);
  }
  tail_tracker_->record(winner->node, r.service_ms);
  if (winner->hedge) {
    ++io_.hedges_won;
    tail_tracker_->hedges_won.fetch_add(1, std::memory_order_relaxed);
    note_tail_breach(primary);  // lost hedge = breach against the primary
  } else {
    tail_tracker_->note_on_time(primary);
  }
  if (hedge_slot) tail_tracker_->end_hedge();

  deliver(slice, r.bytes, out);
  if (replicas_) replicas_->note_success(winner->node);
  return true;
}

bool ResilientReader::read_slice(const SliceRef& slice, std::uint16_t* out) {
  // A slice already declared irrecoverable stays filled (and is reported
  // only once), so a re-read sees consistent data without re-retrying.
  if (std::find(failed_slices_.begin(), failed_slices_.end(), slice_key(slice)) !=
      failed_slices_.end()) {
    fill(out);
    return false;
  }

  // Cache-aside: serve the slice from the shared cache when it is resident
  // (filled by another copy, another job, or the prefetcher).
  if (cache_eligible(slice)) {
    if (cache_->read_slice(cache_dataset_, reader_.meta(), slice.t, slice.z, out,
                           cache_tenant_)) {
      ++io_.cache_hits;
      io_.cache_bytes_served += reader_.meta().slice_bytes();
      return true;
    }
    ++io_.cache_misses;
  }

  // Candidate nodes in failover order: the wrapped node alone without a
  // replica set; otherwise this node's copy first, then the remaining
  // replicas by rank (dead/evicted nodes already filtered out).
  const std::vector<int> order =
      replicas_ ? replicas_->replica_order(slice.z, slice.t, reader_.node_id())
                : std::vector<int>{reader_.node_id()};
  const int max_attempts =
      cfg_.policy == DegradePolicy::FailFast ? 1 : std::max(1, cfg_.retry.max_attempts);
  std::string last_error = "no surviving replica holds this slice";

  // Tail-tolerant fast path: pooled slice fetch with adaptive deadline and
  // hedging. Purely advisory — on any failure (fetch error, deadline
  // expiry, lost race with nothing to show) the synchronous loop below still
  // owns correctness, retries and failure accounting.
  if (tail_eligible(slice) && !order.empty() && hedged_fetch(slice, order, last_error, out)) {
    return true;
  }

  double backoff_spent_ms = 0.0;  // budget spans every attempt on every replica
  for (std::size_t ri = 0; ri < order.size(); ++ri) {
    const int node = order[ri];
    const bool last_replica = ri + 1 == order.size();
    const StorageNodeReader* node_reader = reader_for(node, last_error);
    bool exhausted = node_reader == nullptr;
    if (node_reader) {
      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ++report_.read_retries;
          bool clipped = false;
          const double ms =
              cfg_.retry.capped_backoff_ms(attempt - 1, backoff_spent_ms, clipped);
          if (clipped) ++report_.backoffs_capped;
          backoff_spent_ms += ms;
          if (cfg_.retry.really_sleep && ms > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
          }
        }
        try {
          attempt_read(*node_reader, slice, out);
          if (attempt > 0) ++report_.slices_recovered;
          if (replicas_) replicas_->note_success(node);
          return true;
        } catch (const std::exception& e) {
          last_error = e.what();
          // FailFast on the final replica keeps the original exception type
          // (ChecksumError, SliceReadError) — with r=1 this is exactly the
          // pre-replication behavior.
          if (cfg_.policy == DegradePolicy::FailFast && last_replica) {
            if (replicas_ && replicas_->note_failure(node)) ++report_.nodes_evicted;
            throw;
          }
          if (cfg_.policy == DegradePolicy::FailFast) break;
        }
      }
      exhausted = true;
    }
    if (exhausted) {
      if (replicas_ && replicas_->note_failure(node)) ++report_.nodes_evicted;
      if (!last_replica) ++report_.replica_failovers;
    }
  }

  if (cfg_.policy == DegradePolicy::Retry || cfg_.policy == DegradePolicy::FailFast) {
    throw std::runtime_error("slice (t=" + std::to_string(slice.t) +
                             ", z=" + std::to_string(slice.z) + ") unreadable after " +
                             std::to_string(max_attempts) + " attempts on " +
                             std::to_string(order.size()) +
                             " replicas: " + last_error);
  }
  // SkipAndFill: degrade gracefully and record the loss.
  failed_slices_.push_back(slice_key(slice));
  ++report_.slices_skipped;
  report_.skipped.push_back({slice.t, slice.z, last_error});
  fill(out);
  return false;
}

bool ResilientReader::prefetch_slice(const SliceRef& slice) {
  // Prefetch never runs under a fault injector: a deterministic drill must
  // see the exact per-attempt fault schedule a cache-off run would, and
  // prefetch reads would consume attempt numbers ahead of the demand path.
  if (cache_ == nullptr || injector_ != nullptr) return false;
  if (cache_->contains(cache_dataset_, slice.t, slice.z)) return false;
  const std::vector<int> order =
      replicas_ ? replicas_->replica_order(slice.z, slice.t, reader_.node_id())
                : std::vector<int>{reader_.node_id()};
  for (const int node : order) {
    std::string error;
    const StorageNodeReader* node_reader = reader_for(node, error);
    if (node_reader == nullptr) continue;
    try {
      const std::size_t nbytes = static_cast<std::size_t>(reader_.meta().slice_bytes());
      std::vector<std::uint8_t> bytes(nbytes);
      node_reader->read_slice_bytes(slice, bytes.data());
      if (cfg_.verify_checksums && slice.has_crc &&
          crc32(bytes.data(), bytes.size()) != slice.crc) {
        continue;  // corrupt on this replica; never cached
      }
      io_.bytes_read += static_cast<std::int64_t>(nbytes);
      cache_->insert_slice(cache_dataset_, reader_.meta(), slice.t, slice.z, bytes.data(),
                           /*prefetched=*/true, cache_tenant_);
      return true;
    } catch (const std::exception&) {
      // Swallowed: the demand path retries with full resilience accounting.
    }
  }
  return false;
}

}  // namespace h4d::io
