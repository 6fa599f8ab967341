#include "filters/input_filters.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "nd/quantize.hpp"

namespace h4d::filters {

namespace {

/// Per-copy slice prefetcher: walks the planner's raster-order hints
/// (filtered to this node's owned slices) on its own thread through its own
/// ResilientReader, staying at most `depth` slices ahead of the demand
/// loop. RAII: destruction stops and joins the thread, so an exception in
/// the demand loop cannot leak it.
class SlicePrefetcher {
 public:
  SlicePrefetcher(const PipelineParams& p, int node, int tenant,
                  std::vector<io::SliceRef> refs)
      : depth_(p.cache.prefetch_depth),
        refs_(std::move(refs)),
        reader_(io::StorageNodeReader(p.dataset_root / io::node_dir_name(node), p.meta,
                                      node),
                p.resilience, /*injector=*/nullptr, /*sink=*/nullptr,
                p.replica_set.get()) {
    reader_.attach_cache(p.tile_cache.get(), p.cache_dataset, tenant);
    thread_ = std::thread([this] { run(); });
  }

  ~SlicePrefetcher() { stop(); }

  /// The demand loop finished one of its slices: the prefetcher may advance.
  void slice_done() {
    {
      std::lock_guard lk(mu_);
      ++done_;
    }
    cv_.notify_all();
  }

  /// Stop, join, and account the prefetch reader's disk traffic.
  void finish(fs::WorkMeter& meter) {
    stop();
    meter.disk_bytes_read += reader_.bytes_read();
    meter.disk_seeks += reader_.seeks_performed();
  }

 private:
  void stop() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void run() {
    std::int64_t issued = 0;
    for (const io::SliceRef& ref : refs_) {
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return stop_ || issued - done_ < depth_; });
        if (stop_) return;
      }
      reader_.prefetch_slice(ref);
      ++issued;
    }
  }

  const std::int64_t depth_;
  std::vector<io::SliceRef> refs_;
  io::ResilientReader reader_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t done_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// Add one reader's counter delta to the copy's meter.
void meter_reads(fs::WorkMeter& m, const io::ReaderCounters& d) {
  m.disk_seeks += d.seeks;
  m.disk_bytes_read += d.bytes_read;
  m.cache_hits += d.cache_hits;
  m.cache_misses += d.cache_misses;
  m.cache_bytes_served += d.cache_bytes_served;
  m.read_retries += d.read_retries;
  m.slices_skipped += d.slices_skipped;
  m.checksum_failures += d.checksum_failures;
  m.replica_failovers += d.replica_failovers;
  m.nodes_evicted += d.nodes_evicted;
  m.hedges_issued += d.hedges_issued;
  m.hedges_won += d.hedges_won;
  m.hedges_abandoned += d.hedges_abandoned;
  m.reads_abandoned += d.reads_abandoned;
  m.tail_breaches += d.tail_breaches;
  m.slow_evictions += d.slow_evictions;
}

}  // namespace

void RawFileReader::run_source(fs::FilterContext& ctx) {
  const int node = ctx.copy_index();
  // Resume accounting: chunks pruned from the work list by the checkpoint
  // manifest, credited once (copy 0) so the run's meters show what was
  // skipped rather than silently planning less work.
  if (node == 0) ctx.meter().chunks_resumed += p_->chunks_resumed;
  io::ReplicaSet& replicas = *p_->replica_set;
  // A statically dead node (operator-declared or directory missing) reads
  // nothing; read_owner() has already reassigned its slices to the surviving
  // replicas' copies.
  if (replicas.node_dead(node)) return;
  // Slice access goes through the resilient reader: bounded retry, checksum
  // verification, failover to the other replica nodes, and graceful
  // degradation per the pipeline's policy. The shared injector (when faults
  // are configured) makes storage-fault drills deterministic across copies.
  io::ResilientReader reader(
      io::StorageNodeReader(p_->dataset_root / io::node_dir_name(node), p_->meta, node),
      p_->resilience, p_->fault_injector.get(), p_->fault_sink.get(),
      p_->replica_set.get());
  int cache_tenant = 0;
  if (p_->tile_cache) {
    cache_tenant = p_->tile_cache->tenant_id(p_->cache_tenant);
    reader.attach_cache(p_->tile_cache.get(), p_->cache_dataset, cache_tenant);
  }
  // Tail layer on the demand reader only: the prefetcher's reads are already
  // off the critical path, so hedging them would just burn replica bandwidth.
  if (p_->latency && p_->io_pool && p_->tail.enabled()) {
    reader.attach_tail(p_->tail, p_->latency.get(), p_->io_pool.get());
  }
  const Quantizer quant = p_->quantizer();

  // Each slice goes to IIC whole, as one piece (paper Sec. 5.1).
  std::vector<std::uint16_t> raw(static_cast<std::size_t>(p_->meta.dims[0] * p_->meta.dims[1]));
  std::int64_t seq = 0;
  io::ReaderCounters before = reader.counters();

  // Raster-order prefetch: pull this node's upcoming slices into the shared
  // cache while the demand loop (and everything downstream) computes. Off
  // under fault injection — the drill must see the cache-off read schedule.
  std::unique_ptr<SlicePrefetcher> prefetcher;
  if (p_->tile_cache && p_->cache.prefetch_depth > 0 && !p_->fault_injector &&
      !p_->prefetch_slices.empty()) {
    std::vector<io::SliceRef> owned;
    for (const SliceCoord& s : p_->prefetch_slices) {
      if (replicas.read_owner(s.z, s.t) == node) owned.push_back(reader.slice_ref(s.t, s.z));
    }
    if (!owned.empty()) {
      prefetcher =
          std::make_unique<SlicePrefetcher>(*p_, node, cache_tenant, std::move(owned));
    }
  }

  // Each slice is read by exactly one copy — its read owner (first surviving
  // replica in rank order) — so replication never duplicates pieces. With
  // r == 1 and all nodes alive this degenerates to "the slices in this
  // node's index", in index (t-major) order. A slice every replica of which
  // is dead falls to the first alive node, whose reader degrades it to fill
  // (make() rejects that situation under fail/retry policies).
  std::int64_t static_failovers = 0;
  for (std::int64_t t = 0; t < p_->meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < p_->meta.dims[2]; ++z) {
      if (replicas.read_owner(z, t) != node) continue;
      // Which IIC copies need this slice? The owners of every overlapping
      // chunk. A slice no remaining chunk needs (every chunk over it was
      // pruned by resume) is not read at all.
      const Region4 piece{{0, 0, z, t}, {p_->meta.dims[0], p_->meta.dims[1], 1, 1}};
      std::set<int> targets;
      for (const Chunk& c : p_->chunks) {
        if (c.region.intersects(piece)) targets.insert(p_->iic_copy_of_chunk(c.id));
      }
      if (targets.empty()) continue;
      // Owning a slice whose primary node is dead is a (planned) failover:
      // the read was rerouted to this replica before it was ever attempted.
      if (p_->meta.node_of_slice(z, t) != node) {
        ++static_failovers;
        ++ctx.meter().replica_failovers;
      }
      reader.read_slice(reader.slice_ref(t, z), raw.data());
      const io::ReaderCounters now = reader.counters();
      meter_reads(ctx.meter(), now - before);
      before = now;

      // Quantize once and send one piece to each target.
      std::vector<std::byte> levels(raw.size());
      for (std::size_t i = 0; i < raw.size(); ++i) {
        levels[i] = static_cast<std::byte>(quant(static_cast<double>(raw[i])));
      }
      ctx.meter().elements_quantized += static_cast<std::int64_t>(raw.size());
      for (const int target : targets) {
        fs::BufferHeader h;
        h.kind = fs::BufferKind::RawChunkPiece;
        h.region = piece;
        h.seq = seq++;
        h.aux = target;
        ctx.emit(kPortPieces, fs::make_buffer(h, levels));
      }
      if (prefetcher) prefetcher->slice_done();
    }
  }
  // Stop the prefetcher and account its disk traffic, then drain the cache's
  // run-global counters (evictions and prefetch bookkeeping live on the cache,
  // not on any one reader) so totals are conserved across copies.
  if (prefetcher) prefetcher->finish(ctx.meter());
  if (p_->tile_cache) {
    std::int64_t ev = 0, pi = 0, pu = 0;
    p_->tile_cache->drain_unmetered(ev, pi, pu);
    ctx.meter().cache_evictions += ev;
    ctx.meter().prefetch_issued += pi;
    ctx.meter().prefetch_useful += pu;
  }
  // Planned (static) failovers join the dynamic ones ResilientReader merged
  // on destruction, so the run's fault report shows every rerouted read.
  if (static_failovers > 0 && p_->fault_sink) {
    io::FaultReport rerouted;
    rerouted.replica_failovers = static_failovers;
    p_->fault_sink->merge(rerouted);
  }
}

void InputImageConstructor::process(int port, const fs::BufferPtr& buffer,
                                    fs::FilterContext& ctx) {
  if (port != kPortPieces || buffer->header.kind != fs::BufferKind::RawChunkPiece) {
    throw std::runtime_error("IIC: unexpected input buffer");
  }
  const Region4& piece = buffer->header.region;
  const Vol4View<const Level> piece_view(
      reinterpret_cast<const Level*>(buffer->payload.data()), piece.size);

  for (const Chunk& c : p_->chunks) {
    if (p_->iic_copy_of_chunk(c.id) != ctx.copy_index()) continue;
    const Region4 common = c.region.intersect(piece);
    if (common.empty()) continue;

    auto [it, inserted] = pending_.try_emplace(c.id, c.region.size);
    Pending& slot = it->second;
    copy_region<Level>(piece_view, piece, slot.data.view(), c.region);
    slot.filled += common.volume();
    ctx.meter().stitch_elements += common.volume();

    if (slot.filled == c.region.volume()) {
      fs::BufferHeader h;
      h.kind = fs::BufferKind::TextureChunk;
      h.region = c.region;
      h.region2 = c.owned_origins;
      h.chunk_id = c.id;
      h.seq = emitted_++;
      std::vector<std::byte> payload(static_cast<std::size_t>(c.region.volume()));
      std::memcpy(payload.data(), slot.data.data(), payload.size());
      ctx.meter().stitch_elements += static_cast<std::int64_t>(payload.size());
      pending_.erase(it);
      ctx.emit(kPortChunks, fs::make_buffer(h, std::move(payload)));
    }
  }
}

void InputImageConstructor::flush(fs::FilterContext&) {
  if (!pending_.empty()) {
    throw std::runtime_error("IIC copy finished with " + std::to_string(pending_.size()) +
                             " incomplete chunks — missing input pieces");
  }
}

}  // namespace h4d::filters
