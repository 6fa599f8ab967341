#include "io/tile_cache.hpp"

namespace h4d::io {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::size_t TileCache::SliceKeyHash::operator()(const SliceKey& k) const {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(&k.dataset, sizeof(k.dataset), h);
  h = fnv1a(&k.t, sizeof(k.t), h);
  h = fnv1a(&k.z, sizeof(k.z), h);
  return static_cast<std::size_t>(h);
}

TileCache::TileCache(TileCacheConfig config) : cfg_(config) {
  if (cfg_.budget_bytes < 0) cfg_.budget_bytes = 0;
  // Tenant id 0 always exists: solo runs intern the empty name as "local".
  tenants_.emplace_back().name = "local";
}

std::uint64_t TileCache::dataset_key(const std::string& root, const DatasetMeta& meta) {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(root.data(), root.size(), h);
  for (int d = 0; d < kDims; ++d) {
    const std::int64_t v = meta.dims[d];
    h = fnv1a(&v, sizeof(v), h);
  }
  const int dt = static_cast<int>(meta.dtype);
  return fnv1a(&dt, sizeof(dt), h);
}

int TileCache::tenant_id(const std::string& name) {
  const std::string& key = name.empty() ? std::string("local") : name;
  std::lock_guard lk(tenants_mu_);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == key) return static_cast<int>(i);
  }
  tenants_.emplace_back().name = key;
  return static_cast<int>(tenants_.size() - 1);
}

TileCache::TenantCounters& TileCache::tenant(int id) {
  std::lock_guard lk(tenants_mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= tenants_.size()) return tenants_[0];
  return tenants_[static_cast<std::size_t>(id)];
}

void TileCache::make_room(std::int64_t need) {
  while (resident_ + need > cfg_.budget_bytes && !order_.empty()) {
    const auto it = map_.find(order_.back());
    const std::int64_t size = static_cast<std::int64_t>(it->second.bytes.size());
    resident_ -= size;
    tenant(it->second.tenant).resident.fetch_add(-size, std::memory_order_relaxed);
    map_.erase(it);
    order_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    pending_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TileCache::read_slice(std::uint64_t dataset, const DatasetMeta& meta, std::int64_t t,
                           std::int64_t z, std::uint16_t* out, int tenant_idx) {
  TenantCounters& tc = tenant(tenant_idx);
  std::int64_t bytes = 0;
  {
    std::lock_guard lk(mu_);
    const auto it = map_.find(SliceKey{dataset, t, z});
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      tc.misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Entry& e = it->second;
    order_.splice(order_.begin(), order_, e.pos);
    if (e.prefetched) {
      e.prefetched = false;
      prefetch_useful_.fetch_add(1, std::memory_order_relaxed);
      pending_prefetch_useful_.fetch_add(1, std::memory_order_relaxed);
    }
    bytes = static_cast<std::int64_t>(e.bytes.size());
    widen_to_u16(meta.dtype, e.bytes.data(), meta.dims[0] * meta.dims[1], out);
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  tc.hits.fetch_add(1, std::memory_order_relaxed);
  bytes_served_.fetch_add(bytes, std::memory_order_relaxed);
  tc.bytes_served.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

void TileCache::insert_slice(std::uint64_t dataset, const DatasetMeta& meta,
                             std::int64_t t, std::int64_t z, const std::uint8_t* bytes,
                             bool prefetched, int tenant_idx) {
  const std::int64_t size = meta.slice_bytes();
  if (size > cfg_.budget_bytes) return;  // the slice cannot fit at all
  const SliceKey key{dataset, t, z};
  std::lock_guard lk(mu_);
  if (map_.count(key) != 0) return;  // keep the resident copy
  make_room(size);
  Entry e;
  e.bytes.assign(bytes, bytes + size);
  e.prefetched = prefetched;
  e.tenant = tenant_idx;
  order_.push_front(key);
  e.pos = order_.begin();
  resident_ += size;
  tenant(tenant_idx).resident.fetch_add(size, std::memory_order_relaxed);
  map_.emplace(key, std::move(e));
  if (prefetched) {
    prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
    pending_prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TileCache::contains(std::uint64_t dataset, std::int64_t t, std::int64_t z) const {
  std::lock_guard lk(mu_);
  return map_.count(SliceKey{dataset, t, z}) != 0;
}

TileCacheStats TileCache::stats() const {
  TileCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.lookups = st.hits + st.misses;
  st.bytes_served = bytes_served_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  st.prefetch_useful = prefetch_useful_.load(std::memory_order_relaxed);
  std::lock_guard lk(mu_);
  st.resident_bytes = resident_;
  st.resident_slices = static_cast<std::int64_t>(map_.size());
  return st;
}

std::int64_t TileCache::resident_bytes() const {
  std::lock_guard lk(mu_);
  return resident_;
}

std::vector<TenantCacheStats> TileCache::tenant_stats() const {
  std::lock_guard lk(tenants_mu_);
  std::vector<TenantCacheStats> out;
  out.reserve(tenants_.size());
  for (const TenantCounters& t : tenants_) {
    TenantCacheStats row;
    row.tenant = t.name;
    row.hits = t.hits.load(std::memory_order_relaxed);
    row.misses = t.misses.load(std::memory_order_relaxed);
    row.bytes_served = t.bytes_served.load(std::memory_order_relaxed);
    row.resident_bytes = t.resident.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  return out;
}

void TileCache::drain_unmetered(std::int64_t& evictions, std::int64_t& prefetch_issued,
                                std::int64_t& prefetch_useful) {
  evictions = pending_evictions_.exchange(0, std::memory_order_relaxed);
  prefetch_issued = pending_prefetch_issued_.exchange(0, std::memory_order_relaxed);
  prefetch_useful = pending_prefetch_useful_.exchange(0, std::memory_order_relaxed);
}

}  // namespace h4d::io
