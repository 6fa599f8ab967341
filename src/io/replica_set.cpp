#include "io/replica_set.hpp"

#include <algorithm>
#include <stdexcept>

namespace h4d::io {

std::string_view evict_reason_name(EvictReason r) {
  switch (r) {
    case EvictReason::Failure: return "failure";
    case EvictReason::Slow: return "slow";
  }
  return "?";
}

ReplicaSet::ReplicaSet(std::filesystem::path root, DatasetMeta meta,
                       std::vector<int> dead_nodes, ReplicaHealthConfig health)
    : root_(std::move(root)), meta_(meta), dead_(std::move(dead_nodes)), health_(health) {
  if (health_.evict_after < 1) {
    throw std::invalid_argument("ReplicaSet: evict_after must be >= 1");
  }
  for (const int n : missing_node_dirs(root_, meta_)) dead_.push_back(n);
  std::sort(dead_.begin(), dead_.end());
  dead_.erase(std::unique(dead_.begin(), dead_.end()), dead_.end());
  is_dead_.assign(static_cast<std::size_t>(meta_.storage_nodes), false);
  for (const int n : dead_) {
    if (n < 0 || n >= meta_.storage_nodes) {
      throw std::invalid_argument("ReplicaSet: dead node " + std::to_string(n) +
                                  " out of range [0, " +
                                  std::to_string(meta_.storage_nodes) + ")");
    }
    is_dead_[static_cast<std::size_t>(n)] = true;
  }
  nodes_.resize(static_cast<std::size_t>(meta_.storage_nodes));
}

std::vector<int> ReplicaSet::missing_node_dirs(const std::filesystem::path& root,
                                               const DatasetMeta& meta) {
  std::vector<int> missing;
  for (int n = 0; n < meta.storage_nodes; ++n) {
    std::error_code ec;
    if (!std::filesystem::is_directory(root / node_dir_name(n), ec)) missing.push_back(n);
  }
  return missing;
}

bool ReplicaSet::node_dead(int node) const {
  return node >= 0 && node < meta_.storage_nodes &&
         is_dead_[static_cast<std::size_t>(node)];
}

int ReplicaSet::first_alive_node() const {
  for (int n = 0; n < meta_.storage_nodes; ++n) {
    if (!is_dead_[static_cast<std::size_t>(n)]) return n;
  }
  return -1;
}

int ReplicaSet::read_owner(std::int64_t z, std::int64_t t) const {
  for (int rank = 0; rank < meta_.replica_count(); ++rank) {
    const int node = meta_.replica_node(z, t, rank);
    if (!is_dead_[static_cast<std::size_t>(node)]) return node;
  }
  return first_alive_node();
}

void ReplicaSet::require_every_slice_covered() const {
  // Slice numbers are consecutive, so coverage only depends on the slice
  // number's residue mod storage_nodes; check each occurring residue.
  const std::int64_t residues = std::min<std::int64_t>(meta_.storage_nodes, meta_.num_slices());
  for (std::int64_t c = 0; c < residues; ++c) {
    bool covered = false;
    for (int rank = 0; rank < meta_.replica_count() && !covered; ++rank) {
      covered = !is_dead_[static_cast<std::size_t>((c + rank) % meta_.storage_nodes)];
    }
    if (!covered) {
      throw std::runtime_error(
          "dataset " + root_.string() + " has slices with no surviving replica (replication "
          "factor " + std::to_string(meta_.replica_count()) + ", " +
          std::to_string(dead_.size()) +
          " dead nodes); repair the dataset or run with --on-corrupt skip");
    }
  }
}

bool ReplicaSet::usable_locked(int node, Clock::time_point now) const {
  const NodeHealth& h = nodes_[static_cast<std::size_t>(node)];
  if (!h.evicted) return true;
  const auto probation =
      std::chrono::duration<double, std::milli>(health_.probation_ms);
  return now - h.evicted_at >= probation;
}

std::vector<int> ReplicaSet::replica_order(std::int64_t z, std::int64_t t,
                                           int preferred) const {
  // Candidates in rank order, rotated so `preferred` (when it holds a copy)
  // comes first — the RFR copy reads its local disk before going remote.
  std::vector<int> candidates;
  candidates.reserve(static_cast<std::size_t>(meta_.replica_count()));
  if (meta_.replica_rank(z, t, preferred) >= 0 && !node_dead(preferred)) {
    candidates.push_back(preferred);
  }
  for (int rank = 0; rank < meta_.replica_count(); ++rank) {
    const int node = meta_.replica_node(z, t, rank);
    if (node == preferred || node_dead(node)) continue;
    candidates.push_back(node);
  }

  const Clock::time_point now = Clock::now();
  std::lock_guard lk(mu_);
  std::vector<int> order;
  order.reserve(candidates.size());
  for (const int node : candidates) {
    if (usable_locked(node, now)) order.push_back(node);
  }
  // All surviving replicas in probation: offer them anyway (forced probe)
  // rather than declaring the slice unreadable without a single attempt.
  return order.empty() ? candidates : order;
}

void ReplicaSet::evict_locked(NodeHealth& h, int node, EvictReason reason) {
  h.evicted = true;
  h.evicted_at = Clock::now();
  ++evictions_;
  if (reason == EvictReason::Slow) ++evictions_slow_;
  events_.push_back({node, reason});
}

bool ReplicaSet::note_failure(int node) {
  if (node < 0 || node >= meta_.storage_nodes) return false;
  std::lock_guard lk(mu_);
  NodeHealth& h = nodes_[static_cast<std::size_t>(node)];
  if (h.evicted) {
    h.evicted_at = Clock::now();  // failed probe: restart probation
    return false;
  }
  if (++h.consecutive_failures >= health_.evict_after) {
    evict_locked(h, node, EvictReason::Failure);
    return true;
  }
  return false;
}

bool ReplicaSet::note_slow(int node) {
  if (node < 0 || node >= meta_.storage_nodes) return false;
  std::lock_guard lk(mu_);
  NodeHealth& h = nodes_[static_cast<std::size_t>(node)];
  if (h.evicted) {
    h.evicted_at = Clock::now();  // slow probe: restart probation
    return false;
  }
  evict_locked(h, node, EvictReason::Slow);
  return true;
}

void ReplicaSet::note_success(int node) {
  if (node < 0 || node >= meta_.storage_nodes) return;
  std::lock_guard lk(mu_);
  NodeHealth& h = nodes_[static_cast<std::size_t>(node)];
  h.consecutive_failures = 0;
  h.evicted = false;
}

bool ReplicaSet::node_evicted(int node) const {
  if (node < 0 || node >= meta_.storage_nodes) return false;
  std::lock_guard lk(mu_);
  return nodes_[static_cast<std::size_t>(node)].evicted;
}

std::int64_t ReplicaSet::evictions() const {
  std::lock_guard lk(mu_);
  return evictions_;
}

std::int64_t ReplicaSet::evictions_slow() const {
  std::lock_guard lk(mu_);
  return evictions_slow_;
}

std::vector<EvictionEvent> ReplicaSet::eviction_events() const {
  std::lock_guard lk(mu_);
  return events_;
}

}  // namespace h4d::io
