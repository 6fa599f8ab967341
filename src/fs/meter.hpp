// Per-filter-copy work accounting.
//
// Filters report the elementary operations they perform (GLCM updates,
// feature ops, bytes copied, disk activity). The threaded executor uses the
// meter for reporting; the cluster simulator converts meter deltas into
// virtual execution time through a CostModel. The metrics exporter
// (fs/metrics) serializes every field by name — docs/OBSERVABILITY.md is the
// field reference.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <utility>

#include "haralick/glcm.hpp"

namespace h4d::fs {

struct WorkMeter {
  haralick::WorkCounters work;            ///< texture math operations
  std::int64_t bytes_memcpy = 0;          ///< buffer (re)assembly copies
  std::int64_t stitch_elements = 0;       ///< IIC chunk-reorganization element ops
  std::int64_t elements_quantized = 0;    ///< requantization work
  std::int64_t disk_bytes_read = 0;
  std::int64_t disk_seeks = 0;
  std::int64_t disk_bytes_written = 0;
  std::int64_t read_retries = 0;       ///< resilience: re-attempted slice reads
  std::int64_t slices_skipped = 0;     ///< resilience: slices degraded to fill
  std::int64_t checksum_failures = 0;  ///< resilience: CRC mismatches observed
  std::int64_t replica_failovers = 0;  ///< resilience: reads rerouted to another replica
  std::int64_t nodes_evicted = 0;      ///< resilience: node health evictions
  std::int64_t copy_restarts = 0;      ///< supervisor: filter rebuilds of this copy
  std::int64_t chunks_quarantined = 0;  ///< supervisor: poison buffers dropped here
  std::int64_t watchdog_kills = 0;     ///< supervisor: 1 when declared dead hung
  std::int64_t chunks_resumed = 0;     ///< checkpoint: chunks pruned by resume
  std::int64_t cache_hits = 0;          ///< slice cache: slice probes served
  std::int64_t cache_misses = 0;        ///< slice cache: slice probes missed
  std::int64_t cache_bytes_served = 0;  ///< slice cache: bytes served without disk
  std::int64_t cache_evictions = 0;     ///< slice cache: slices evicted (drained)
  std::int64_t prefetch_issued = 0;     ///< slice cache: slices inserted by prefetch
  std::int64_t prefetch_useful = 0;     ///< slice cache: prefetched slices demand-hit
  std::int64_t hedges_issued = 0;       ///< tail: hedge reads sent to a 2nd replica
  std::int64_t hedges_won = 0;          ///< tail: hedges that finished first
  std::int64_t hedges_abandoned = 0;    ///< tail: race losers cancelled/drained
  std::int64_t reads_abandoned = 0;     ///< tail: reads dropped at deadline expiry
  std::int64_t tail_breaches = 0;       ///< tail: deadline expiries + lost hedges
  std::int64_t slow_evictions = 0;      ///< tail: nodes evicted as slow (gray)
  std::int64_t buffers_in = 0;
  std::int64_t buffers_out = 0;
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;

  /// Every counter as one tuple of references, listed exactly once.
  /// operator+=, delta() and for_each_field() fold over this list, so a new
  /// field only needs an entry here and a name in kFieldNames — the
  /// static_asserts below fire if either is forgotten.
  template <typename Self>
  static constexpr auto tied(Self& m) {
    return std::tie(m.work.glcm_pair_updates, m.work.feature_cells_scanned,
                    m.work.feature_cell_ops, m.work.matrices_built,
                    m.work.sparse_entries_emitted, m.work.sparse_compress_cells,
                    m.bytes_memcpy, m.stitch_elements, m.elements_quantized,
                    m.disk_bytes_read, m.disk_seeks, m.disk_bytes_written,
                    m.read_retries, m.slices_skipped, m.checksum_failures,
                    m.replica_failovers, m.nodes_evicted, m.copy_restarts,
                    m.chunks_quarantined, m.watchdog_kills, m.chunks_resumed,
                    m.cache_hits, m.cache_misses, m.cache_bytes_served,
                    m.cache_evictions, m.prefetch_issued, m.prefetch_useful,
                    m.hedges_issued, m.hedges_won, m.hedges_abandoned,
                    m.reads_abandoned, m.tail_breaches, m.slow_evictions,
                    m.buffers_in, m.buffers_out, m.bytes_in, m.bytes_out);
  }

  /// Export names of the counters, parallel to tied() (same order).
  static constexpr std::array<std::string_view, 37> kFieldNames = {
      "glcm_pair_updates", "feature_cells_scanned", "feature_cell_ops",
      "matrices_built",    "sparse_entries_emitted", "sparse_compress_cells",
      "bytes_memcpy",      "stitch_elements",       "elements_quantized",
      "disk_bytes_read",   "disk_seeks",            "disk_bytes_written",
      "read_retries",      "slices_skipped",        "checksum_failures",
      "replica_failovers", "nodes_evicted",         "copy_restarts",
      "chunks_quarantined", "watchdog_kills",       "chunks_resumed",
      "cache_hits",        "cache_misses",          "cache_bytes_served",
      "cache_evictions",   "prefetch_issued",       "prefetch_useful",
      "hedges_issued",     "hedges_won",            "hedges_abandoned",
      "reads_abandoned",   "tail_breaches",         "slow_evictions",
      "buffers_in",        "buffers_out",           "bytes_in",
      "bytes_out"};

  /// Visit every counter as (name, value). `Self` may be const.
  template <typename Self, typename Fn>
  static void for_each_field(Self& m, Fn&& fn) {
    std::apply(
        [&](auto&... v) {
          std::size_t i = 0;
          (fn(kFieldNames[i++], v), ...);
        },
        tied(m));
  }

  WorkMeter& operator+=(const WorkMeter& o) {
    std::apply(
        [&](auto&... a) {
          std::apply([&](const auto&... b) { ((a += b), ...); }, tied(o));
        },
        tied(*this));
    return *this;
  }

  /// Difference of two meter snapshots (b must be a later snapshot of a).
  friend WorkMeter delta(const WorkMeter& earlier, const WorkMeter& later) {
    WorkMeter d = later;
    std::apply(
        [&](auto&... a) {
          std::apply([&](const auto&... b) { ((a -= b), ...); }, tied(earlier));
        },
        tied(d));
    return d;
  }
};

namespace detail {
inline constexpr std::size_t kMeterFields =
    std::tuple_size_v<decltype(WorkMeter::tied(std::declval<WorkMeter&>()))>;
}
// Every field of WorkMeter (including the nested WorkCounters) must appear in
// tied() and kFieldNames: the folds behind operator+=, delta() and the
// metrics exporter visit exactly those members. If one of these fires, a
// counter was added without extending the list.
static_assert(detail::kMeterFields == WorkMeter::kFieldNames.size(),
              "WorkMeter::kFieldNames out of sync with WorkMeter::tied()");
static_assert(detail::kMeterFields * sizeof(std::int64_t) == sizeof(WorkMeter),
              "WorkMeter field added without extending tied()/kFieldNames");

}  // namespace h4d::fs
