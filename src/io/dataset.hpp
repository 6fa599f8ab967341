// Disk-resident 4D dataset layout (paper Sec. 4.2).
//
// A 4D image dataset is a series of 3D volumes over time; each 3D volume is a
// stack of 2D slices. On disk every 2D slice is one raw file. Slices are
// distributed round-robin across storage nodes (directories node_0, node_1,
// ...), and each node holds an index file associating every local image file
// with its (t, z) tuple. A dataset.meta file at the root records dimensions,
// element type and global intensity range (so distributed readers agree on
// requantization).
//
// With a replication factor r > 1 every slice is stored on r distinct nodes
// (rotated round-robin: replica k of slice s lives on node (s + k) % N), each
// of which lists the copy in its own index. Readers prefer the rank-0
// (primary) copy and fail over along the rank order when a node is dead or a
// copy is damaged (io/replica_set.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "nd/region.hpp"
#include "nd/volume4.hpp"

namespace h4d::io {

class FaultInjector;    // io/fault.hpp
struct ResilienceConfig;  // io/resilient_reader.hpp
struct FaultReport;
class FaultReportSink;

/// Intensity element type of the stored dataset.
enum class Dtype { U8, U16 };

std::size_t dtype_size(Dtype d);
std::string dtype_name(Dtype d);
Dtype dtype_from_name(const std::string& name);

/// Dataset-level metadata persisted in <root>/dataset.meta.
///
/// Format versioning: v1 files (no `version` key) predate replication and
/// load with replicas == 1; v2 adds the `version` and `replicas` keys.
/// Loaders reject versions newer than kMetaVersion instead of silently
/// misreading a future layout.
struct DatasetMeta {
  static constexpr int kMetaVersion = 2;

  Vec4 dims;  ///< (x, y, z, t) extents
  Dtype dtype = Dtype::U16;
  double value_min = 0.0;  ///< global intensity range, for requantization
  double value_max = 0.0;
  int storage_nodes = 1;
  /// Copies of every slice, each on a distinct node (clamped to
  /// storage_nodes). 1 = the original unreplicated layout.
  int replicas = 1;

  std::int64_t num_slices() const { return dims[2] * dims[3]; }
  std::int64_t slice_bytes() const {
    return dims[0] * dims[1] * static_cast<std::int64_t>(dtype_size(dtype));
  }
  /// Global slice number of slice z at timestep t (round-robin key).
  std::int64_t slice_number(std::int64_t z, std::int64_t t) const { return t * dims[2] + z; }
  /// Effective replication factor (r cannot exceed the node count).
  int replica_count() const { return std::min(replicas, storage_nodes); }
  /// Storage node holding replica `rank` of a slice: rotated round-robin, so
  /// ranks 0..r-1 land on r distinct nodes with balanced per-node counts.
  int replica_node(std::int64_t z, std::int64_t t, int rank) const {
    return static_cast<int>((slice_number(z, t) + rank) % storage_nodes);
  }
  /// Rank of `node` among a slice's replicas, or -1 when it holds no copy.
  int replica_rank(std::int64_t z, std::int64_t t, int node) const {
    const int rank = static_cast<int>(
        (node - slice_number(z, t) % storage_nodes + storage_nodes) % storage_nodes);
    return rank < replica_count() ? rank : -1;
  }
  /// Storage node a slice's primary (rank-0) copy is assigned to.
  int node_of_slice(std::int64_t z, std::int64_t t) const {
    return replica_node(z, t, 0);
  }

  void save(const std::filesystem::path& root) const;
  static DatasetMeta load(const std::filesystem::path& root);
};

/// Conventional file name of a slice inside its node directory.
std::string slice_filename(std::int64_t t, std::int64_t z);

/// Conventional directory name of a storage node under the dataset root.
std::string node_dir_name(int node);

/// Whether an index filename names a file inside its node directory: one
/// relative path component, not "." or "..". Anything else, joined onto the
/// node directory, could resolve outside the dataset.
bool is_node_local_filename(const std::string& name);

/// Name of the per-node index file.
inline constexpr const char* kIndexFileName = "index.txt";

/// One slice owned by a storage node (an entry of the node's index file).
struct SliceRef {
  std::int64_t t = 0;
  std::int64_t z = 0;
  std::string filename;  ///< relative to the node directory
  /// CRC-32 of the slice file's raw bytes, recorded at create time. Index
  /// files written before the checksum column lack it (has_crc == false);
  /// such slices are readable but cannot be verified.
  std::uint32_t crc = 0;
  bool has_crc = false;
};

/// A slice read that delivered the wrong number of bytes (truncated file,
/// I/O error mid-read, or an injected fault). Carries the slice coordinates
/// and the expected vs. actual byte counts for diagnosis.
class SliceReadError : public std::runtime_error {
 public:
  SliceReadError(const std::string& file, std::int64_t t, std::int64_t z,
                 std::int64_t expected_bytes, std::int64_t actual_bytes,
                 const std::string& what_kind);

  std::int64_t t = 0;
  std::int64_t z = 0;
  std::int64_t expected_bytes = 0;
  std::int64_t actual_bytes = 0;
};

/// Read-side view of a single storage node: exactly what one RAWFileReader
/// filter may touch. Local slices only.
class StorageNodeReader {
 public:
  StorageNodeReader(std::filesystem::path node_dir, DatasetMeta meta, int node_id);

  int node_id() const { return node_id_; }
  const std::filesystem::path& node_dir() const { return dir_; }
  const DatasetMeta& meta() const { return meta_; }
  const std::vector<SliceRef>& slices() const { return slices_; }

  /// Locate a local slice's index entry (nullptr when the node's index does
  /// not list it).
  const SliceRef* find_slice(std::int64_t t, std::int64_t z) const;

  /// Read a 2D subregion [x0, x0+w) x [y0, y0+h) of one local slice into
  /// `out` (row-major, w*h elements). The slice must belong to this node.
  void read_slice_region(const SliceRef& slice, std::int64_t x0, std::int64_t y0,
                         std::int64_t w, std::int64_t h, std::uint16_t* out) const;

  /// Read the whole slice file's raw bytes (meta.slice_bytes() of them) into
  /// `out` — the unit checksum verification operates on.
  void read_slice_bytes(const SliceRef& slice, std::uint8_t* out) const;

  /// Attach a deterministic fault source (non-owning; may be nullptr). Every
  /// subsequent read consults it: injected open failures and short reads
  /// throw SliceReadError, injected corruption flips delivered bytes, stalls
  /// delay. Used by ResilientReader; plain readers stay fault-free.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Number of fseek-equivalent operations performed so far (cost model).
  std::int64_t seeks_performed() const { return seeks_; }
  std::int64_t bytes_read() const { return bytes_read_; }

 private:
  std::filesystem::path dir_;
  DatasetMeta meta_;
  int node_id_;
  std::vector<SliceRef> slices_;
  FaultInjector* injector_ = nullptr;
  mutable std::int64_t seeks_ = 0;
  mutable std::int64_t bytes_read_ = 0;
};

/// A complete disk-resident dataset.
class DiskDataset {
 public:
  /// Distribute `vol` across `num_nodes` storage node directories under
  /// `root` (created if needed), with index and meta files. With
  /// `replicas` > 1 every slice is written to min(replicas, num_nodes)
  /// distinct nodes (rotated round-robin), each listing it in its index.
  static DiskDataset create(const std::filesystem::path& root, const Volume4<std::uint16_t>& vol,
                            int num_nodes, int replicas = 1);

  /// Open an existing dataset.
  static DiskDataset open(const std::filesystem::path& root);

  const std::filesystem::path& root() const { return root_; }
  const DatasetMeta& meta() const { return meta_; }
  int num_nodes() const { return meta_.storage_nodes; }
  std::filesystem::path node_dir(int node) const;

  /// Per-node reader (the RFR filter's view of the world).
  StorageNodeReader node_reader(int node) const;

  /// Gather the whole volume back into memory (tests / small datasets).
  Volume4<std::uint16_t> read_all() const;

  /// Gather an arbitrary 4D subregion, touching only the nodes that own the
  /// slices it crosses. Per-slice checksums (when present in the index) are
  /// verified; a mismatch throws ChecksumError (fail-fast).
  Volume4<std::uint16_t> read_region(const Region4& region) const;

  /// Resilient variant: retries, checksum verification and graceful
  /// degradation follow `resilience`. `injector` (optional) injects
  /// deterministic faults; `report` (optional) receives the run's fault
  /// accounting.
  Volume4<std::uint16_t> read_region(const Region4& region,
                                     const ResilienceConfig& resilience,
                                     FaultInjector* injector = nullptr,
                                     FaultReport* report = nullptr) const;

 private:
  DiskDataset(std::filesystem::path root, DatasetMeta meta)
      : root_(std::move(root)), meta_(meta) {}

  std::filesystem::path root_;
  DatasetMeta meta_;
};

}  // namespace h4d::io
