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

/// Widen `count` raw elements of type `d` to uint16 (a plain copy for U16).
/// Every slice a reader delivers goes through this one step, whether it came
/// from disk, a hedged fetch or the cache.
void widen_to_u16(Dtype d, const std::uint8_t* raw, std::int64_t count, std::uint16_t* out);

/// Dataset-level metadata persisted in <root>/dataset.meta.
///
/// Format versioning: v1 files (no `version` key) predate replication and
/// load with replicas == 1; v2 adds the `version` and `replicas` keys.
/// Loaders reject versions newer than kMetaVersion instead of silently
/// misreading a future layout.
struct DatasetMeta {
  static constexpr int kMetaVersion = 2;
  /// Upper bound on storage_nodes and on replicas.
  static constexpr int kMaxNodes = 4096;

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

/// One index line, "<t> <z> <filename> [<crc32-hex>]": t and z whole decimal
/// tokens inside `meta`'s (t, z) slices, a node-local filename, and an
/// optional CRC-32 of at most 8 hex digits (indexes written before the
/// checksum column lack it: has_crc == false). Throws std::runtime_error
/// saying what is wrong; the caller names the file and line. The reader,
/// create, scrub, repair and add_checksums all read and write index lines
/// through this parser and format_index_line().
SliceRef parse_index_line(const std::string& line, const DatasetMeta& meta);

/// Every line of the index file at `index_path` through parse_index_line(),
/// skipping empty lines. An index lists each (t, z) slice once: a later line
/// for the same slice is rejected, naming the first one's line number (if only
/// the later one has a CRC, its entry replaces the first's). The entries are
/// returned in file order; the first line rejected is
/// described in `error`, which must come in empty, as "<why> in
/// <file>:<line>: <text>", and reading goes on.
/// Throws std::runtime_error when the file cannot be opened.
std::vector<SliceRef> read_index(const std::filesystem::path& index_path,
                                 const DatasetMeta& meta, std::string& error);

/// The line parse_index_line() reads back as `s`, without a newline; the
/// checksum column only when s.has_crc.
std::string format_index_line(const SliceRef& s);

/// A CRC-32 as the index's checksum column spells it: lowercase hex without
/// leading zeros.
std::string format_crc32(std::uint32_t crc);

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

/// dataset.meta's dims disagree with the slice files on disk: none of the
/// indexed slice files that exist has the meta's slice size. Thrown by
/// DiskDataset::check_slice_files before any slice buffer is allocated, so
/// dims that would ask for a 128 GB slice fail with this error instead of
/// an allocation failure.
class DatasetShapeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
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

  /// A local slice's index entry (it carries the checksum), or the
  /// conventional filename without one when the node's index does not list
  /// the slice (a failover read of a copy the index lost).
  SliceRef slice_ref(std::int64_t t, std::int64_t z) const;

  /// Read the whole slice file's raw bytes (meta.slice_bytes() of them) into
  /// `out`. The slice must belong to this node. The whole slice is the only
  /// read unit: the checksum, cache, hedge and prefetch unit alike.
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

  /// Open an existing dataset (loads dataset.meta).
  static DiskDataset open(const std::filesystem::path& root);

  /// Throws DatasetShapeError unless some slice file on disk has the meta's
  /// slice size: the first slice's file where create() puts it (one stat),
  /// else every indexed file until one matches. A single short or missing
  /// file is left to the read path (retries, replicas, --on-corrupt), a
  /// node without an index is skipped, and no files at all pass. `h4d info`
  /// and the analyze entry points call it before anything allocates a
  /// slice.
  void check_slice_files() const;

  const std::filesystem::path& root() const { return root_; }
  const DatasetMeta& meta() const { return meta_; }
  int num_nodes() const { return meta_.storage_nodes; }
  std::filesystem::path node_dir(int node) const;

  /// Per-node reader (the RFR filter's view of the world).
  StorageNodeReader node_reader(int node) const;

  /// Gather the whole volume back into memory (tests / small datasets).
  Volume4<std::uint16_t> read_all() const;

  /// Gather an arbitrary 4D subregion, touching only the nodes that own the
  /// slices it crosses. Each slice is read whole and cropped to the region's
  /// x/y window. Per-slice checksums (when present in the index) are
  /// verified; a mismatch throws ChecksumError (fail-fast).
  Volume4<std::uint16_t> read_region(const Region4& region) const;

  /// Resilient variant: retries, checksum verification and graceful
  /// degradation follow `resilience`. `injector` (optional) injects
  /// deterministic faults; `report` (optional) receives the run's fault
  /// accounting. `dead_nodes` (and missing node directories) are read from
  /// nothing, as in a pipeline run; unless `resilience` skips and fills, a
  /// slice left without a surviving replica fails the call before any read.
  Volume4<std::uint16_t> read_region(const Region4& region,
                                     const ResilienceConfig& resilience,
                                     FaultInjector* injector = nullptr,
                                     FaultReport* report = nullptr,
                                     std::vector<int> dead_nodes = {}) const;

 private:
  DiskDataset(std::filesystem::path root, DatasetMeta meta)
      : root_(std::move(root)), meta_(meta) {}

  std::filesystem::path root_;
  DatasetMeta meta_;
};

}  // namespace h4d::io
