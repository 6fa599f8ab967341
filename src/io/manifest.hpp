// Checkpoint manifest: crash-safe record of completed output chunks.
//
// The output filters append one line per texture chunk whose every feature
// sample has reached stable storage. The file is append-only and fsync'd per
// record, so after a crash it holds a prefix of the completed chunks (plus at
// most one torn line, which the loader skips). A resumed run replays the
// manifest and prunes those chunks from the planner's work list — the paper's
// out-of-core runs take hours, and losing a node at 95% should not mean
// recomputing the other 95%. Each line carries a CRC-32 tag like the slice
// index (DESIGN §9), so a corrupted manifest degrades to re-computing chunks,
// never to trusting damaged state.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "nd/chunking.hpp"

namespace h4d::io {

/// Append-only manifest of completed chunk ids, one CRC-tagged line per
/// chunk: "<id> <crc32-hex>\n" with the checksum over the id's decimal text.
/// record() is thread-safe and durable (write + fsync) before it returns.
///
/// The first line may be a CRC-tagged ownership header
/// ("owner <token> <crc32-hex>\n") naming the job/configuration that wrote
/// the file. Concurrent jobs namespace their manifests by job id (src/svc),
/// and resume refuses a manifest whose owner token names a different
/// job/configuration — progress recorded for one chunk grid must never prune
/// another job's work list. load() skips the header (and legacy manifests
/// have none), so old files stay readable.
class ChunkManifest {
 public:
  /// Opens (creating if needed) for append. With `fresh`, existing contents
  /// are discarded first — a non-resume run must not inherit stale progress.
  /// A non-empty `owner` token is written as the ownership header whenever
  /// the file starts out empty (fresh or first use).
  explicit ChunkManifest(std::filesystem::path path, bool fresh = false,
                         const std::string& owner = {});
  ~ChunkManifest();

  ChunkManifest(const ChunkManifest&) = delete;
  ChunkManifest& operator=(const ChunkManifest&) = delete;

  /// Durably append one completed chunk id.
  void record(std::int64_t chunk_id);

  const std::filesystem::path& path() const { return path_; }

  /// Chunk ids recorded in `path`, in file order. Lines that fail to parse
  /// or whose CRC tag mismatches (torn tail after a crash, bit rot) are
  /// skipped — a damaged record means the chunk is recomputed, nothing more.
  /// A missing file is an empty manifest.
  static std::vector<std::int64_t> load(const std::filesystem::path& path);

  /// Owner token recorded in `path`'s ownership header, or "" when the file
  /// is missing, legacy (no header), or the header's CRC tag mismatches (a
  /// damaged header degrades to "unowned" — the ids are then only trusted if
  /// the caller accepts legacy manifests).
  static std::string load_owner(const std::filesystem::path& path);

 private:
  std::filesystem::path path_;
  std::mutex mu_;
  int fd_ = -1;
};

/// Maps completed feature values back to the texture chunks that own their
/// ROI origins, and reports a chunk to the manifest exactly once, when its
/// last value has been noted.
///
/// Completion is derived from the chunk grid, not from chunk ids on the
/// stream: the chunk owning origin o has grid coordinate o / step per
/// dimension, so any region or raster run of origins can be credited to the
/// chunks it overlaps. Expected values per chunk = owned_origins.volume() x
/// the number of features the run emits.
class ChunkCompletionTracker {
 public:
  /// `chunks` is the full overlapping partition (before any resume pruning);
  /// ids already in `completed` start out done and are not re-recorded.
  ChunkCompletionTracker(const std::vector<Chunk>& chunks, const Vec4& dims,
                         const Vec4& chunk_dims, const Vec4& roi_dims,
                         std::int64_t samples_per_origin,
                         std::shared_ptr<ChunkManifest> manifest,
                         const std::unordered_set<std::int64_t>& completed = {});

  /// Note one (origin, feature) sample. Thread-safe; idempotent past
  /// completion (a resumed run may replay samples already on disk).
  void note_origin(const Vec4& origin);

  /// Note one sample at every origin of `region` (a whole feature map, say):
  /// each chunk is credited its owned origins' intersection with `region`,
  /// all under one lock. Same completion rule as note_origin.
  void note_region(const Region4& region);

  /// Note one sample at every origin of the run raster(box)[first, first +
  /// n) (a feature block), under one lock. Same completion rule.
  void note_run(const Region4& box, std::int64_t first, std::int64_t n);

  std::int64_t chunks_completed() const;

 private:
  std::int64_t chunk_of(const Vec4& origin) const;
  /// Subtract `n` samples from chunk `id`; caller holds mu_.
  void credit(std::int64_t id, std::int64_t n);
  /// credit() every chunk overlapping `region`; caller holds mu_.
  void credit_region(const Region4& region);

  Region4 origins_;  ///< every ROI origin of the grid
  Vec4 step_;
  Vec4 grid_;
  std::vector<Region4> owned_;  ///< owned origins, per id
  std::shared_ptr<ChunkManifest> manifest_;
  mutable std::mutex mu_;
  std::vector<std::int64_t> remaining_;  ///< samples until complete, per id
  std::int64_t completed_ = 0;
};

}  // namespace h4d::io
