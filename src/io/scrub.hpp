// Offline integrity scrub and repair for replicated disk-resident datasets.
//
// A long-lived dataset accumulates silent damage between runs: a storage node
// directory lost to a disk swap, a slice file truncated by a crashed writer,
// a bit flip the next read would only catch mid-pipeline. The scrub walks
// every expected replica copy of every slice and verifies it against the
// per-node index (existence, size, CRC-32), producing a machine-readable
// inventory of divergent and missing copies. Indexes are read by the same
// StorageNodeReader the pipeline uses, so an index the pipeline would refuse
// is a malformed_index finding. The repair pass then uses the surviving good
// replicas to re-clone damaged or missing copies (durable tmp + fsync +
// atomic-rename writes) and to rebuild a lost or rejected node index —
// restoring full replication without re-importing the source volume.
//
// add_checksums() is the migration path for pre-checksum datasets: it
// backfills the CRC column of index entries that lack it (has_crc == false),
// cross-checking replica copies first so a corrupt copy cannot launder its
// own damage into the index.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace h4d::io {

/// One kind of damage a scrub can find.
enum class ScrubDefect {
  MissingNodeDir,     ///< whole storage node directory absent
  MissingIndex,       ///< node directory exists but has no index file
  MalformedIndex,     ///< StorageNodeReader rejects the node's index (detail: why)
  IndexEntryMissing,  ///< node index does not list a slice it should hold
  MissingCopy,        ///< indexed/expected slice file absent
  SizeMismatch,       ///< slice file exists with the wrong byte count
  ChecksumMismatch,   ///< copy's CRC-32 disagrees with the index
  DivergentCopies,    ///< replicas disagree and no index CRC arbitrates
};

std::string_view scrub_defect_name(ScrubDefect d);

/// One damaged (or unrepairable) copy. node/rank are -1 for dataset- or
/// slice-level findings (missing directories, divergence).
struct ScrubFinding {
  std::int64_t t = -1;
  std::int64_t z = -1;
  int node = -1;
  int rank = -1;
  ScrubDefect kind = ScrubDefect::MissingCopy;
  std::string detail;
};

/// Full damage inventory of one scrub pass.
struct ScrubReport {
  std::int64_t slices_checked = 0;
  std::int64_t copies_expected = 0;
  /// Copies read back whole and matching a CRC-32 (own index entry or a
  /// replica's).
  std::int64_t copies_verified = 0;
  /// Copies read back whole but with no CRC anywhere to check against
  /// (pre-checksum indexes) — candidates for add_checksums().
  std::int64_t copies_unverified = 0;
  std::vector<ScrubFinding> findings;

  bool clean() const { return findings.empty(); }
  std::string summary() const;
  /// Machine-readable inventory (JSON object, schema "h4d-scrub-v1").
  void write_json(std::ostream& os) const;
};

/// Walk every replica copy of every slice under `root` and verify it against
/// the node indexes. Read-only; throws only when the dataset meta itself is
/// unreadable.
ScrubReport scrub_dataset(const std::filesystem::path& root);

/// What a repair pass changed.
struct RepairReport {
  std::int64_t copies_recloned = 0;   ///< slice files rewritten from a good replica
  std::int64_t indexes_rebuilt = 0;   ///< node index files rewritten
  /// Slices with no intact copy on any node — repair cannot restore them.
  std::vector<ScrubFinding> unrepairable;

  bool complete() const { return unrepairable.empty(); }
  std::string summary() const;
};

/// Restore full replication under `root`: re-clone every damaged or missing
/// copy from a surviving good replica (atomic durable writes) and rebuild
/// node indexes that are lost, rejected by the reader, or inconsistent. The good copy is the one
/// matching an index CRC-32 when one exists, else the majority of the
/// surviving full-size copies. Idempotent; a following scrub is clean unless
/// some slice was unrepairable.
RepairReport repair_dataset(const std::filesystem::path& root);

/// What a checksum backfill changed.
struct ChecksumMigrationReport {
  std::int64_t entries_backfilled = 0;  ///< index entries given a CRC column
  /// Slices skipped because their replica copies disagree (repair first).
  std::int64_t slices_divergent = 0;

  std::string summary() const;
};

/// Backfill the CRC-32 column for index entries recorded before checksums
/// existed (has_crc == false). A slice's CRC is only written when every
/// surviving copy of it agrees (and matches any already-indexed CRC);
/// divergent slices are skipped and counted. Index files are rewritten
/// atomically.
ChecksumMigrationReport add_checksums(const std::filesystem::path& root);

}  // namespace h4d::io
