// Durable file writes and typed storage-write errors.
//
// Output that feeds a resume or a later reader (USO sample streams, feature
// map image slices, repaired replica copies, rebuilt index files) must never
// be observable half-written: a crash between "bytes issued" and "bytes
// durable" would leave a torn file that a later resume or scrub trusts.
// Three primitives cover the repo's write shapes:
//
//   * atomic_write_file: write <path>.tmp, fsync, rename over <path>, fsync
//     the directory — a reader sees the old file or the new file, never a
//     prefix (the manifest's torn-tail healing for whole files).
//   * atomic_write_files: the same contract for a batch of files (a feature
//     map's image series), with the tmp writes and fsyncs spread over worker
//     threads and one directory fsync for the whole batch.
//   * append_durable: O_APPEND write + fsync — for per-record streams where
//     rename-per-record is not meaningful (USO sample files).
//
// All map ENOSPC / quota / short-write conditions to WriteError, a typed,
// actionable error carrying the path, the byte count that did not fit and
// the errno — callers (FaultReport) count these instead of losing them in a
// generic runtime_error string.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>

namespace h4d::io {

/// A storage-layer write failure: which file, how many bytes were being
/// written, and the errno behind it. disk_full() distinguishes the
/// free-up-space-and-retry case (ENOSPC/EDQUOT) from real I/O errors.
class WriteError : public std::runtime_error {
 public:
  WriteError(std::filesystem::path path, std::int64_t bytes_attempted, int errno_value,
             const std::string& op);

  const std::filesystem::path& path() const { return path_; }
  std::int64_t bytes_attempted() const { return bytes_attempted_; }
  int errno_value() const { return errno_; }
  /// The device backing `path` is out of space (or quota).
  bool disk_full() const;

 private:
  std::filesystem::path path_;
  std::int64_t bytes_attempted_ = 0;
  int errno_ = 0;
};

/// Atomically replace `path` with `n` bytes: <path>.tmp + fsync + rename +
/// directory fsync. Throws WriteError on any storage failure; the .tmp file
/// is removed on error.
void atomic_write_file(const std::filesystem::path& path, const void* data, std::size_t n);

/// One file of an atomic_write_files batch: its final path and its bytes
/// (borrowed for the duration of the call).
struct FileWrite {
  std::filesystem::path path;
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Durably replace every `files[i].path` with its bytes, as one batch:
///
///   1. Workers write and fsync each <path>.tmp: hardware_concurrency()
///      threads, capped by the file count (one file runs on the caller).
///   2. Every .tmp is renamed over its path, in `files` order.
///   3. Each distinct parent directory is fsynced once.
///
/// Contract:
///   * No final name ever points at a torn file: a name is renamed only after
///     its bytes are fsynced, so a reader sees the old file or the new one.
///   * The whole series is durable when the call returns.
///   * If a write or fsync fails, every .tmp this call opened is removed,
///     nothing is renamed (older files of the same names stay intact), and
///     the first WriteError is rethrown. A failed rename (after all writes
///     succeeded) leaves the files before it renamed, removes the rest's
///     .tmp files and throws.
///   * A crash mid-call can leave .tmp files beside the outputs; they are
///     never read, and the next write of the same name truncates them.
void atomic_write_files(std::span<const FileWrite> files);

/// Append `n` bytes to `path` (created 0644 if needed) and fsync before
/// returning. Throws WriteError on open/write/fsync failure.
void append_durable(const std::filesystem::path& path, const void* data, std::size_t n);

/// fsync a directory so a rename inside it is durable. Best-effort on
/// filesystems that reject directory fsync; real failures throw WriteError.
void fsync_directory(const std::filesystem::path& dir);

}  // namespace h4d::io
