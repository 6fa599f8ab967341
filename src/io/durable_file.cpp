#include "io/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

namespace h4d::io {

namespace {

std::string describe(const std::filesystem::path& path, std::int64_t bytes_attempted,
                     int errno_value, const std::string& op) {
  std::ostringstream os;
  os << "write failed (" << op << "): " << path.string() << ": "
     << (errno_value != 0 ? std::strerror(errno_value) : "short write");
  if (errno_value == ENOSPC || errno_value == EDQUOT) {
    std::error_code ec;
    const auto space = std::filesystem::space(path.parent_path(), ec);
    os << " — device holding " << path.parent_path().string() << " needs "
       << bytes_attempted << " more bytes";
    if (!ec) os << " (" << space.available << " available)";
    os << "; free space or move the output elsewhere";
  } else if (errno_value == 0) {
    os << " — device accepted fewer than the " << bytes_attempted
       << " bytes requested";
  }
  return os.str();
}

/// RAII fd that closes on scope exit (errors on this close are ignored —
/// durability was already decided by the explicit fsync).
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

void write_fully(int fd, const std::filesystem::path& path, const void* data,
                 std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t left = n;
  while (left > 0) {
    const ssize_t wrote = ::write(fd, p, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw WriteError(path, static_cast<std::int64_t>(left), errno, "write");
    }
    if (wrote == 0) {
      throw WriteError(path, static_cast<std::int64_t>(left), ENOSPC, "write");
    }
    p += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
}

void fsync_or_throw(int fd, const std::filesystem::path& path, std::int64_t n) {
  if (::fsync(fd) != 0) throw WriteError(path, n, errno, "fsync");
}

}  // namespace

WriteError::WriteError(std::filesystem::path path, std::int64_t bytes_attempted,
                       int errno_value, const std::string& op)
    : std::runtime_error(describe(path, bytes_attempted, errno_value, op)),
      path_(std::move(path)),
      bytes_attempted_(bytes_attempted),
      errno_(errno_value) {}

bool WriteError::disk_full() const { return errno_ == ENOSPC || errno_ == EDQUOT; }

void fsync_directory(const std::filesystem::path& dir) {
  Fd d{::open(dir.c_str(), O_RDONLY | O_DIRECTORY)};
  if (d.fd < 0) {
    if (errno == ENOENT) throw WriteError(dir, 0, errno, "open directory");
    return;  // filesystem without directory fds: rename durability best-effort
  }
  if (::fsync(d.fd) != 0 && errno != EINVAL && errno != EROFS) {
    throw WriteError(dir, 0, errno, "fsync directory");
  }
}

void atomic_write_file(const std::filesystem::path& path, const void* data,
                       std::size_t n) {
  const FileWrite file{path, data, n};
  atomic_write_files({&file, 1});
}

void atomic_write_files(std::span<const FileWrite> files) {
  if (files.empty()) return;
  std::vector<std::filesystem::path> tmps;
  tmps.reserve(files.size());
  for (const FileWrite& f : files) tmps.push_back(f.path.string() + ".tmp");
  // opened[i]: this call created (or truncated) tmps[i], so cleanup owns it.
  // Each index is written by the one worker that claimed it and read after
  // the join.
  std::vector<char> opened(files.size(), 0);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr first_error;
  const auto fail = [&](std::exception_ptr e) {
    std::lock_guard lk(mu);
    if (!first_error) first_error = std::move(e);
    failed.store(true, std::memory_order_relaxed);
  };
  const auto worker = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= files.size()) return;
      const auto n = static_cast<std::int64_t>(files[i].size);
      try {
        Fd f{::open(tmps[i].c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
        if (f.fd < 0) throw WriteError(tmps[i], n, errno, "open");
        opened[i] = 1;
        write_fully(f.fd, tmps[i], files[i].data, files[i].size);
        fsync_or_throw(f.fd, tmps[i], n);
      } catch (...) {
        fail(std::current_exception());
        return;
      }
    }
  };
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, files.size());
  {
    std::vector<std::jthread> threads;
    try {
      for (std::size_t k = 1; k < workers; ++k) threads.emplace_back(worker);
    } catch (...) {
      fail(std::current_exception());  // no thread to spare: stop the batch
    }
    worker();
  }  // joins

  const auto remove_tmps = [&](std::size_t from) {
    for (std::size_t i = from; i < files.size(); ++i) {
      if (opened[i] == 0) continue;
      std::error_code ec;
      std::filesystem::remove(tmps[i], ec);
    }
  };
  if (first_error) {
    remove_tmps(0);
    std::rethrow_exception(first_error);
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (::rename(tmps[i].c_str(), files[i].path.c_str()) != 0) {
      const int err = errno;
      remove_tmps(i);
      throw WriteError(files[i].path, static_cast<std::int64_t>(files[i].size), err,
                       "rename");
    }
  }
  std::vector<std::filesystem::path> dirs;
  for (const FileWrite& f : files) {
    std::filesystem::path dir = f.path.parent_path();
    if (std::find(dirs.begin(), dirs.end(), dir) == dirs.end()) dirs.push_back(std::move(dir));
  }
  for (const std::filesystem::path& dir : dirs) fsync_directory(dir);
}

void append_durable(const std::filesystem::path& path, const void* data, std::size_t n) {
  Fd f{::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644)};
  if (f.fd < 0) throw WriteError(path, static_cast<std::int64_t>(n), errno, "open");
  write_fully(f.fd, path, data, n);
  fsync_or_throw(f.fd, path, static_cast<std::int64_t>(n));
}

}  // namespace h4d::io
