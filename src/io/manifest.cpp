#include "io/manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/durable_file.hpp"
#include "io/fault.hpp"
#include "nd/raster.hpp"

namespace h4d::io {

namespace {

std::uint32_t line_crc(const std::string& id_text) {
  return crc32(id_text.data(), id_text.size());
}

}  // namespace

ChunkManifest::ChunkManifest(std::filesystem::path path, bool fresh,
                             const std::string& owner)
    : path_(std::move(path)) {
  if (path_.has_parent_path()) std::filesystem::create_directories(path_.parent_path());
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (fresh) flags |= O_TRUNC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("manifest: cannot open " + path_.string() + ": " +
                             std::strerror(errno));
  }
  if (!owner.empty()) {
    // Stamp the ownership header onto an empty file (a truncated fresh run,
    // or the first open ever). A resumed file keeps its existing header.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (fresh || (!ec && size == 0)) {
      const std::string payload = "owner " + owner;
      std::ostringstream line;
      line << payload << ' ' << std::hex << crc32(payload.data(), payload.size())
           << '\n';
      const std::string s = line.str();
      if (::write(fd_, s.data(), s.size()) != static_cast<ssize_t>(s.size()) ||
          ::fsync(fd_) != 0) {
        throw std::runtime_error("manifest: cannot write ownership header of " +
                                 path_.string());
      }
    }
  }
  if (!fresh) {
    // A crash can tear the final line before its newline. Appending straight
    // after the torn text would merge the next record into it, and load()
    // would then drop that record too. Terminate the torn line first.
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    if (in && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      char last = '\n';
      if (in.get(last) && last != '\n' && ::write(fd_, "\n", 1) != 1) {
        throw std::runtime_error("manifest: cannot repair torn tail of " +
                                 path_.string());
      }
    }
  }
}

ChunkManifest::~ChunkManifest() {
  if (fd_ >= 0) ::close(fd_);
}

void ChunkManifest::record(std::int64_t chunk_id) {
  const std::string id_text = std::to_string(chunk_id);
  std::ostringstream line;
  line << id_text << ' ' << std::hex << line_crc(id_text) << '\n';
  const std::string s = line.str();
  std::lock_guard lk(mu_);
  // One write per record: with O_APPEND a crash can tear at most the tail
  // line, which load() skips.
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd_, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WriteError(path_, static_cast<std::int64_t>(s.size() - off), errno,
                       "manifest write");
    }
    if (n == 0) {
      throw WriteError(path_, static_cast<std::int64_t>(s.size() - off), ENOSPC,
                       "manifest write");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw WriteError(path_, static_cast<std::int64_t>(s.size()), errno, "manifest fsync");
  }
}

std::vector<std::int64_t> ChunkManifest::load(const std::filesystem::path& path) {
  std::vector<std::int64_t> ids;
  std::ifstream in(path);
  if (!in) return ids;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::int64_t id = -1;
    std::string crc_text;
    if (!(fields >> id >> crc_text) || id < 0) continue;
    std::uint32_t crc = 0;
    try {
      crc = static_cast<std::uint32_t>(std::stoul(crc_text, nullptr, 16));
    } catch (...) {
      continue;
    }
    if (crc != line_crc(std::to_string(id))) continue;
    ids.push_back(id);
  }
  return ids;
}

std::string ChunkManifest::load_owner(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  if (!std::getline(in, line)) return {};
  std::istringstream fields(line);
  std::string tag, token, crc_text;
  if (!(fields >> tag >> token >> crc_text) || tag != "owner") return {};
  std::uint32_t crc = 0;
  try {
    crc = static_cast<std::uint32_t>(std::stoul(crc_text, nullptr, 16));
  } catch (...) {
    return {};
  }
  const std::string payload = "owner " + token;
  if (crc != crc32(payload.data(), payload.size())) return {};
  return token;
}

ChunkCompletionTracker::ChunkCompletionTracker(
    const std::vector<Chunk>& chunks, const Vec4& dims, const Vec4& chunk_dims,
    const Vec4& roi_dims, std::int64_t samples_per_origin,
    std::shared_ptr<ChunkManifest> manifest,
    const std::unordered_set<std::int64_t>& completed)
    : origins_(roi_origin_region(dims, roi_dims)), manifest_(std::move(manifest)) {
  for (int d = 0; d < kDims; ++d) {
    step_[d] = chunk_dims[d] - roi_dims[d] + 1;
    grid_[d] = (origins_.size[d] + step_[d] - 1) / step_[d];
  }
  remaining_.resize(chunks.size(), 0);
  owned_.resize(chunks.size());
  for (const Chunk& c : chunks) {
    const auto idx = static_cast<std::size_t>(c.id);
    owned_[idx] = c.owned_origins;
    if (completed.count(c.id) != 0) {
      remaining_[idx] = 0;  // resumed: done before this run started
      completed_++;
    } else {
      remaining_[idx] = c.owned_origins.volume() * samples_per_origin;
    }
  }
}

std::int64_t ChunkCompletionTracker::chunk_of(const Vec4& origin) const {
  std::int64_t id = 0;
  for (int d = kDims - 1; d >= 0; --d) {
    id = id * grid_[d] + origin[d] / step_[d];
  }
  return id;
}

void ChunkCompletionTracker::credit(std::int64_t id, std::int64_t n) {
  if (id < 0 || static_cast<std::size_t>(id) >= remaining_.size()) return;
  auto& left = remaining_[static_cast<std::size_t>(id)];
  if (left <= 0) return;  // already complete (duplicate replay after resume)
  left -= n;
  if (left <= 0) {
    completed_++;
    if (manifest_) manifest_->record(id);
  }
}

void ChunkCompletionTracker::note_origin(const Vec4& origin) {
  const std::int64_t id = chunk_of(origin);
  std::lock_guard lk(mu_);
  credit(id, 1);
}

void ChunkCompletionTracker::credit_region(const Region4& region) {
  const Region4 r = region.intersect(origins_);
  if (r.empty()) return;
  // The grid cells r overlaps, then each one's owned share of r.
  Vec4 lo, hi, g;
  for (int d = 0; d < kDims; ++d) {
    lo[d] = (r.origin[d] - origins_.origin[d]) / step_[d];
    hi[d] = (r.end()[d] - 1 - origins_.origin[d]) / step_[d];
  }
  for (g[3] = lo[3]; g[3] <= hi[3]; ++g[3]) {
    for (g[2] = lo[2]; g[2] <= hi[2]; ++g[2]) {
      for (g[1] = lo[1]; g[1] <= hi[1]; ++g[1]) {
        for (g[0] = lo[0]; g[0] <= hi[0]; ++g[0]) {
          const std::int64_t id = linear_index(g, grid_);
          if (id >= static_cast<std::int64_t>(owned_.size())) continue;
          const std::int64_t n = owned_[static_cast<std::size_t>(id)].intersect(r).volume();
          if (n > 0) credit(id, n);
        }
      }
    }
  }
}

void ChunkCompletionTracker::note_region(const Region4& region) {
  std::lock_guard lk(mu_);
  credit_region(region);
}

void ChunkCompletionTracker::note_run(const Region4& box, std::int64_t first, std::int64_t n) {
  std::lock_guard lk(mu_);
  for_each_run_box(box, first, n, [&](const Region4& sub, std::int64_t) { credit_region(sub); });
}

std::int64_t ChunkCompletionTracker::chunks_completed() const {
  std::lock_guard lk(mu_);
  return completed_;
}

}  // namespace h4d::io
