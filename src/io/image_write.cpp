#include "io/image_write.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/durable_file.hpp"

namespace h4d::io {

namespace {

std::string pgm_header(std::int64_t width, std::int64_t height) {
  return "P5\n" + std::to_string(width) + ' ' + std::to_string(height) + "\n255\n";
}

}  // namespace

void write_pgm(const std::filesystem::path& path, std::int64_t width, std::int64_t height,
               const std::uint8_t* pixels) {
  if (width <= 0 || height <= 0) throw std::invalid_argument("write_pgm: bad dimensions");
  // Assemble in memory, then tmp + fsync + rename: a crash mid-write leaves
  // the previous image (or nothing), never a torn file a resumed run trusts.
  // Storage failures surface as typed WriteError (ENOSPC etc.).
  const std::string h = pgm_header(width, height);
  std::vector<std::uint8_t> file(h.size() + static_cast<std::size_t>(width * height));
  std::copy(h.begin(), h.end(), file.begin());
  std::copy(pixels, pixels + width * height, file.begin() + static_cast<std::ptrdiff_t>(h.size()));
  atomic_write_file(path, file.data(), file.size());
}

std::vector<std::uint8_t> read_pgm(const std::filesystem::path& path, std::int64_t& width,
                                   std::int64_t& height) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("read_pgm: cannot open " + path.string());
  std::string magic;
  std::int64_t maxval = 0;
  f >> magic >> width >> height >> maxval;
  if (magic != "P5" || maxval != 255 || width <= 0 || height <= 0) {
    throw std::runtime_error("read_pgm: unsupported format in " + path.string());
  }
  f.get();  // single whitespace after header
  std::vector<std::uint8_t> pixels(static_cast<std::size_t>(width * height));
  f.read(reinterpret_cast<char*>(pixels.data()), static_cast<std::streamsize>(pixels.size()));
  if (!f) throw std::runtime_error("read_pgm: short read from " + path.string());
  return pixels;
}

int write_feature_map_images(const std::filesystem::path& dir, const std::string& prefix,
                             const Volume4<float>& map, float vmin, float vmax) {
  std::filesystem::create_directories(dir);
  const Vec4 d = map.dims();
  const float range = vmax - vmin;
  const std::string header = pgm_header(d[0], d[1]);
  const auto pixels = static_cast<std::size_t>(d[0] * d[1]);
  const std::size_t file_bytes = header.size() + pixels;
  const auto slices = static_cast<std::size_t>(d[2] * d[3]);
  // Every file of the series, back to back; slice s = t * nz + z is the
  // contiguous run of map storage at s * pixels.
  std::vector<std::uint8_t> series(slices * file_bytes);
  std::vector<FileWrite> files;
  files.reserve(slices);
  for (std::int64_t t = 0; t < d[3]; ++t) {
    for (std::int64_t z = 0; z < d[2]; ++z) {
      const auto s = static_cast<std::size_t>(t * d[2] + z);
      const float* src = map.data() + s * pixels;
      std::uint8_t* file = series.data() + s * file_bytes;
      std::copy(header.begin(), header.end(), file);
      std::uint8_t* img = file + header.size();
      for (std::size_t i = 0; i < pixels; ++i) {
        float v = range > 0.0f ? (src[i] - vmin) / range : 0.0f;
        v = std::clamp(v, 0.0f, 1.0f);
        img[i] = static_cast<std::uint8_t>(v * 255.0f + 0.5f);
      }
      files.push_back({dir / (prefix + "_t" + std::to_string(t) + "_z" + std::to_string(z) +
                              ".pgm"),
                       file, file_bytes});
    }
  }
  atomic_write_files(files);
  return static_cast<int>(slices);
}

CsvWriter::CsvWriter(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("CsvWriter: need at least one column");
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument("CsvWriter: row width " + std::to_string(cells.size()) +
                                " != " + std::to_string(columns_.size()));
  }
  rows_.push_back(cells);
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    os << columns_[i] << (i + 1 < columns_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i] << (i + 1 < row.size() ? "," : "\n");
    }
  }
  return os.str();
}

void CsvWriter::save(const std::filesystem::path& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("CsvWriter: cannot open " + path.string());
  f << str();
}

std::string CsvWriter::num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace h4d::io
