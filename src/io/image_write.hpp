// Output writers: PGM image series (the paper's JIW stage, run on collected
// maps; stands in for the paper's JPEG output, which it uses purely as a
// viewing format) and a
// small CSV table writer for bench harnesses.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "nd/volume4.hpp"

namespace h4d::io {

/// Write one 8-bit binary PGM (P5) image.
void write_pgm(const std::filesystem::path& path, std::int64_t width, std::int64_t height,
               const std::uint8_t* pixels);

/// Read a P5 PGM back (round-trip tests).
std::vector<std::uint8_t> read_pgm(const std::filesystem::path& path, std::int64_t& width,
                                   std::int64_t& height);

/// Normalize a float feature map to [0, 255] using the given min/max (the
/// paper's JIW filter normalizes to [0, 1]: 0 -> black, 1 -> white) and write
/// it as a series of 2D PGM slices named
///   <prefix>_t<k>_z<k>.pgm
/// under `dir`, as one atomic_write_files batch (durable when this returns;
/// if a slice cannot be
/// written, no file of the series is replaced). Returns the number of
/// images written.
int write_feature_map_images(const std::filesystem::path& dir, const std::string& prefix,
                             const Volume4<float>& map, float vmin, float vmax);

/// Minimal CSV writer used by the benchmark harnesses.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> columns);

  void add_row(const std::vector<std::string>& cells);
  /// Render to a string (also what save() writes).
  std::string str() const;
  void save(const std::filesystem::path& path) const;

  static std::string num(double v);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace h4d::io
