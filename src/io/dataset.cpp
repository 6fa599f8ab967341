#include "io/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "io/fault.hpp"
#include "io/replica_set.hpp"
#include "io/resilient_reader.hpp"
#include "nd/quantize.hpp"

namespace h4d::io {

namespace {

constexpr const char* kMetaFile = "dataset.meta";

std::string slice_read_error_message(const std::string& file, std::int64_t t,
                                     std::int64_t z, std::int64_t expected,
                                     std::int64_t actual, const std::string& kind) {
  std::ostringstream os;
  os << kind << " in " << file << " (slice t=" << t << ", z=" << z << "): expected "
     << expected << " bytes, got " << actual;
  return os.str();
}

}  // namespace

SliceReadError::SliceReadError(const std::string& file, std::int64_t t_, std::int64_t z_,
                               std::int64_t expected_bytes_, std::int64_t actual_bytes_,
                               const std::string& what_kind)
    : std::runtime_error(
          slice_read_error_message(file, t_, z_, expected_bytes_, actual_bytes_, what_kind)),
      t(t_),
      z(z_),
      expected_bytes(expected_bytes_),
      actual_bytes(actual_bytes_) {}

std::string slice_filename(std::int64_t t, std::int64_t z) {
  return "slice_t" + std::to_string(t) + "_z" + std::to_string(z) + ".raw";
}

std::string node_dir_name(int node) { return "node_" + std::to_string(node); }

std::size_t dtype_size(Dtype d) { return d == Dtype::U8 ? 1 : 2; }

void widen_to_u16(Dtype d, const std::uint8_t* raw, std::int64_t count, std::uint16_t* out) {
  if (d == Dtype::U16) {
    std::memcpy(out, raw, static_cast<std::size_t>(count) * sizeof(std::uint16_t));
  } else {
    std::copy_n(raw, count, out);
  }
}

std::string dtype_name(Dtype d) { return d == Dtype::U8 ? "u8" : "u16"; }

Dtype dtype_from_name(const std::string& name) {
  if (name == "u8") return Dtype::U8;
  if (name == "u16") return Dtype::U16;
  throw std::runtime_error("unknown dtype: " + name);
}

void DatasetMeta::save(const std::filesystem::path& root) const {
  std::ofstream f(root / kMetaFile);
  if (!f) throw std::runtime_error("cannot write " + (root / kMetaFile).string());
  f << "version " << kMetaVersion << '\n'
    << "dims " << dims[0] << ' ' << dims[1] << ' ' << dims[2] << ' ' << dims[3] << '\n'
    << "dtype " << dtype_name(dtype) << '\n'
    << "range " << value_min << ' ' << value_max << '\n'
    << "storage_nodes " << storage_nodes << '\n'
    << "replicas " << replicas << '\n';
}

DatasetMeta DatasetMeta::load(const std::filesystem::path& root) {
  std::ifstream f(root / kMetaFile);
  if (!f) throw std::runtime_error("cannot read " + (root / kMetaFile).string());
  const std::string corrupt = "corrupt dataset.meta under " + root.string();
  // Each value is one whole token: a value that overflows its field, is
  // missing, or is not a number is rejected rather than clamped or half-read.
  const auto read = [&](const std::string& key, auto& value) {
    std::string token;
    if (f >> token) {
      const char* const end = token.data() + token.size();
      const auto [p, ec] = std::from_chars(token.data(), end, value);
      if (ec == std::errc{} && p == end) return;
    }
    throw std::runtime_error(corrupt + ": unreadable " + key + " value");
  };
  DatasetMeta m;
  std::string key;
  while (f >> key) {
    if (key == "version") {
      int version = 0;
      read(key, version);
      if (version > kMetaVersion) {
        throw std::runtime_error("dataset.meta under " + root.string() + " is version " +
                                 std::to_string(version) + ", newer than supported " +
                                 std::to_string(kMetaVersion));
      }
    } else if (key == "dims") {
      for (int k = 0; k < kDims; ++k) read(key, m.dims[k]);
    } else if (key == "dtype") {
      std::string name;
      if (!(f >> name)) throw std::runtime_error(corrupt + ": unreadable dtype value");
      m.dtype = dtype_from_name(name);
    } else if (key == "range") {
      read(key, m.value_min);
      read(key, m.value_max);
    } else if (key == "storage_nodes") {
      read(key, m.storage_nodes);
    } else if (key == "replicas") {
      read(key, m.replicas);
    } else {
      std::string rest;
      std::getline(f, rest);  // tolerate unknown keys
    }
  }
  if (!m.dims.all_positive() || m.storage_nodes < 1 || m.replicas < 1) {
    throw std::runtime_error(corrupt);
  }
  // Every reader walks the nodes (and a slice's replicas) one by one.
  if (m.storage_nodes > kMaxNodes || m.replicas > kMaxNodes) {
    throw std::runtime_error(corrupt + ": storage_nodes " + std::to_string(m.storage_nodes) +
                             " and replicas " + std::to_string(m.replicas) +
                             " must each be at most " + std::to_string(kMaxNodes));
  }
  // The quantizer maps [value_min, value_max] onto the levels; min == max
  // (a constant volume) is valid and maps to level 0.
  const double dtype_max = m.dtype == Dtype::U8 ? 255.0 : 65535.0;
  if (!(0.0 <= m.value_min && m.value_min <= m.value_max && m.value_max <= dtype_max)) {
    std::ostringstream os;
    os << corrupt << ": range " << m.value_min << ' ' << m.value_max
       << " is not 0 <= min <= max <= " << dtype_max << " for " << dtype_name(m.dtype);
    throw std::runtime_error(os.str());
  }
  // Every read allocates slice_bytes(): the slice and whole-volume byte
  // counts must fit in int64, or the arithmetic downstream is undefined.
  const auto esz = static_cast<std::int64_t>(dtype_size(m.dtype));
  std::int64_t bytes = 0;
  if (__builtin_mul_overflow(m.dims[0], m.dims[1], &bytes) ||
      __builtin_mul_overflow(bytes, esz, &bytes) ||
      __builtin_mul_overflow(bytes, m.dims[2], &bytes) ||
      __builtin_mul_overflow(bytes, m.dims[3], &bytes)) {
    throw std::runtime_error("corrupt dataset.meta under " + root.string() + ": dims " +
                             m.dims.str() + " overflow a 64-bit byte count");
  }
  return m;
}

bool is_node_local_filename(const std::string& name) {
  return !name.empty() && name != "." && name != ".." && name.find('/') == std::string::npos;
}

SliceRef parse_index_line(const std::string& line, const DatasetMeta& meta) {
  // Whitespace-separated tokens; a fifth one makes the line malformed.
  std::istringstream is(line);
  std::string tokens[5];
  std::size_t n = 0;
  while (n < 5 && is >> tokens[n]) ++n;
  const auto whole = [](std::string_view token, auto& value, int base = 10) {
    const char* const end = token.data() + token.size();
    const auto [p, ec] = std::from_chars(token.data(), end, value, base);
    return ec == std::errc{} && p == end;
  };
  SliceRef s;
  if (n < 3 || n > 4 || !whole(tokens[0], s.t) || !whole(tokens[1], s.z)) {
    throw std::runtime_error("malformed index line");
  }
  if (s.t < 0 || s.t >= meta.dims[3] || s.z < 0 || s.z >= meta.dims[2]) {
    throw std::runtime_error("index slice (t=" + std::to_string(s.t) + ", z=" +
                             std::to_string(s.z) + ") outside the volume's " +
                             std::to_string(meta.dims[3]) + " x " +
                             std::to_string(meta.dims[2]) + " (t x z) slices");
  }
  // The filename is joined onto the node directory, so it must name a file
  // in that directory.
  s.filename = tokens[2];
  if (!is_node_local_filename(s.filename)) {
    throw std::runtime_error("index filename '" + s.filename +
                             "' is not a file in the node directory");
  }
  if (n == 4) {
    if (tokens[3].size() > 8 || !whole(tokens[3], s.crc, 16)) {
      throw std::runtime_error("index checksum '" + tokens[3] + "' is not a CRC-32 in hex");
    }
    s.has_crc = true;
  }
  return s;
}

std::string format_crc32(std::uint32_t crc) {
  char buf[8];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, crc, 16);
  return std::string(buf, end);
}

std::string format_index_line(const SliceRef& s) {
  std::string line = std::to_string(s.t) + ' ' + std::to_string(s.z) + ' ' + s.filename;
  if (s.has_crc) line += ' ' + format_crc32(s.crc);
  return line;
}

std::vector<SliceRef> read_index(const std::filesystem::path& index_path,
                                 const DatasetMeta& meta, std::string& error) {
  std::ifstream idx(index_path);
  if (!idx) throw std::runtime_error("cannot read index " + index_path.string());
  std::vector<SliceRef> slices;
  // Slice number -> the number of its first line and its entry in `slices`.
  std::unordered_map<std::int64_t, std::pair<std::int64_t, std::size_t>> first_line;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(idx, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      SliceRef s = parse_index_line(line, meta);
      const auto [first, fresh] =
          first_line.try_emplace(meta.slice_number(s.z, s.t), line_no, slices.size());
      if (!fresh) {
        // The index is rejected, but no line without a CRC hides one with it.
        const auto [first_no, at] = first->second;
        if (s.has_crc && !slices[at].has_crc) slices[at] = s;
        throw std::runtime_error("index lists slice (t=" + std::to_string(s.t) + ", z=" +
                                 std::to_string(s.z) + ") again (first on line " +
                                 std::to_string(first_no) + ")");
      }
      slices.push_back(std::move(s));
    } catch (const std::runtime_error& e) {
      if (error.empty()) {
        error = e.what() + (" in " + index_path.string()) + ":" + std::to_string(line_no) +
                ": " + line;
      }
    }
  }
  return slices;
}

StorageNodeReader::StorageNodeReader(std::filesystem::path node_dir, DatasetMeta meta,
                                     int node_id)
    : dir_(std::move(node_dir)), meta_(meta), node_id_(node_id) {
  std::string error;
  slices_ = read_index(dir_ / kIndexFileName, meta_, error);
  if (!error.empty()) throw std::runtime_error(error);
}

SliceRef StorageNodeReader::slice_ref(std::int64_t t, std::int64_t z) const {
  const auto it = std::find_if(slices_.begin(), slices_.end(), [&](const SliceRef& s) {
    return s.t == t && s.z == z;
  });
  return it == slices_.end() ? SliceRef{t, z, slice_filename(t, z), 0, false} : *it;
}

void StorageNodeReader::read_slice_bytes(const SliceRef& slice, std::uint8_t* out) const {
  if (meta_.replica_rank(slice.z, slice.t, node_id_) < 0) {
    throw std::invalid_argument("slice (t=" + std::to_string(slice.t) +
                                ", z=" + std::to_string(slice.z) + ") is not local to node " +
                                std::to_string(node_id_));
  }
  AttemptPlan plan;
  if (injector_) plan = injector_->plan_attempt(slice.t, slice.z, node_id_);
  const std::string path = (dir_ / slice.filename).string();
  std::ifstream f(dir_ / slice.filename, std::ios::binary);
  if (plan.fail_open || !f) {
    throw std::runtime_error((plan.fail_open ? "injected open failure: " : "") +
                             std::string("cannot open slice ") + path + " (t=" +
                             std::to_string(slice.t) + ", z=" + std::to_string(slice.z) + ")");
  }
  const std::int64_t expected = meta_.slice_bytes();
  f.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(expected));
  std::int64_t got = f.gcount();
  if (plan.short_read) got = got / 2;
  ++seeks_;
  bytes_read_ += got;
  if (got != expected) {
    throw SliceReadError(path, slice.t, slice.z, expected, got,
                         plan.short_read ? "injected short read" : "short read");
  }
  if (injector_) {
    injector_->apply_corruption(slice.t, slice.z, out,
                                static_cast<std::size_t>(expected));
  }
}

DiskDataset DiskDataset::create(const std::filesystem::path& root,
                                const Volume4<std::uint16_t>& vol, int num_nodes,
                                int replicas) {
  if (num_nodes < 1 || num_nodes > DatasetMeta::kMaxNodes) {
    throw std::invalid_argument("DiskDataset::create: num_nodes must be in [1, " +
                                std::to_string(DatasetMeta::kMaxNodes) + "]");
  }
  if (replicas < 1) throw std::invalid_argument("DiskDataset::create: replicas must be >= 1");
  std::filesystem::create_directories(root);

  DatasetMeta meta;
  meta.dims = vol.dims();
  meta.dtype = Dtype::U16;
  meta.storage_nodes = num_nodes;
  meta.replicas = std::min(replicas, num_nodes);
  const auto [lo, hi] = min_max<std::uint16_t>(vol.view());
  meta.value_min = lo;
  meta.value_max = hi;
  meta.save(root);

  std::vector<std::ofstream> indexes;
  for (int n = 0; n < num_nodes; ++n) {
    const std::filesystem::path dir = root / node_dir_name(n);
    std::filesystem::create_directories(dir);
    indexes.emplace_back(dir / kIndexFileName);
    if (!indexes.back()) throw std::runtime_error("cannot create index in " + dir.string());
  }

  const std::int64_t nx = meta.dims[0];
  const std::int64_t ny = meta.dims[1];
  std::vector<std::uint16_t> slice(static_cast<std::size_t>(nx * ny));
  for (std::int64_t t = 0; t < meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < meta.dims[2]; ++z) {
      for (std::int64_t y = 0; y < ny; ++y) {
        std::memcpy(slice.data() + y * nx, &vol.at(0, y, z, t),
                    static_cast<std::size_t>(nx) * sizeof(std::uint16_t));
      }
      const std::size_t nbytes = slice.size() * sizeof(std::uint16_t);
      const SliceRef ref{t, z, slice_filename(t, z), crc32(slice.data(), nbytes), true};
      const std::string line = format_index_line(ref) + '\n';
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const int node = meta.replica_node(z, t, rank);
        const std::filesystem::path path = root / node_dir_name(node) / ref.filename;
        std::ofstream f(path, std::ios::binary);
        if (!f) throw std::runtime_error("cannot write slice " + path.string());
        f.write(reinterpret_cast<const char*>(slice.data()),
                static_cast<std::streamsize>(nbytes));
        if (!f) throw std::runtime_error("short write to slice " + path.string());
        indexes[static_cast<std::size_t>(node)] << line;
      }
    }
  }
  return DiskDataset(root, meta);
}

DiskDataset DiskDataset::open(const std::filesystem::path& root) {
  return DiskDataset(root, DatasetMeta::load(root));
}

void DiskDataset::check_slice_files() const {
  // Every slice read allocates slice_bytes() before it looks at the file, so
  // the meta's dims must match what is on disk. One matching file settles
  // it: first the one create() writes for slice (t=0, z=0), a single stat.
  const auto want = static_cast<std::uintmax_t>(meta_.slice_bytes());
  std::error_code ec;
  if (std::filesystem::file_size(node_dir(meta_.node_of_slice(0, 0)) / slice_filename(0, 0),
                                 ec) == want &&
      !ec) {
    return;
  }
  std::int64_t files = 0;
  std::string example;
  for (int n = 0; n < meta_.storage_nodes; ++n) {
    if (!std::filesystem::exists(node_dir(n) / kIndexFileName)) continue;
    const StorageNodeReader reader = node_reader(n);
    for (const SliceRef& s : reader.slices()) {
      const std::filesystem::path file = node_dir(n) / s.filename;
      const std::uintmax_t size = std::filesystem::file_size(file, ec);
      if (ec) continue;
      if (size == want) return;
      if (files++ == 0) example = file.string() + " holds " + std::to_string(size) + " B";
    }
  }
  if (files > 0) {
    throw DatasetShapeError("dataset.meta under " + root_.string() + ": dims " +
                            meta_.dims.str() + " give " + std::to_string(want) +
                            "-byte slices, but none of the " + std::to_string(files) +
                            " indexed slice files has that size (" + example + ")");
  }
}

std::filesystem::path DiskDataset::node_dir(int node) const {
  return root_ / node_dir_name(node);
}

StorageNodeReader DiskDataset::node_reader(int node) const {
  if (node < 0 || node >= meta_.storage_nodes) {
    throw std::out_of_range("node_reader: no node " + std::to_string(node));
  }
  return StorageNodeReader(node_dir(node), meta_, node);
}

Volume4<std::uint16_t> DiskDataset::read_all() const {
  return read_region(Region4::whole(meta_.dims));
}

Volume4<std::uint16_t> DiskDataset::read_region(const Region4& region) const {
  return read_region(region, ResilienceConfig{});
}

Volume4<std::uint16_t> DiskDataset::read_region(const Region4& region,
                                                const ResilienceConfig& resilience,
                                                FaultInjector* injector,
                                                FaultReport* report,
                                                std::vector<int> dead_nodes) const {
  if (!Region4::whole(meta_.dims).contains(region) || region.empty()) {
    throw std::invalid_argument("read_region: region " + region.str() +
                                " not inside dataset " + meta_.dims.str());
  }
  Volume4<std::uint16_t> out(region.size);
  const std::int64_t nx = meta_.dims[0];
  std::vector<std::uint16_t> slice(static_cast<std::size_t>(nx * meta_.dims[1]));
  FaultReportSink sink;
  // Declared dead nodes and missing node directories are read from nothing;
  // with r >= 2 their slices come from the surviving replicas instead.
  ReplicaSet replicas(root_, meta_, std::move(dead_nodes));
  if (resilience.policy != DegradePolicy::SkipAndFill) replicas.require_every_slice_covered();
  {
    std::vector<std::unique_ptr<ResilientReader>> readers(
        static_cast<std::size_t>(meta_.storage_nodes));
    for (std::int64_t t = 0; t < region.size[3]; ++t) {
      for (std::int64_t z = 0; z < region.size[2]; ++z) {
        const std::int64_t gz = region.origin[2] + z;
        const std::int64_t gt = region.origin[3] + t;
        const int node = replicas.read_owner(gz, gt);
        if (node < 0) {
          throw std::runtime_error("read_region: every storage node of " + root_.string() +
                                   " is missing");
        }
        auto& reader = readers[static_cast<std::size_t>(node)];
        if (!reader) {
          reader = std::make_unique<ResilientReader>(
              StorageNodeReader(node_dir(node), meta_, node), resilience, injector, &sink,
              &replicas);
        }
        reader->read_slice(reader->slice_ref(gt, gz), slice.data());
        for (std::int64_t y = 0; y < region.size[1]; ++y) {
          std::memcpy(&out.at(0, y, z, t),
                      slice.data() + (region.origin[1] + y) * nx + region.origin[0],
                      static_cast<std::size_t>(region.size[0]) * sizeof(std::uint16_t));
        }
      }
    }
  }
  if (report) report->merge(sink.snapshot());
  return out;
}

}  // namespace h4d::io
