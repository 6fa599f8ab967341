#include "io/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

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
  DatasetMeta m;
  std::string key;
  while (f >> key) {
    if (key == "version") {
      int version = 0;
      f >> version;
      if (version > kMetaVersion) {
        throw std::runtime_error("dataset.meta under " + root.string() + " is version " +
                                 std::to_string(version) + ", newer than supported " +
                                 std::to_string(kMetaVersion));
      }
    } else if (key == "dims") {
      f >> m.dims[0] >> m.dims[1] >> m.dims[2] >> m.dims[3];
    } else if (key == "dtype") {
      std::string name;
      f >> name;
      m.dtype = dtype_from_name(name);
    } else if (key == "range") {
      f >> m.value_min >> m.value_max;
    } else if (key == "storage_nodes") {
      f >> m.storage_nodes;
    } else if (key == "replicas") {
      f >> m.replicas;
    } else {
      std::string rest;
      std::getline(f, rest);  // tolerate unknown keys
    }
  }
  if (!m.dims.all_positive() || m.storage_nodes < 1 || m.replicas < 1) {
    throw std::runtime_error("corrupt dataset.meta under " + root.string());
  }
  return m;
}

bool is_node_local_filename(const std::string& name) {
  return !name.empty() && name != "." && name != ".." && name.find('/') == std::string::npos;
}

StorageNodeReader::StorageNodeReader(std::filesystem::path node_dir, DatasetMeta meta,
                                     int node_id)
    : dir_(std::move(node_dir)), meta_(meta), node_id_(node_id) {
  std::ifstream idx(dir_ / kIndexFileName);
  if (!idx) throw std::runtime_error("cannot read index " + (dir_ / kIndexFileName).string());
  // Line format: "<t> <z> <filename> [<crc32-hex>]". The checksum column was
  // added later; indexes without it stay readable (has_crc == false). The
  // filename is joined onto the node directory, so it must name a file in
  // that directory: one relative path component, never "." or "..".
  std::string line;
  std::int64_t line_no = 0;
  const auto reject = [&](const std::string& what) {
    throw std::runtime_error(what + " in " + (dir_ / kIndexFileName).string() + ":" +
                             std::to_string(line_no) + ": " + line);
  };
  while (std::getline(idx, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream is(line);
    SliceRef s;
    if (!(is >> s.t >> s.z >> s.filename)) reject("malformed index line");
    if (s.t < 0 || s.t >= meta_.dims[3] || s.z < 0 || s.z >= meta_.dims[2]) {
      reject("index slice (t=" + std::to_string(s.t) + ", z=" + std::to_string(s.z) +
             ") outside the volume's " + std::to_string(meta_.dims[3]) + " x " +
             std::to_string(meta_.dims[2]) + " (t x z) slices");
    }
    if (!is_node_local_filename(s.filename)) {
      reject("index filename '" + s.filename + "' is not a file in the node directory");
    }
    std::string crc_hex;
    if (is >> crc_hex) {
      if (crc_hex.size() > 8 ||
          crc_hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
        reject("index checksum '" + crc_hex + "' is not a CRC-32 in hex");
      }
      s.crc = static_cast<std::uint32_t>(std::stoul(crc_hex, nullptr, 16));
      s.has_crc = true;
    }
    slices_.push_back(std::move(s));
  }
}

const SliceRef* StorageNodeReader::find_slice(std::int64_t t, std::int64_t z) const {
  const auto it = std::find_if(slices_.begin(), slices_.end(), [&](const SliceRef& s) {
    return s.t == t && s.z == z;
  });
  return it == slices_.end() ? nullptr : &*it;
}

void StorageNodeReader::read_slice_region(const SliceRef& slice, std::int64_t x0,
                                          std::int64_t y0, std::int64_t w, std::int64_t h,
                                          std::uint16_t* out) const {
  if (meta_.replica_rank(slice.z, slice.t, node_id_) < 0) {
    throw std::invalid_argument("slice (t=" + std::to_string(slice.t) +
                                ", z=" + std::to_string(slice.z) + ") is not local to node " +
                                std::to_string(node_id_));
  }
  if (x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0 + w > meta_.dims[0] ||
      y0 + h > meta_.dims[1]) {
    throw std::invalid_argument("read_slice_region: rectangle out of bounds");
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

  const std::size_t esz = dtype_size(meta_.dtype);
  std::vector<std::uint8_t> row(static_cast<std::size_t>(w) * esz);
  const bool full_rows = (x0 == 0 && w == meta_.dims[0]);
  // One seek per read burst: full-width reads of contiguous rows need a
  // single seek; partial rows need one per row.
  seeks_ += full_rows ? 1 : h;
  for (std::int64_t y = 0; y < h; ++y) {
    const std::int64_t off =
        ((y0 + y) * meta_.dims[0] + x0) * static_cast<std::int64_t>(esz);
    f.seekg(off);
    f.read(reinterpret_cast<char*>(row.data()), static_cast<std::streamsize>(row.size()));
    std::int64_t got = f.gcount();
    const bool injected = plan.short_read && y == 0;
    if (injected) got = got / 2;
    if (got != static_cast<std::int64_t>(row.size())) {
      throw SliceReadError(path, slice.t, slice.z,
                           static_cast<std::int64_t>(row.size()), got,
                           injected ? "injected short read" : "short read");
    }
    bytes_read_ += static_cast<std::int64_t>(row.size());
    if (injector_) injector_->apply_corruption(slice.t, slice.z, row.data(), row.size());
    if (meta_.dtype == Dtype::U16) {
      std::memcpy(out + y * w, row.data(), row.size());
    } else {
      for (std::int64_t x = 0; x < w; ++x) {
        out[y * w + x] = row[static_cast<std::size_t>(x)];
      }
    }
  }
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
  if (num_nodes < 1) throw std::invalid_argument("DiskDataset::create: num_nodes must be >= 1");
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
      const std::string name = slice_filename(t, z);
      for (std::int64_t y = 0; y < ny; ++y) {
        std::memcpy(slice.data() + y * nx, &vol.at(0, y, z, t),
                    static_cast<std::size_t>(nx) * sizeof(std::uint16_t));
      }
      const std::size_t nbytes = slice.size() * sizeof(std::uint16_t);
      const std::uint32_t crc = crc32(slice.data(), nbytes);
      std::ostringstream crc_hex;
      crc_hex << std::hex << crc;
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const int node = meta.replica_node(z, t, rank);
        const std::filesystem::path path = root / node_dir_name(node) / name;
        std::ofstream f(path, std::ios::binary);
        if (!f) throw std::runtime_error("cannot write slice " + path.string());
        f.write(reinterpret_cast<const char*>(slice.data()),
                static_cast<std::streamsize>(nbytes));
        if (!f) throw std::runtime_error("short write to slice " + path.string());
        indexes[static_cast<std::size_t>(node)]
            << t << ' ' << z << ' ' << name << ' ' << crc_hex.str() << '\n';
      }
    }
  }
  return DiskDataset(root, meta);
}

DiskDataset DiskDataset::open(const std::filesystem::path& root) {
  return DiskDataset(root, DatasetMeta::load(root));
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
                                                FaultReport* report) const {
  if (!Region4::whole(meta_.dims).contains(region) || region.empty()) {
    throw std::invalid_argument("read_region: region " + region.str() +
                                " not inside dataset " + meta_.dims.str());
  }
  Volume4<std::uint16_t> out(region.size);
  std::vector<std::uint16_t> rect(static_cast<std::size_t>(region.size[0] * region.size[1]));
  FaultReportSink sink;
  // Missing node directories are dead from the start; with r >= 2 their
  // slices are read from the surviving replicas instead.
  ReplicaSet replicas(root_, meta_, ReplicaSet::missing_node_dirs(root_, meta_));
  {
    std::vector<std::unique_ptr<ResilientReader>> readers(
        static_cast<std::size_t>(meta_.storage_nodes));
    for (std::int64_t t = 0; t < region.size[3]; ++t) {
      for (std::int64_t z = 0; z < region.size[2]; ++z) {
        const std::int64_t gz = region.origin[2] + z;
        const std::int64_t gt = region.origin[3] + t;
        int node = replicas.read_owner(gz, gt);
        if (node < 0) node = replicas.first_alive_node();
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
        // Prefer the index entry (it carries the checksum); fall back to the
        // conventional filename for indexes that lack the slice.
        SliceRef ref{gt, gz, slice_filename(gt, gz), 0, false};
        if (const SliceRef* indexed = reader->find_slice(gt, gz)) ref = *indexed;
        reader->read_slice_region(ref, region.origin[0], region.origin[1], region.size[0],
                                  region.size[1], rect.data());
        for (std::int64_t y = 0; y < region.size[1]; ++y) {
          std::memcpy(&out.at(0, y, z, t), rect.data() + y * region.size[0],
                      static_cast<std::size_t>(region.size[0]) * sizeof(std::uint16_t));
        }
      }
    }
  }
  if (report) report->merge(sink.snapshot());
  return out;
}

}  // namespace h4d::io
