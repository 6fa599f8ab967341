#include "io/scrub.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "io/dataset.hpp"
#include "io/durable_file.hpp"
#include "io/fault.hpp"

namespace h4d::io {

namespace {

using SliceKey = std::pair<std::int64_t, std::int64_t>;  // (t, z)

struct IndexEntry {
  std::string filename;
  std::uint32_t crc = 0;
  bool has_crc = false;
};

/// One node's on-disk state as found (not as it should be).
struct NodeState {
  bool dir_exists = false;
  bool index_exists = false;
  std::map<SliceKey, IndexEntry> entries;
};

std::string crc_hex(std::uint32_t crc) {
  std::ostringstream os;
  os << std::hex << crc;
  return os.str();
}

std::vector<NodeState> load_nodes(const std::filesystem::path& root,
                                  const DatasetMeta& meta) {
  std::vector<NodeState> nodes(static_cast<std::size_t>(meta.storage_nodes));
  for (int n = 0; n < meta.storage_nodes; ++n) {
    NodeState& state = nodes[static_cast<std::size_t>(n)];
    const std::filesystem::path dir = root / node_dir_name(n);
    std::error_code ec;
    state.dir_exists = std::filesystem::is_directory(dir, ec);
    if (!state.dir_exists) continue;
    std::ifstream idx(dir / kIndexFileName);
    state.index_exists = static_cast<bool>(idx);
    std::string line;
    while (std::getline(idx, line)) {
      if (line.empty()) continue;
      std::istringstream is(line);
      std::int64_t t = 0, z = 0;
      IndexEntry e;
      // Malformed lines and names outside the node directory are dropped:
      // the slice then shows up as an index_entry_missing finding.
      if (!(is >> t >> z >> e.filename) || !is_node_local_filename(e.filename)) continue;
      std::string hex;
      if (is >> hex) {
        try {
          e.crc = static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
          e.has_crc = true;
        } catch (const std::exception&) {
          // unreadable checksum column: treat as absent
        }
      }
      state.entries[{t, z}] = std::move(e);
    }
  }
  return nodes;
}

/// Read one copy whole. `size` receives the on-disk byte count (-1 when the
/// file is missing); bytes are returned only when the size is exactly right.
std::optional<std::vector<std::uint8_t>> read_copy(const std::filesystem::path& path,
                                                   std::int64_t expected,
                                                   std::int64_t& size) {
  std::error_code ec;
  const auto on_disk = std::filesystem::file_size(path, ec);
  if (ec) {
    size = -1;
    return std::nullopt;
  }
  size = static_cast<std::int64_t>(on_disk);
  if (size != expected) return std::nullopt;
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    size = -1;
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(expected));
  f.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(expected));
  if (f.gcount() != expected) {
    size = f.gcount();
    return std::nullopt;
  }
  return bytes;
}

/// Canonical index content for `node`: every slice it holds a replica of, in
/// the t-major order DiskDataset::create uses. Slices absent from `entries`
/// (unrepairable) are omitted.
std::string render_index(const DatasetMeta& meta, int node,
                         const std::map<SliceKey, IndexEntry>& entries) {
  std::ostringstream os;
  for (std::int64_t t = 0; t < meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < meta.dims[2]; ++z) {
      if (meta.replica_rank(z, t, node) < 0) continue;
      const auto it = entries.find({t, z});
      if (it == entries.end()) continue;
      os << t << ' ' << z << ' ' << it->second.filename;
      if (it->second.has_crc) os << ' ' << crc_hex(it->second.crc);
      os << '\n';
    }
  }
  return os.str();
}

void write_index(const std::filesystem::path& root, int node, const std::string& content) {
  const std::filesystem::path dir = root / node_dir_name(node);
  std::filesystem::create_directories(dir);
  atomic_write_file(dir / kIndexFileName, content.data(), content.size());
}

std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << std::hex << static_cast<int>(c) << std::dec;
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

}  // namespace

std::string_view scrub_defect_name(ScrubDefect d) {
  switch (d) {
    case ScrubDefect::MissingNodeDir: return "missing_node_dir";
    case ScrubDefect::MissingIndex: return "missing_index";
    case ScrubDefect::IndexEntryMissing: return "index_entry_missing";
    case ScrubDefect::MissingCopy: return "missing_copy";
    case ScrubDefect::SizeMismatch: return "size_mismatch";
    case ScrubDefect::ChecksumMismatch: return "checksum_mismatch";
    case ScrubDefect::DivergentCopies: return "divergent_copies";
  }
  return "?";
}

std::string ScrubReport::summary() const {
  std::ostringstream os;
  os << slices_checked << " slices checked, " << copies_verified << '/' << copies_expected
     << " copies verified";
  if (copies_unverified > 0) os << ", " << copies_unverified << " without checksum";
  os << ", " << findings.size() << (findings.size() == 1 ? " defect" : " defects");
  for (const ScrubFinding& f : findings) {
    os << "\n  " << scrub_defect_name(f.kind);
    if (f.t >= 0) os << " slice (t=" << f.t << ", z=" << f.z << ")";
    if (f.node >= 0) os << " node " << f.node;
    if (f.rank >= 0) os << " rank " << f.rank;
    if (!f.detail.empty()) os << ": " << f.detail;
  }
  return os.str();
}

void ScrubReport::write_json(std::ostream& os) const {
  os << "{\n"
     << "  \"schema\": \"h4d-scrub-v1\",\n"
     << "  \"slices_checked\": " << slices_checked << ",\n"
     << "  \"copies_expected\": " << copies_expected << ",\n"
     << "  \"copies_verified\": " << copies_verified << ",\n"
     << "  \"copies_unverified\": " << copies_unverified << ",\n"
     << "  \"clean\": " << (clean() ? "true" : "false") << ",\n"
     << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const ScrubFinding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"kind\": \"" << scrub_defect_name(f.kind)
       << "\", \"t\": " << f.t << ", \"z\": " << f.z << ", \"node\": " << f.node
       << ", \"rank\": " << f.rank << ", \"detail\": \"" << json_escape(f.detail)
       << "\"}";
  }
  os << (findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

ScrubReport scrub_dataset(const std::filesystem::path& root) {
  const DatasetMeta meta = DatasetMeta::load(root);
  const std::vector<NodeState> nodes = load_nodes(root, meta);
  const std::int64_t slice_bytes = meta.slice_bytes();

  ScrubReport report;
  for (int n = 0; n < meta.storage_nodes; ++n) {
    const NodeState& state = nodes[static_cast<std::size_t>(n)];
    if (!state.dir_exists) {
      report.findings.push_back({-1, -1, n, -1, ScrubDefect::MissingNodeDir,
                                 (root / node_dir_name(n)).string()});
    } else if (!state.index_exists) {
      report.findings.push_back({-1, -1, n, -1, ScrubDefect::MissingIndex,
                                 (root / node_dir_name(n) / kIndexFileName).string()});
    }
  }

  for (std::int64_t t = 0; t < meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < meta.dims[2]; ++z) {
      ++report.slices_checked;
      // A CRC recorded by any replica's index arbitrates for all copies.
      std::optional<std::uint32_t> indexed_crc;
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const NodeState& state =
            nodes[static_cast<std::size_t>(meta.replica_node(z, t, rank))];
        const auto it = state.entries.find({t, z});
        if (it != state.entries.end() && it->second.has_crc) {
          indexed_crc = it->second.crc;
          break;
        }
      }

      std::vector<std::uint32_t> unarbitrated_crcs;
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const int node = meta.replica_node(z, t, rank);
        const NodeState& state = nodes[static_cast<std::size_t>(node)];
        ++report.copies_expected;
        if (!state.dir_exists) continue;  // covered by the node-level finding
        const auto it = state.entries.find({t, z});
        if (state.index_exists && it == state.entries.end()) {
          report.findings.push_back(
              {t, z, node, rank, ScrubDefect::IndexEntryMissing, ""});
        }
        const std::string filename =
            it != state.entries.end() ? it->second.filename : slice_filename(t, z);
        const std::filesystem::path path = root / node_dir_name(node) / filename;
        std::int64_t size = -1;
        const auto bytes = read_copy(path, slice_bytes, size);
        if (!bytes) {
          if (size < 0) {
            report.findings.push_back(
                {t, z, node, rank, ScrubDefect::MissingCopy, path.string()});
          } else {
            report.findings.push_back({t, z, node, rank, ScrubDefect::SizeMismatch,
                                       path.string() + ": " + std::to_string(size) +
                                           " bytes, expected " +
                                           std::to_string(slice_bytes)});
          }
          continue;
        }
        const std::uint32_t actual = crc32(bytes->data(), bytes->size());
        const std::optional<std::uint32_t> expected =
            it != state.entries.end() && it->second.has_crc
                ? std::optional<std::uint32_t>(it->second.crc)
                : indexed_crc;
        if (expected) {
          if (actual == *expected) {
            ++report.copies_verified;
          } else {
            report.findings.push_back({t, z, node, rank, ScrubDefect::ChecksumMismatch,
                                       path.string() + ": crc32 " + crc_hex(actual) +
                                           ", index records " + crc_hex(*expected)});
          }
        } else {
          ++report.copies_unverified;
          unarbitrated_crcs.push_back(actual);
        }
      }
      // No index CRC anywhere: the copies can still convict each other.
      if (!indexed_crc && !unarbitrated_crcs.empty() &&
          !std::all_of(unarbitrated_crcs.begin(), unarbitrated_crcs.end(),
                       [&](std::uint32_t c) { return c == unarbitrated_crcs.front(); })) {
        report.findings.push_back({t, z, -1, -1, ScrubDefect::DivergentCopies,
                                   "replica copies disagree and no index checksum "
                                   "arbitrates"});
      }
    }
  }
  return report;
}

std::string RepairReport::summary() const {
  std::ostringstream os;
  os << copies_recloned << " copies re-cloned, " << indexes_rebuilt
     << " indexes rebuilt, " << unrepairable.size() << " unrepairable";
  for (const ScrubFinding& f : unrepairable) {
    os << "\n  unrepairable slice (t=" << f.t << ", z=" << f.z << "): " << f.detail;
  }
  return os.str();
}

RepairReport repair_dataset(const std::filesystem::path& root) {
  const DatasetMeta meta = DatasetMeta::load(root);
  const std::vector<NodeState> nodes = load_nodes(root, meta);
  const std::int64_t slice_bytes = meta.slice_bytes();

  RepairReport report;
  std::vector<std::map<SliceKey, IndexEntry>> final_entries(
      static_cast<std::size_t>(meta.storage_nodes));
  std::vector<bool> dirty(static_cast<std::size_t>(meta.storage_nodes), false);
  for (int n = 0; n < meta.storage_nodes; ++n) {
    final_entries[static_cast<std::size_t>(n)] = nodes[static_cast<std::size_t>(n)].entries;
    // A lost directory or index is rewritten even if no entry changes below.
    if (!nodes[static_cast<std::size_t>(n)].dir_exists ||
        !nodes[static_cast<std::size_t>(n)].index_exists) {
      dirty[static_cast<std::size_t>(n)] = true;
    }
  }

  for (std::int64_t t = 0; t < meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < meta.dims[2]; ++z) {
      struct Copy {
        int node = -1;
        const IndexEntry* entry = nullptr;
        std::optional<std::vector<std::uint8_t>> bytes;
        std::uint32_t crc = 0;
      };
      std::vector<Copy> copies(static_cast<std::size_t>(meta.replica_count()));
      std::optional<std::uint32_t> indexed_crc;
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        Copy& c = copies[static_cast<std::size_t>(rank)];
        c.node = meta.replica_node(z, t, rank);
        const NodeState& state = nodes[static_cast<std::size_t>(c.node)];
        const auto it = state.entries.find({t, z});
        if (it != state.entries.end()) {
          c.entry = &it->second;
          if (c.entry->has_crc && !indexed_crc) indexed_crc = c.entry->crc;
        }
        const std::string filename = c.entry ? c.entry->filename : slice_filename(t, z);
        std::int64_t size = -1;
        c.bytes = read_copy(root / node_dir_name(c.node) / filename, slice_bytes, size);
        if (c.bytes) c.crc = crc32(c.bytes->data(), c.bytes->size());
      }

      // Pick the authoritative copy: the one matching an index CRC when any
      // index records one (a non-matching set means the data is gone — never
      // launder a corrupt copy by rewriting the index around it); otherwise
      // the majority of the surviving full-size copies, lowest rank on ties.
      const Copy* good = nullptr;
      if (indexed_crc) {
        for (const Copy& c : copies) {
          if (c.bytes && c.crc == *indexed_crc) {
            good = &c;
            break;
          }
        }
      } else {
        std::map<std::uint32_t, int> votes;
        for (const Copy& c : copies) {
          if (c.bytes) ++votes[c.crc];
        }
        int best = 0;
        for (const auto& [crc, n] : votes) best = std::max(best, n);
        for (const Copy& c : copies) {
          if (c.bytes && votes[c.crc] == best) {
            good = &c;
            break;
          }
        }
      }
      if (!good) {
        report.unrepairable.push_back(
            {t, z, -1, -1, ScrubDefect::MissingCopy,
             indexed_crc ? "no surviving copy matches the indexed crc32 " +
                               crc_hex(*indexed_crc)
                         : "no surviving full-size copy on any replica node"});
        continue;
      }

      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        Copy& c = copies[static_cast<std::size_t>(rank)];
        bool recloned = false;
        if (!c.bytes || c.crc != good->crc) {
          const std::filesystem::path dir = root / node_dir_name(c.node);
          std::filesystem::create_directories(dir);
          atomic_write_file(dir / slice_filename(t, z), good->bytes->data(),
                            good->bytes->size());
          ++report.copies_recloned;
          recloned = true;
        }
        // The entry stays untouched when it already describes the good copy
        // (including pre-checksum entries — backfilling is add_checksums'
        // job); anything re-cloned or misdescribed gets a fresh CRC'd entry.
        const bool entry_ok = c.entry && !recloned &&
                              (!c.entry->has_crc || c.entry->crc == good->crc);
        if (!entry_ok) {
          final_entries[static_cast<std::size_t>(c.node)][{t, z}] =
              IndexEntry{slice_filename(t, z), good->crc, true};
          dirty[static_cast<std::size_t>(c.node)] = true;
        }
      }
    }
  }

  for (int n = 0; n < meta.storage_nodes; ++n) {
    if (!dirty[static_cast<std::size_t>(n)]) continue;
    write_index(root, n, render_index(meta, n, final_entries[static_cast<std::size_t>(n)]));
    ++report.indexes_rebuilt;
  }
  return report;
}

std::string ChecksumMigrationReport::summary() const {
  std::ostringstream os;
  os << entries_backfilled << " index entries backfilled, " << slices_divergent
     << " divergent slices skipped";
  return os.str();
}

ChecksumMigrationReport add_checksums(const std::filesystem::path& root) {
  const DatasetMeta meta = DatasetMeta::load(root);
  const std::vector<NodeState> nodes = load_nodes(root, meta);
  const std::int64_t slice_bytes = meta.slice_bytes();

  ChecksumMigrationReport report;
  std::vector<std::map<SliceKey, IndexEntry>> final_entries(
      static_cast<std::size_t>(meta.storage_nodes));
  std::vector<bool> dirty(static_cast<std::size_t>(meta.storage_nodes), false);
  for (int n = 0; n < meta.storage_nodes; ++n) {
    final_entries[static_cast<std::size_t>(n)] = nodes[static_cast<std::size_t>(n)].entries;
  }

  for (std::int64_t t = 0; t < meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < meta.dims[2]; ++z) {
      bool any_missing_crc = false;
      std::optional<std::uint32_t> indexed_crc;
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const NodeState& state =
            nodes[static_cast<std::size_t>(meta.replica_node(z, t, rank))];
        const auto it = state.entries.find({t, z});
        if (it == state.entries.end()) continue;
        if (it->second.has_crc) {
          if (!indexed_crc) indexed_crc = it->second.crc;
        } else {
          any_missing_crc = true;
        }
      }
      if (!any_missing_crc) continue;

      // Only backfill a CRC every surviving copy vouches for: all replica
      // copies must be whole and agree (and match any already-indexed CRC) —
      // a damaged copy cannot launder its own bytes into the index.
      std::optional<std::uint32_t> agreed;
      bool divergent = false;
      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const int node = meta.replica_node(z, t, rank);
        const NodeState& state = nodes[static_cast<std::size_t>(node)];
        const auto it = state.entries.find({t, z});
        const std::string filename =
            it != state.entries.end() ? it->second.filename : slice_filename(t, z);
        std::int64_t size = -1;
        const auto bytes =
            read_copy(root / node_dir_name(node) / filename, slice_bytes, size);
        if (!bytes) {
          divergent = true;  // missing/truncated copy: repair first
          break;
        }
        const std::uint32_t crc = crc32(bytes->data(), bytes->size());
        if (!agreed) {
          agreed = crc;
        } else if (*agreed != crc) {
          divergent = true;
          break;
        }
      }
      if (divergent || !agreed || (indexed_crc && *indexed_crc != *agreed)) {
        ++report.slices_divergent;
        continue;
      }

      for (int rank = 0; rank < meta.replica_count(); ++rank) {
        const int node = meta.replica_node(z, t, rank);
        const NodeState& state = nodes[static_cast<std::size_t>(node)];
        const auto it = state.entries.find({t, z});
        if (it == state.entries.end() || it->second.has_crc) continue;
        IndexEntry e = it->second;
        e.crc = *agreed;
        e.has_crc = true;
        final_entries[static_cast<std::size_t>(node)][{t, z}] = std::move(e);
        dirty[static_cast<std::size_t>(node)] = true;
        ++report.entries_backfilled;
      }
    }
  }

  for (int n = 0; n < meta.storage_nodes; ++n) {
    if (!dirty[static_cast<std::size_t>(n)]) continue;
    write_index(root, n, render_index(meta, n, final_entries[static_cast<std::size_t>(n)]));
  }
  return report;
}

}  // namespace h4d::io
