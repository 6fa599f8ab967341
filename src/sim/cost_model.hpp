// Converts measured work (WorkMeter deltas) into virtual execution time on a
// reference node.
//
// All constants are seconds-per-operation on a speed-1.0 node (the paper's
// ~900 MHz Pentium III with 2004-era disk, memory and TCP/IP stack). They
// were calibrated so the relative filter costs the paper reports hold:
//   * HCC (co-occurrence construction) ~4-5x the cost of HPC (features)
//     for the paper's four evaluation features at Ng=32 (Sec. 5.2);
//   * sparse representation adds compression overhead that outweighs its
//     savings when no communication is involved (Fig. 7a) but wins once
//     matrices travel on streams (Fig. 7b);
//   * per-message CPU overheads make a single IIC copy the bottleneck at
//     ~16 texture nodes (Fig. 9).
// Absolute values are *model parameters*, not measurements of this host.
#pragma once

#include <cstdint>

#include "fs/buffer.hpp"
#include "fs/meter.hpp"

namespace h4d::sim {

struct CostModel {
  // Texture math (a ~900 MHz PIII runs the cache-unfriendly co-occurrence
  // update in a few tens of cycles).
  double glcm_update = 30e-9;           ///< one co-occurrence cell increment
  double feature_cell_scan = 8e-9;      ///< visiting one dense matrix cell
  double feature_cell_op = 20e-9;       ///< one per-cell multiply-accumulate
  double sparse_entry = 50e-9;          ///< building/accessing one sparse entry
  double sparse_compress_cell = 8e-9;   ///< scan+test+append when compressing
  double matrix_overhead = 5e-6;        ///< fixed per-matrix handling cost

  // Memory, requantization and the IIC's chunk reorganization. The stitch
  // constant is deliberately large: it stands for the measured per-element
  // cost of DataCutter's input stitching on the PIII testbed (TCP receive
  // processing, buffer management and strided multi-dimensional copies),
  // calibrated so a single IIC copy saturates at ~16 texture nodes (Fig. 9).
  double memcpy_byte = 2e-9;
  double stitch_element = 600e-9;
  double quantize_element = 20e-9;

  // Disk (2004 IDE-class).
  double disk_seek = 8e-3;
  double disk_read_byte = 1.0 / (25e6);   ///< 25 MB/s
  double disk_write_byte = 1.0 / (25e6);

  // Messaging CPU cost (TCP/IP stack, buffer management). Charged on the
  // CPU of the endpoint, on top of wire time.
  double msg_overhead_send = 60e-6;
  double msg_overhead_recv = 120e-6;
  double cpu_byte_send = 3e-9;    ///< user->kernel copy etc.
  double cpu_byte_recv = 10e-9;

  // The paper's texture -> output stream (Sec. 4.3.3) carries each feature
  // value with its ROI position, a 20-byte (x, y, z, t, value) record, in
  // messages of up to kFeatureRecordsPerMessage records. The filters here
  // ship a whole run of values as one FeatureValues block of 4 bytes per
  // value; the simulator sends a block as that many messages and charges
  // each at the paper's record size, so the simulated figures time the
  // paper's stream.
  static constexpr std::int64_t kFeatureRecordBytes = 20;
  static constexpr std::int64_t kFeatureRecordsPerMessage = 1024;

  /// Bytes one remote send of `b` puts on the wire: its wire_bytes(), or,
  /// for a FeatureValues block, the header and one record per value.
  std::size_t wire_bytes(const fs::DataBuffer& b) const {
    if (b.header.kind != fs::BufferKind::FeatureValues) return b.wire_bytes();
    return sizeof(fs::BufferHeader) +
           static_cast<std::size_t>(fs::feature_block_size(b) * kFeatureRecordBytes);
  }

  /// CPU seconds for a work delta on a speed-1 node, excluding messaging.
  double compute_seconds(const fs::WorkMeter& d) const {
    const auto& w = d.work;
    double s = 0.0;
    s += static_cast<double>(w.glcm_pair_updates) * glcm_update;
    s += static_cast<double>(w.feature_cells_scanned) * feature_cell_scan;
    s += static_cast<double>(w.feature_cell_ops) * feature_cell_op;
    s += static_cast<double>(w.sparse_entries_emitted) * sparse_entry;
    s += static_cast<double>(w.sparse_compress_cells) * sparse_compress_cell;
    s += static_cast<double>(w.matrices_built) * matrix_overhead;
    s += static_cast<double>(d.bytes_memcpy) * memcpy_byte;
    s += static_cast<double>(d.stitch_elements) * stitch_element;
    s += static_cast<double>(d.elements_quantized) * quantize_element;
    s += static_cast<double>(d.disk_seeks) * disk_seek;
    s += static_cast<double>(d.disk_bytes_read) * disk_read_byte;
    s += static_cast<double>(d.disk_bytes_written) * disk_write_byte;
    return s;
  }

  /// CPU seconds to hand one outgoing message of `bytes` to the stack.
  double send_cpu_seconds(std::size_t bytes) const {
    return msg_overhead_send + static_cast<double>(bytes) * cpu_byte_send;
  }
  /// CPU seconds to receive one incoming message of `bytes`.
  double recv_cpu_seconds(std::size_t bytes) const {
    return msg_overhead_recv + static_cast<double>(bytes) * cpu_byte_recv;
  }
};

}  // namespace h4d::sim
