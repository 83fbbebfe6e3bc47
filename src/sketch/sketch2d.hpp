// Two-dimensional k-ary sketch (the paper's Sec. 4 contribution).
//
// Motivation: after reverse inference names an anomalous {SIP,DIP} pair, is
// it a SYN flood (un-responded SYNs concentrated on 1-2 destination ports) or
// a vertical scan (spread over many ports)? A 1D sketch cannot answer — it
// aggregated the ports away. The 2D sketch keeps H independent Kx-by-Ky
// matrices: the x-hash of the primary key selects a column, the y-hash of the
// secondary key a row. UPDATE touches one cell per matrix (5 memory accesses
// for H = 5 — paper Sec. 5.5.2). Classification reads the column selected by
// the primary key and tests how concentrated its mass is: if the top-p cells
// hold more than a fraction phi of the column total in a majority of the H
// matrices, the secondary dimension is concentrated (flooding-like);
// otherwise it is spread (scan-like).
//
// HiFIND instantiates two of these: {SIP,DIP} x {Dport} to split vertical
// scans from non-spoofed floods, and {SIP,Dport} x {DIP} to split horizontal
// scans from floods. Linearity (COMBINE) holds exactly as for 1D sketches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/mem_policy.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

struct SketchKernelAccess;

/// Shape parameters of a 2D sketch.
struct Sketch2dConfig {
  std::size_t num_stages{5};     ///< H (paper: 5)
  std::size_t x_buckets{1u << 12};  ///< Kx: columns (paper: 2^12)
  std::size_t y_buckets{64};     ///< Ky: rows per column (paper: 64)
  std::uint64_t seed{1};

  bool operator==(const Sketch2dConfig&) const = default;
};

/// Verdict of the column-concentration test.
enum class ColumnShape : std::uint8_t {
  kConcentrated,  ///< mass on few rows — flooding-like
  kSpread,        ///< mass across many rows — scan-like
};

class TwoDSketch {
 public:
  explicit TwoDSketch(const Sketch2dConfig& config);

  /// Adds `delta` at (x_key, y_key): one cell per matrix.
  void update(std::uint64_t x_key, std::uint64_t y_key, double delta);

  /// Applies a block of updates: hashes every operand's cell indices first
  /// (prefetching the cell lines), then applies the deltas. Bit-identical to
  /// calling update() per operand in order.
  void update_batch(std::span<const KeyDelta2d> ops);

  /// The column selected by x_key in one matrix: Ky cell values.
  std::vector<double> column(std::size_t stage, std::uint64_t x_key) const;

  /// Concentration test for one matrix: sum of the largest `top_p` cells
  /// exceeds `phi` times the column total. Columns with non-positive total
  /// (no un-responded-SYN mass) report kSpread.
  ColumnShape classify_column(std::size_t stage, std::uint64_t x_key,
                              std::size_t top_p, double phi) const;

  /// Majority vote of classify_column over all H matrices.
  /// Paper defaults: top_p = 5 of Ky = 64, phi = 0.8.
  ColumnShape classify(std::uint64_t x_key, std::size_t top_p = 5,
                       double phi = 0.8) const;

  /// Estimated number of distinct active rows in the column (cells holding a
  /// meaningful positive share); an observable proxy for "how many ports did
  /// this source touch", used by the Figure 4 reproduction.
  std::size_t active_rows(std::uint64_t x_key, double min_cell) const;

  bool combinable_with(const TwoDSketch& other) const {
    return config_ == other.config_;
  }

  /// this += coeff * other. Throws std::invalid_argument on shape mismatch.
  void accumulate(const TwoDSketch& other, double coeff = 1.0);

  void scale(double coeff);
  void clear();

  static TwoDSketch combine(
      std::span<const std::pair<double, const TwoDSketch*>> terms);

  /// Destination-reuse COMBINE: this = sum ci*Si in place — no sketch
  /// construction, no allocation. `this` may appear only as the FIRST term;
  /// every term must be combinable_with(*this). Hot at interval seal, where
  /// the sharded recorder reduces per-core shard replicas.
  void combine_into(
      std::span<const std::pair<double, const TwoDSketch*>> terms);

  const Sketch2dConfig& config() const { return config_; }
  std::span<const double> cells() const { return cells_; }

  /// Deserialization support: replaces the cell array.
  /// Throws std::invalid_argument on size mismatch.
  void load_cells(std::span<const double> cells);
  std::size_t memory_bytes() const { return cells_.size() * sizeof(double); }
  std::size_t memory_bytes_hw() const {
    return cells_.size() * sizeof(std::uint32_t);
  }
  std::size_t accesses_per_update() const { return config_.num_stages; }
  std::uint64_t update_count() const { return update_count_; }

 private:
  friend struct SketchKernelAccess;  // fused kernels (sketch_kernels.hpp)

  std::size_t cell_index(std::size_t stage, std::uint64_t x_key,
                         std::uint64_t y_key) const {
    // Hashes carry their bucket counts (power-of-two fast path applies).
    const std::size_t col = x_hashes_[stage].bucket(x_key);
    const std::size_t row = y_hashes_[stage].bucket(y_key);
    return (stage * config_.x_buckets + col) * config_.y_buckets + row;
  }

  Sketch2dConfig config_;
  std::vector<TabulationHash> x_hashes_;
  std::vector<TabulationHash> y_hashes_;
  mem::CounterVec cells_;  // stage-major, then column-major
  std::uint64_t update_count_{0};
};

}  // namespace hifind
