#include "sketch/sketch2d.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {

TwoDSketch::TwoDSketch(const Sketch2dConfig& config) : config_(config) {
  if (config_.num_stages == 0 || config_.x_buckets < 2 ||
      config_.y_buckets < 2) {
    throw std::invalid_argument(
        "TwoDSketch needs >=1 stage and >=2 buckets per dimension");
  }
  x_hashes_.reserve(config_.num_stages);
  y_hashes_.reserve(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    x_hashes_.emplace_back(mix64(config_.seed) ^ mix64(0x1000 + h),
                           config_.x_buckets);
    y_hashes_.emplace_back(mix64(config_.seed) ^ mix64(0x2000 + h),
                           config_.y_buckets);
  }
  cells_.assign(config_.num_stages * config_.x_buckets * config_.y_buckets,
                0.0);
}

void TwoDSketch::update(std::uint64_t x_key, std::uint64_t y_key,
                        double delta) {
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    cells_[cell_index(h, x_key, y_key)] += delta;
  }
  ++update_count_;
}

void TwoDSketch::update_batch(std::span<const KeyDelta2d> ops) {
  constexpr std::size_t kMaxStagesVec = 16;
  const std::size_t H = config_.num_stages;
  if (H > kMaxStagesVec ||
      cells_.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Shapes the u32 flat-index chunk cannot hold; none is configured.
    for (const auto& op : ops) update(op.x_key, op.y_key, op.delta);
    return;
  }
  // Vectorized cell-index precomputation: one tab_hash64 pass per stage per
  // dimension, then the fold pair is combined into the flat cell index with a
  // write-prefetch issued as each index lands — the rest of the index pass
  // overlaps the cell-line misses. The apply loop adds deltas in scalar
  // per-op, per-stage order — bit-identical to update() per operand. A short
  // chunk keeps the prefetch-to-use distance inside what the miss buffers
  // can hold (a 256-op chunk would issue 1280 hints and drop most of them).
  constexpr std::size_t kChunk = 32;
  const std::size_t Kx = config_.x_buckets;
  const std::size_t Ky = config_.y_buckets;
  std::uint64_t xkeys[kChunk];
  std::uint64_t ykeys[kChunk];
  std::uint64_t xh[kChunk];
  std::uint64_t yh[kChunk];
  std::uint32_t idx[kChunk * kMaxStagesVec];
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      xkeys[j] = ops[base + j].x_key;
      ykeys[j] = ops[base + j].y_key;
    }
    for (std::size_t h = 0; h < H; ++h) {
      const TabulationHash& thx = x_hashes_[h];
      const TabulationHash& thy = y_hashes_[h];
      simd::tab_hash64(xkeys, n, thx.table_data(), 8, xh);
      simd::tab_hash64(ykeys, n, thy.table_data(), 8, yh);
      const std::size_t stage_off = h * Kx;
      for (std::size_t j = 0; j < n; ++j) {
        const auto i = static_cast<std::uint32_t>(
            (stage_off + thx.fold(xh[j])) * Ky + thy.fold(yh[j]));
        idx[j * H + h] = i;
        prefetch_write(&cells_[i]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double delta = ops[base + j].delta;
      for (std::size_t h = 0; h < H; ++h) {
        cells_[idx[j * H + h]] += delta;
      }
    }
    update_count_ += n;
  }
}

std::vector<double> TwoDSketch::column(std::size_t stage,
                                       std::uint64_t x_key) const {
  const std::size_t col = x_hashes_[stage].bucket(x_key, config_.x_buckets);
  const std::size_t base =
      (stage * config_.x_buckets + col) * config_.y_buckets;
  return {cells_.begin() + static_cast<std::ptrdiff_t>(base),
          cells_.begin() + static_cast<std::ptrdiff_t>(base +
                                                       config_.y_buckets)};
}

ColumnShape TwoDSketch::classify_column(std::size_t stage,
                                        std::uint64_t x_key,
                                        std::size_t top_p, double phi) const {
  std::vector<double> cells = column(stage, x_key);
  // Negative cells (more SYN/ACKs than SYNs from colliding benign flows)
  // carry no attack mass; clamp so they cannot inflate the "spread" verdict.
  double total = 0.0;
  for (auto& c : cells) {
    c = std::max(c, 0.0);
    total += c;
  }
  if (total <= 0.0) return ColumnShape::kSpread;
  top_p = std::min(top_p, cells.size());
  std::partial_sort(cells.begin(),
                    cells.begin() + static_cast<std::ptrdiff_t>(top_p),
                    cells.end(), std::greater<>());
  const double top_sum = std::accumulate(
      cells.begin(), cells.begin() + static_cast<std::ptrdiff_t>(top_p), 0.0);
  return top_sum > phi * total ? ColumnShape::kConcentrated
                               : ColumnShape::kSpread;
}

ColumnShape TwoDSketch::classify(std::uint64_t x_key, std::size_t top_p,
                                 double phi) const {
  std::size_t concentrated = 0;
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    if (classify_column(h, x_key, top_p, phi) == ColumnShape::kConcentrated) {
      ++concentrated;
    }
  }
  return concentrated * 2 > config_.num_stages ? ColumnShape::kConcentrated
                                               : ColumnShape::kSpread;
}

std::size_t TwoDSketch::active_rows(std::uint64_t x_key,
                                    double min_cell) const {
  // Median across stages of the per-stage active-cell count; the median
  // suppresses collision inflation from any single matrix.
  std::vector<std::size_t> counts(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    const auto cells = column(h, x_key);
    counts[h] = static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(),
                      [min_cell](double c) { return c >= min_cell; }));
  }
  std::nth_element(counts.begin(), counts.begin() + counts.size() / 2,
                   counts.end());
  return counts[counts.size() / 2];
}

void TwoDSketch::accumulate(const TwoDSketch& other, double coeff) {
  if (!combinable_with(other)) {
    throw std::invalid_argument(
        "TwoDSketch::accumulate: sketches have different shape or seed");
  }
  simd::accumulate(cells_.data(), other.cells_.data(), cells_.size(), coeff);
}

void TwoDSketch::scale(double coeff) {
  simd::scale(cells_.data(), cells_.size(), coeff);
}

void TwoDSketch::clear() {
  std::fill(cells_.begin(), cells_.end(), 0.0);
  update_count_ = 0;
}

void TwoDSketch::load_cells(std::span<const double> cells) {
  if (cells.size() != cells_.size()) {
    throw std::invalid_argument("TwoDSketch::load_cells: size mismatch");
  }
  std::copy(cells.begin(), cells.end(), cells_.begin());
}

TwoDSketch TwoDSketch::combine(
    std::span<const std::pair<double, const TwoDSketch*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("TwoDSketch::combine: no terms");
  }
  TwoDSketch out(terms.front().second->config());
  out.combine_into(terms);
  return out;
}

void TwoDSketch::combine_into(
    std::span<const std::pair<double, const TwoDSketch*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("TwoDSketch::combine_into: no terms");
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!combinable_with(*terms[i].second)) {
      throw std::invalid_argument(
          "TwoDSketch::combine_into: sketches have different shape or seed");
    }
    if (i > 0 && terms[i].second == this) {
      throw std::invalid_argument(
          "TwoDSketch::combine_into: destination may only alias term 0");
    }
  }
  std::uint64_t updates = 0;
  for (const auto& [coeff, sketch] : terms) {
    (void)coeff;
    updates += sketch->update_count_;
  }
  // First term assigns (y = 0*y + c*x is exact and alias-safe for finite
  // cells), the rest accumulate — one pass per term over the reused array.
  simd::axpby(cells_.data(), terms[0].second->cells_.data(), cells_.size(),
              0.0, terms[0].first);
  for (const auto& [coeff, sketch] : terms.subspan(1)) {
    simd::accumulate(cells_.data(), sketch->cells_.data(), cells_.size(),
                     coeff);
  }
  update_count_ = updates;
}

}  // namespace hifind
