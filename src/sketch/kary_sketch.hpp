// k-ary sketch (Krishnamurthy, Sen, Zhang, Chen — IMC 2003).
//
// A k-ary sketch is H independent hash tables ("stages") of K counters each.
// UPDATE adds a signed value to one counter per stage; ESTIMATE reconstructs a
// key's aggregate with the mean-corrected median estimator; COMBINE takes
// linear combinations of same-shaped sketches (the property that lets HiFIND
// aggregate sketches across routers and run EWMA forecasting directly in
// sketch space). This class is also used as the "original sketch" (OS) and as
// the verification sketch that screens reversible-sketch inference output.
//
// Counters are doubles: recording sketches hold exact integers (all counts
// are far below 2^53) and forecast/error sketches hold fractional EWMA state,
// so one representation serves the whole pipeline, keeping COMBINE closed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/mem_policy.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

struct SketchKernelAccess;

/// Shape parameters of a k-ary sketch.
struct KarySketchConfig {
  std::size_t num_stages{6};    ///< H: independent hash tables (paper: 6)
  std::size_t num_buckets{1u << 14};  ///< K: counters per stage (paper OS: 2^14)
  std::uint64_t seed{1};        ///< hash-family seed; equal seeds => combinable

  bool operator==(const KarySketchConfig&) const = default;
};

class KarySketch {
 public:
  explicit KarySketch(const KarySketchConfig& config);

  /// Adds `delta` to the key's counter in every stage. O(H).
  void update(std::uint64_t key, double delta);

  /// Applies a block of updates: update() per operand, in order. Every
  /// configured k-ary shape is cache-resident, where staging indices with
  /// prefetches (as the reversible and 2D sketches do) loses to this plain
  /// loop; the batch entry point keeps one interface across sketch types.
  void update_batch(std::span<const KeyDelta> ops);

  /// Mean-corrected median estimate of the key's aggregate value:
  /// per stage, (bucket − sum/K) / (1 − 1/K); the median over stages.
  /// Unbiased and sharply concentrated when K >> number of heavy keys.
  double estimate(std::uint64_t key) const;

  /// Raw per-stage bucket values for a key (diagnostics, tests).
  std::vector<double> stage_values(std::uint64_t key) const;

  /// True if `other` was built with the same config (shape AND seed), which
  /// is the precondition for linear combination.
  bool combinable_with(const KarySketch& other) const {
    return config_ == other.config_;
  }

  /// In-place linear accumulate: this += coeff * other.
  /// Throws std::invalid_argument if shapes/seeds differ.
  void accumulate(const KarySketch& other, double coeff = 1.0);

  /// this *= coeff (used by forecasting).
  void scale(double coeff);

  /// Resets all counters to zero, keeping the hash family.
  void clear();

  /// COMBINE(c1,S1,...,cn,Sn) = sum ci*Si as a new sketch.
  static KarySketch combine(
      std::span<const std::pair<double, const KarySketch*>> terms);

  /// Destination-reuse COMBINE: this = sum ci*Si, overwriting this sketch's
  /// counters in place — no sketch construction, no allocation. `this` may
  /// itself appear as the FIRST term (the in-place reduction case); any
  /// later term must be a distinct sketch. Every term must be
  /// combinable_with(*this). The seal-time shard merge of the sharded
  /// recording pipeline runs on this path so an interval close constructs
  /// nothing.
  void combine_into(
      std::span<const std::pair<double, const KarySketch*>> terms);

  const KarySketchConfig& config() const { return config_; }
  std::size_t num_stages() const { return config_.num_stages; }
  std::size_t num_buckets() const { return config_.num_buckets; }

  /// Flat counter storage (stage-major), exposed read-only for tests and
  /// serialization. Mutation goes through update/accumulate/scale so the
  /// cached stage sums stay consistent.
  std::span<const double> counters() const { return counters_; }

  /// Deserialization support: replaces the counter array (stage sums are
  /// recomputed). Throws std::invalid_argument on size mismatch.
  void load_counters(std::span<const double> counters);

  /// Total of one stage's counters, maintained incrementally so ESTIMATE is
  /// O(H) rather than O(H*K).
  double stage_sum(std::size_t stage) const { return stage_sums_[stage]; }

  /// Counter memory in bytes (the recording-path footprint).
  std::size_t memory_bytes() const { return counters_.size() * sizeof(double); }

  /// Counter memory if realized with the paper's 32-bit hardware counters.
  std::size_t memory_bytes_hw() const {
    return counters_.size() * sizeof(std::uint32_t);
  }

  /// Memory accesses (counter reads+writes) a single update performs: H.
  std::size_t accesses_per_update() const { return config_.num_stages; }

  /// Cumulative number of update() calls (throughput accounting).
  std::uint64_t update_count() const { return update_count_; }

 private:
  friend struct SketchKernelAccess;  // fused kernels (sketch_kernels.hpp)

  std::size_t bucket_index(std::size_t stage, std::uint64_t key) const {
    // Stage hashes are constructed with the bucket count, so this dispatches
    // to the power-of-two shift fast path for every standard config.
    return stage * config_.num_buckets + hashes_[stage].bucket(key);
  }

  KarySketchConfig config_;
  std::vector<TabulationHash> hashes_;  // one per stage
  mem::CounterVec counters_;            // stage-major, H*K
  std::vector<double> stage_sums_;      // cached sum per stage
  std::uint64_t update_count_{0};
};

}  // namespace hifind
