// Compact invertible sketch (Tang/Huang/Lee-style, arXiv:1910.10441):
// UPDATE/ESTIMATE/COMBINE with O(1)-per-bucket REVERSE.
//
// The reversible sketch (reversible_sketch.hpp) buys invertibility with
// modular hashing and pays for it at detection time: reversing a heavy
// interval is a DFS over per-word candidate sets whose cost grows with the
// number of concurrent anomalies (cross-product "near collisions" included).
// The compact invertible sketch instead EMBEDS the key material in the
// bucket itself: alongside each bucket's value counter it keeps one counter
// per key bit, and every update adds its delta to the value counter and to
// the counters of the key's set bits. Extraction is then direct — for a
// heavy bucket, bit b of the dominant key is 1 iff bitsum[b] > value/2
// (majority decode) — O(key_bits) per heavy bucket, no candidate sweep, no
// cross-product, no per-stage intersection search.
//
// One deliberate deviation from the literal paper structure: Tang et al.'s
// bucket cells carry a majority-vote <key, count> pair whose final state
// depends on update ORDER and whose merge is lossy. This repo's shard merge
// and multi-router aggregation contracts require exact COMBINE linearity
// (bit-identical serial-vs-sharded alerts, PR 5), so we use the linear
// group-testing (Deltoid/CountSketch-style) form of the same idea: every
// per-bucket counter is a plain linear accumulator, so the whole sketch is
// one flat double array and COMBINE/scale/accumulate are exact whole-array
// linear algebra — order-independent, shard-mergeable, forecastable with the
// fused kernels. Decode stays O(key_bits) per bucket.
//
// Layout (one flat array, stage-major):
//   [0, H*K)                     value counters (the "collect region" the
//                                fused forecaster kernels threshold-scan)
//   [H*K, H*K*(1+key_bits))      bit counters, bucket-major: bucket (h, i)
//                                owns the key_bits-long run starting at
//                                H*K + (h*K + i)*key_bits
// stage_sums_ caches the per-stage sums of the VALUE region only — exactly
// the quantity the k-ary mean-corrected estimator and the heavy-bucket cut
// need. Bit counters roll along under the same whole-array kernels (they are
// linear in the same updates), so forecast-error sketches decode the same
// way observation sketches do.
//
// Estimation uses full-key tabulation hashing per stage (no mangling, no
// word splitting) with the k-ary mean-corrected median estimator, so its
// accuracy profile matches the k-ary sketch at equal H x K. The price of
// O(1) reversal is update cost (1 + key_bits counter adds per stage instead
// of 1) and memory ((1 + key_bits) x the value-only footprint) — the
// reversal-cost model in DESIGN.md quantifies the trade.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/mem_policy.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

struct SketchKernelAccess;

/// Shape parameters of a compact invertible sketch. Fewer, larger buckets
/// than the reversible shapes: each bucket costs (1 + key_bits) doubles, and
/// decode needs the dominant key to carry a majority of its bucket's mass,
/// which low collision pressure (large K) provides.
struct CompactInvertibleConfig {
  int key_bits{48};           ///< n: key width, in [8, 64]
  std::size_t num_stages{3};  ///< H: independent hash stages
  int bucket_bits{12};        ///< log2(K)
  std::uint64_t seed{1};      ///< hash seed; equal seeds => combinable

  std::size_t num_buckets() const { return std::size_t{1} << bucket_bits; }
  /// Doubles per bucket: 1 value counter + key_bits bit counters.
  std::size_t words_per_bucket() const {
    return 1 + static_cast<std::size_t>(key_bits);
  }

  bool operator==(const CompactInvertibleConfig&) const = default;
};

class CompactInvertibleSketch {
 public:
  /// Same hard stage cap as the reversible sketch — hot paths use fixed
  /// stack scratch.
  static constexpr std::size_t kMaxStages = 8;

  /// Validates the shape and builds the per-stage tabulation hash family.
  /// Throws std::invalid_argument on inconsistent parameters.
  explicit CompactInvertibleSketch(const CompactInvertibleConfig& config);

  /// Adds `delta` to the key's value counter and to each set key bit's
  /// counter, in every stage: H * (1 + popcount(key)) counter adds.
  void update(std::uint64_t key, double delta);

  /// Applies a block of updates, prefetching each operand's bucket run
  /// during an index pass. Bit-identical to update() per operand in order.
  void update_batch(std::span<const KeyDelta> ops);

  /// Mean-corrected median estimate over the VALUE counters (the k-ary
  /// estimator; bit counters play no part in estimation).
  double estimate(std::uint64_t key) const;

  /// Bucket index of a key in one stage.
  std::size_t bucket_of(std::size_t stage, std::uint64_t key) const {
    return hashes_[stage].bucket(key);
  }

  /// O(key_bits) direct candidate extraction from one bucket: majority
  /// decode of the embedded bit counters against the value counter. The
  /// returned key is the bucket's dominant key whenever one key carries a
  /// majority of the bucket's mass; otherwise it is noise — always screen
  /// with estimate() (and a verification sketch) before trusting it.
  std::uint64_t decode_bucket(std::size_t stage, std::size_t bucket) const;

  bool combinable_with(const CompactInvertibleSketch& other) const {
    return config_ == other.config_;
  }

  /// this += coeff * other — exact, whole-array (value AND bit counters).
  void accumulate(const CompactInvertibleSketch& other, double coeff = 1.0);

  /// this *= coeff.
  void scale(double coeff);

  void clear();

  /// COMBINE — linear combination as a new sketch.
  static CompactInvertibleSketch combine(
      std::span<const std::pair<double, const CompactInvertibleSketch*>>
          terms);

  /// Destination-reuse COMBINE (see ReversibleSketch::combine_into): this =
  /// sum ci*Si in place; `this` may appear only as the FIRST term.
  void combine_into(
      std::span<const std::pair<double, const CompactInvertibleSketch*>>
          terms);

  const CompactInvertibleConfig& config() const { return config_; }

  /// VALUE counter of one stage/bucket.
  double bucket_value(std::size_t stage, std::size_t bucket) const {
    return counters_[stage * config_.num_buckets() + bucket];
  }

  double stage_sum(std::size_t stage) const { return stage_sums_[stage]; }

  /// The full flat array (value region then bit region) — serialization and
  /// the fused kernels operate on all of it.
  std::span<const double> counters() const { return counters_; }

  /// Collect region for the fused forecaster kernels: the heavy-bucket
  /// threshold scan covers only the first collect_rows() x collect_cols()
  /// elements (the value counters); the bit-counter tail rolls plainly.
  std::size_t collect_rows() const { return config_.num_stages; }
  std::size_t collect_cols() const { return config_.num_buckets(); }

  /// Deserialization support: replaces the whole flat array (stage sums are
  /// recomputed from the value region). Throws on size mismatch.
  void load_counters(std::span<const double> counters);

  std::size_t memory_bytes() const { return counters_.size() * sizeof(double); }
  std::size_t memory_bytes_hw() const {
    return counters_.size() * sizeof(std::uint32_t);
  }

  /// Counter memory accesses per update: H * (1 + key_bits) in the worst
  /// case (all key bits set) — the honest hardware figure for this backend.
  std::size_t accesses_per_update() const {
    return config_.num_stages * config_.words_per_bucket();
  }

  std::uint64_t update_count() const { return update_count_; }

 private:
  friend struct SketchKernelAccess;  // fused kernels (sketch_kernels.hpp)

  /// Start of bucket (h, i)'s bit-counter run in counters_.
  std::size_t bit_base(std::size_t stage, std::size_t bucket) const {
    return value_len_ +
           (stage * config_.num_buckets() + bucket) *
               static_cast<std::size_t>(config_.key_bits);
  }

  CompactInvertibleConfig config_;
  std::vector<TabulationHash> hashes_;  // one full-key hash per stage
  std::size_t value_len_{0};            // H*K: size of the value region
  mem::CounterVec counters_;            // value + bit regions
  std::vector<double> stage_sums_;      // value region only
  std::uint64_t update_count_{0};
};

/// Resumable direct extraction — the compact backend's REVERSE, with the
/// StreamingInference driving contract (begin / run_chunk / take_result) and
/// the same deterministic degradation semantics:
///   * buckets are visited in a fixed order (stage-major, the given
///     ascending-bucket lists), so the emitted key set is a pure function of
///     (sketch, threshold, options, stage_buckets);
///   * work is metered in search units (one bucket decode = 1 + key words,
///     one candidate screen = 2 — commensurate with the DFS meter), so
///     max_work truncation is identical at any chunk size or thread count;
///   * max_heavy_per_stage keeps the LARGEST buckets with the same
///     value-descending / index-ascending tie-break as the DFS path;
///   * duplicate decodes (the same key recovered from several stages) are
///     emitted once, at their first appearance.
/// stage_slack does not apply: buckets decode independently, there is no
/// cross-stage intersection to relax.
class CompactExtraction {
 public:
  CompactExtraction() = default;
  CompactExtraction(const CompactExtraction&) = delete;
  CompactExtraction& operator=(const CompactExtraction&) = delete;

  /// Prepares extraction from precomputed per-stage heavy-bucket lists
  /// (ascending bucket ids — the heavy_buckets() / step_collect format).
  /// The sketch must outlive the run; `options` is copied.
  void begin(const CompactInvertibleSketch& sketch, double threshold,
             const InferenceOptions& options,
             std::vector<std::vector<std::uint32_t>> stage_buckets);

  /// As above, but scans the value counters for the heavy buckets itself.
  void begin(const CompactInvertibleSketch& sketch, double threshold,
             const InferenceOptions& options);

  /// Advances extraction by roughly `quantum` work units. Returns true when
  /// done (exhausted, candidate-capped, or out of budget).
  bool run_chunk(std::size_t quantum);

  bool done() const { return done_; }
  std::size_t work_used() const { return result_.work_used; }

  /// Moves the finished result out; the engine is then ready for the next
  /// begin().
  InferenceResult take_result();

 private:
  const CompactInvertibleSketch* sketch_{nullptr};
  double threshold_{0.0};
  InferenceOptions options_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::size_t stage_{0};  ///< cursor: current stage list
  std::size_t pos_{0};    ///< cursor: next index within buckets_[stage_]
  std::vector<std::uint64_t> seen_;  ///< sorted-unique decoded keys
  bool done_{true};
  InferenceResult result_;
};

/// One-shot extraction (drives CompactExtraction to completion).
InferenceResult infer_heavy_keys(const CompactInvertibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options = {});
InferenceResult infer_heavy_keys(
    const CompactInvertibleSketch& sketch, double threshold,
    const InferenceOptions& options,
    std::vector<std::vector<std::uint32_t>> stage_buckets);

/// Per-stage heavy-bucket indices: VALUE buckets whose mean-corrected
/// estimate exceeds `threshold` (same cut as the reversible path).
std::vector<std::vector<std::uint32_t>> heavy_buckets(
    const CompactInvertibleSketch& sketch, double threshold);

}  // namespace hifind
