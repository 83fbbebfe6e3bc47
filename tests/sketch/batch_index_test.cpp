// Each sketch's update_batch (simd::tab_hash64 index staging over the
// flattened per-byte tables for the reversible and 2D sketches, the plain
// per-op loop for the k-ary sketch) must yield bit-identical counters, stage
// sums and update counts to per-op update() in order — the oracle every
// test here compares against — for all three sketch substrates, on both
// SIMD backends, including non-power-of-two bucket counts (k-ary and 2D; the
// reversible sketch is power-of-two by construction). The per-prefix test
// pins the SEQUENCE, not just the final state: after every single-op batch
// the counter arrays must agree, so a batch path that hit the right buckets
// in the wrong per-op grouping would be caught.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/simd_ops.hpp"
#include "sketch/sketch2d.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {
namespace {

/// Restores the dispatched SIMD backend when a test exits, pass or fail.
struct DispatchGuard {
  ~DispatchGuard() { simd::set_force_scalar(false); }
};

std::vector<KeyDelta> random_ops(std::size_t n, std::uint64_t seed,
                                 int key_bits) {
  Pcg32 rng(seed);
  const std::uint64_t mask = key_bits == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << key_bits) - 1;
  std::vector<KeyDelta> ops(n);
  for (auto& op : ops) {
    op.key = rng.next64() & mask;
    op.delta = rng.chance(0.5) ? 1.0 : -1.0 / (1.0 + rng.bounded(8));
  }
  return ops;
}

std::vector<KeyDelta2d> random_ops_2d(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<KeyDelta2d> ops(n);
  for (auto& op : ops) {
    op.x_key = rng.next64();
    op.y_key = rng.bounded(1 << 16);
    op.delta = rng.chance(0.5) ? 1.0 : -0.25;
  }
  return ops;
}

/// Applies `ops` one update() at a time: the oracle for update_batch.
template <class Sketch>
void per_op(Sketch& s, std::span<const KeyDelta> ops) {
  for (const auto& op : ops) s.update(op.key, op.delta);
}
void per_op(TwoDSketch& s, std::span<const KeyDelta2d> ops) {
  for (const auto& op : ops) s.update(op.x_key, op.y_key, op.delta);
}

const std::size_t kBatchSizes[] = {0, 1, 5, 16, 100, 255, 256, 257, 1000};
const bool kForceScalar[] = {false, true};

// In the test names, "Legacy" is the per-op update() oracle.
TEST(BatchIndexTest, ReversibleVectorizedMatchesLegacy) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    for (const int key_bits : {48, 64}) {
      // bucket_bits must spread evenly across the q = key_bits/8 words.
      const ReversibleSketchConfig cfg{.key_bits = key_bits, .num_stages = 6,
                                       .bucket_bits = key_bits == 48 ? 12 : 8,
                                       .seed = 9};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops(n, 100 + n, cfg.key_bits);
        ReversibleSketch batch(cfg), scalar(cfg);
        batch.update_batch(ops);
        per_op(scalar, ops);
        const auto a = batch.counters();
        const auto b = scalar.counters();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "scalar=" << scalar_backend
                                << " bits=" << key_bits << " n=" << n
                                << " counter " << i;
        }
        for (std::size_t h = 0; h < cfg.num_stages; ++h) {
          ASSERT_EQ(batch.stage_sum(h), scalar.stage_sum(h));
        }
        ASSERT_EQ(batch.update_count(), scalar.update_count());
      }
    }
  }
}

TEST(BatchIndexTest, KaryVectorizedMatchesLegacyIncludingNonPowerOfTwo) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    // 1u<<16 (6 stages x 64Ki buckets = 3 MiB) is larger than any
    // configured k-ary shape; 1u<<14 is the verification/original shape.
    for (const std::uint32_t buckets : {1000u, 4097u, 1u << 14, 1u << 16}) {
      const KarySketchConfig cfg{.num_stages = 6, .num_buckets = buckets,
                                 .seed = 4};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops(n, 200 + n, 64);
        KarySketch batch(cfg), scalar(cfg);
        batch.update_batch(ops);
        per_op(scalar, ops);
        const auto a = batch.counters();
        const auto b = scalar.counters();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "scalar=" << scalar_backend
                                << " buckets=" << buckets << " n=" << n
                                << " counter " << i;
        }
        for (std::size_t h = 0; h < cfg.num_stages; ++h) {
          ASSERT_EQ(batch.stage_sum(h), scalar.stage_sum(h));
        }
        ASSERT_EQ(batch.update_count(), scalar.update_count());
      }
    }
  }
}

TEST(BatchIndexTest, TwoDVectorizedMatchesLegacyIncludingNonPowerOfTwo) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    for (const auto& [xb, yb] : {std::pair{1000u, 48u}, std::pair{1u << 10, 64u},
                                std::pair{4097u, 33u}}) {
      const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = xb,
                               .y_buckets = yb, .seed = 8};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops_2d(n, 300 + n);
        TwoDSketch batch(cfg), scalar(cfg);
        batch.update_batch(ops);
        per_op(scalar, ops);
        const auto a = batch.cells();
        const auto b = scalar.cells();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "scalar=" << scalar_backend << " x=" << xb
                                << " y=" << yb << " n=" << n << " cell " << i;
        }
        ASSERT_EQ(batch.update_count(), scalar.update_count());
      }
    }
  }
}

TEST(BatchIndexTest, PerOpPrefixSequencesIdentical) {
  // Single-op batches, counters compared after EVERY op: equality of every
  // prefix means update_batch and update() touch the same (row,bucket) set
  // for the same op, i.e. the index SEQUENCES are identical, not merely the
  // final sums.
  DispatchGuard guard;
  auto expect_prefixes = [](auto& batch, auto& scalar, const auto& ops,
                            const char* what) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::span one(&ops[i], 1);
      batch.update_batch(one);
      per_op(scalar, one);
      std::span<const double> a, b;
      if constexpr (std::is_same_v<std::decay_t<decltype(batch)>,
                                   TwoDSketch>) {
        a = batch.cells();
        b = scalar.cells();
      } else {
        a = batch.counters();
        b = scalar.counters();
      }
      for (std::size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c], b[c]) << what << " op " << i << " counter " << c;
      }
    }
  };
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    {
      const ReversibleSketchConfig cfg{.key_bits = 48, .num_stages = 4,
                                       .bucket_bits = 12, .seed = 3};
      ReversibleSketch batch(cfg), scalar(cfg);
      expect_prefixes(batch, scalar, random_ops(96, 17, cfg.key_bits), "rs");
    }
    {
      const KarySketchConfig cfg{.num_stages = 3, .num_buckets = 1000,
                                 .seed = 5};
      KarySketch batch(cfg), scalar(cfg);
      expect_prefixes(batch, scalar, random_ops(96, 19, 64), "kary");
    }
    {
      const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = 1000,
                               .y_buckets = 48, .seed = 6};
      TwoDSketch batch(cfg), scalar(cfg);
      expect_prefixes(batch, scalar, random_ops_2d(96, 23), "2d");
    }
  }
}

}  // namespace
}  // namespace hifind
