// Batched sketch-update operands.
//
// The recording hot path (paper Sec. 5.5.3) applies long runs of independent
// UPDATEs whose bucket indices are data-dependent random accesses into
// multi-megabyte counter arrays — a classic cache-miss-bound loop. Each
// sketch type has one `update_batch` taking a block of these operands. The
// reversible and 2D sketches compute every bucket index of a chunk first
// (one simd::tab_hash64 pass per stage) while issuing software prefetches
// for the counter lines, and only then apply the deltas, so the hash work of
// later keys overlaps the memory latency of earlier ones. The k-ary sketch
// is cache-resident at every configured shape, where index staging loses to
// the plain per-op loop, so its update_batch is that loop.
//
// Batch updates are BIT-IDENTICAL to the equivalent sequence of scalar
// update() calls: per sketch, counters and stage sums receive the same
// floating-point additions in the same order — prefetching never reorders
// arithmetic.
#pragma once

#include <cstdint>

namespace hifind {

/// One pending 1D-sketch update: add `delta` to `key`'s bucket per stage.
struct KeyDelta {
  std::uint64_t key;
  double delta;
};

/// One pending 2D-sketch update: add `delta` at (x_key, y_key) per stage.
struct KeyDelta2d {
  std::uint64_t x_key;
  std::uint64_t y_key;
  double delta;
};

/// Portable best-effort prefetch of the cache line holding *p (for write).
inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace hifind
