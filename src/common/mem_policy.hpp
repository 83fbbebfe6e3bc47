// Counter storage for the sketch substrates.
//
// CounterAllocator backs allocations of at least kLargeThresholdBytes with a
// page-rounded anonymous mmap, returned to the kernel by munmap on release;
// smaller ones use operator new. The choice is a pure function of the byte
// size, so deallocate() needs no header.
//
// It exists because plain std::vector<double> measured worse: with the
// counter arrays on malloc, perfbench overload_compact's peak_rss_mb rose
// from 514.7 to 567.8 MB (+10.3%, 0 of 6 alternating pairs won) and
// campus_reversible's throughput_pps fell 6.6% (1 of 6 won), Release, on a
// 4-vCPU x86-64 VM. The likely cause, not verified, is glibc's dynamic mmap
// threshold: once a freed multi-MiB replica raises it, later replicas come
// from the heap, which keeps freed pages.
#pragma once

#include <cstddef>
#include <vector>

namespace hifind::mem {

/// 1 MiB: the counter arrays of the default bank shapes clear it (rs64:
/// 3 MiB, the 2D sketches: 10 MiB each); stage sums and scratch do not.
inline constexpr std::size_t kLargeThresholdBytes = std::size_t{1} << 20;

/// alloc_counters throws std::bad_alloc on failure; free_counters must be
/// called with the original byte size.
void* alloc_counters(std::size_t bytes);
void free_counters(void* p, std::size_t bytes) noexcept;

/// Stateless std allocator over alloc_counters/free_counters.
template <class T>
struct CounterAllocator {
  using value_type = T;

  CounterAllocator() noexcept = default;
  template <class U>
  CounterAllocator(const CounterAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(alloc_counters(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_counters(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const CounterAllocator<U>&) const noexcept {
    return true;
  }
};

/// Counter storage of every sketch; consumers read it through std::span.
using CounterVec = std::vector<double, CounterAllocator<double>>;

}  // namespace hifind::mem
