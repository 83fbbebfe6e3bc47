// Counter allocation (common/mem_policy.hpp): the large path must hand back
// page-aligned, fully writable ranges whose release is a pure function of
// the byte size, and the small path must stay plain operator new.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/mem_policy.hpp"

namespace hifind::mem {
namespace {

constexpr std::size_t kPage = 4096;

TEST(MemPolicyTest, HugeAllocIsAlignedAndWritable) {
  const std::size_t bytes = 3u << 20;  // rs64-sized: above the threshold
  void* p = alloc_counters(bytes);
  ASSERT_NE(p, nullptr);
#if defined(__linux__)
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kPage, 0u)
      << "large-path allocation not page-aligned";
#endif
  // Touch every page: first/last byte plus a page-strided sweep.
  auto* bytes_p = static_cast<unsigned char*>(p);
  std::memset(bytes_p, 0xab, bytes);
  EXPECT_EQ(bytes_p[0], 0xab);
  EXPECT_EQ(bytes_p[bytes - 1], 0xab);
  free_counters(p, bytes);
}

TEST(MemPolicyTest, SmallAllocWorks) {
  const std::size_t bytes = 64 * 1024;  // below kLargeThresholdBytes
  void* p = alloc_counters(bytes);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5c, bytes);
  free_counters(p, bytes);
}

TEST(MemPolicyTest, CounterVecRoundTripsThroughHugeBacking) {
  CounterVec v(512 * 1024);  // 4 MiB of doubles: large path
#if defined(__linux__)
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kPage, 0u);
#endif
  std::iota(v.begin(), v.end(), 0.0);
  CounterVec copy = v;  // copy through the allocator
  ASSERT_EQ(copy.size(), v.size());
  EXPECT_EQ(copy.front(), 0.0);
  EXPECT_EQ(copy.back(), static_cast<double>(v.size() - 1));
  copy.resize(16);  // shrink to the small regime and back
  copy.resize(512 * 1024, -1.0);
  EXPECT_EQ(copy[0], 0.0);
  EXPECT_EQ(copy[15], 15.0);
  EXPECT_EQ(copy.back(), -1.0);
}

}  // namespace
}  // namespace hifind::mem
