#include "common/mem_policy.hpp"

#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hifind::mem {
namespace {

constexpr std::size_t kPage = 4096;

std::size_t page_round(std::size_t bytes) {
  return (bytes + kPage - 1) & ~(kPage - 1);
}

}  // namespace

void* alloc_counters(std::size_t bytes) {
#if defined(__linux__)
  if (bytes >= kLargeThresholdBytes) {
    void* p = mmap(nullptr, page_round(bytes), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    return p;
  }
#endif
  return ::operator new(bytes);
}

void free_counters(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#if defined(__linux__)
  if (bytes >= kLargeThresholdBytes) {
    munmap(p, page_round(bytes));
    return;
  }
#endif
  ::operator delete(p);
}

}  // namespace hifind::mem
