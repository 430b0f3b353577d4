#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void Count(std::size_t size) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  Count(size);
  return p;
}

void* CountedAllocAligned(std::size_t size, std::align_val_t alignment) {
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  Count(size);
  return p;
}

}  // namespace

namespace kf::perfbench {

void EnableAllocCounting(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

AllocCounts CurrentAllocCounts() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace kf::perfbench

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) Count(size);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAllocAligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAllocAligned(size, alignment);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
