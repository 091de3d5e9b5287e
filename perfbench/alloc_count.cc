// Replaceable global allocation functions for the benchmark binary: each
// operator new bumps a counter while counting is on (serve.allocs_per_event,
// traced runs only). Off, the cost is one relaxed load per allocation.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "measure.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}

void* AllocateAligned(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  // aligned_alloc needs the size rounded up to a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded != 0 ? rounded : alignment);
}

}  // namespace

namespace perfbench {

void SetAllocCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t AllocCount() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = Allocate(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = Allocate(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return Allocate(size); }

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept { return Allocate(size); }

void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = AllocateAligned(size, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t al) {
  if (void* p = AllocateAligned(size, static_cast<std::size_t>(al))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
