// Counting replacement of the global allocation functions (traced program
// only). Block sizes come from malloc_usable_size, so aligned and unaligned
// blocks are accounted the same way and no header is added to any block.
#include "alloc_count.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) noexcept {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  note_free(p);
  std::free(p);
}

}  // namespace

bool counting() noexcept { return true; }
std::int64_t live_bytes() noexcept { return g_live.load(std::memory_order_relaxed); }
std::int64_t peak_bytes() noexcept { return g_peak.load(std::memory_order_relaxed); }
void reset_peak() noexcept { g_peak.store(live_bytes(), std::memory_order_relaxed); }

}  // namespace perfbench::alloc

using perfbench::alloc::allocate;
using perfbench::alloc::allocate_aligned;
using perfbench::alloc::release;

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) { return allocate_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, al);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
