// Counting global operator new for the traced binary: every heap allocation
// in the process, the library's included, bumps one relaxed counter.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_nothrow(std::size_t n, std::size_t align) noexcept {
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) & ~(align - 1));
  if (p != nullptr) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* counted(std::size_t n, std::size_t align) {
  if (void* p = counted_nothrow(n, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

extern "C" std::uint64_t dfbench_alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted(n, 0); }
void* operator new[](std::size_t n) { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_nothrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
