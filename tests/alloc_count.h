// Counting global allocator shared by the suites that check a path is
// allocation-free: a program-wide operator new/delete replacement over
// malloc/free (so ASan/TSan interception still works) with a relaxed
// atomic count (so the counter itself is data-race free). Replacement
// functions cannot be inline, so include this header in exactly one
// source file of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace wsan::test {
/// Heap allocations made through operator new so far, program-wide.
inline std::atomic<std::uint64_t> g_allocations{0};
}  // namespace wsan::test

// The scalar replacements stay out of line. Inlined, GCC 12 sees the
// malloc inside operator new reach operator delete, or operator new's
// pointer reach the free inside operator delete, and raises
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  wsan::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer) must come
// from malloc too: the replaced deletes free every pointer.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  wsan::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
