#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::allocs {

namespace {
std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gCount{0};
}  // namespace

void setCounting(bool on) { gCounting.store(on, std::memory_order_relaxed); }
std::uint64_t count() { return gCount.load(std::memory_order_relaxed); }

}  // namespace perfbench::allocs

namespace {

void* countedAlloc(std::size_t size) noexcept {
  if (perfbench::allocs::gCounting.load(std::memory_order_relaxed)) {
    perfbench::allocs::gCount.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every non-aligned form is replaced, so each new is matched by a free()
// here whichever form the library picks. Over-aligned allocations are not
// counted.
void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
