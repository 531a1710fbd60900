// Binary-wide allocation counter for the zero-allocation tests.
//
// Replaces the (replaceable) global operator new/delete family with
// malloc/free versions that count every operator-new call in g_new_calls.
// The replacements are definitions, so include this header from exactly one
// translation unit per test binary. Tests inspect only deltas across a
// warmed-up call, so the rest of the binary is unaffected.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// The replacements route new/delete through malloc/free as a matched set;
// GCC's -Wmismatched-new-delete cannot see that pairing across the
// replaceable-operator boundary, so silence it for these definitions only.
// Every form is replaced, nothrow and over-aligned ones included: the
// library's own nothrow new (std::get_temporary_buffer uses it) would
// otherwise be freed by the replaced delete, a mismatch AddressSanitizer
// reports, and 64-byte aligned buffers (simd::LaneBuffer) must be counted.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
void* counted_alloc(std::size_t sz) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz ? sz : 1);
}
void* counted_aligned_alloc(std::size_t sz, std::align_val_t al) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  return posix_memalign(&p, a, sz ? sz : 1) == 0 ? p : nullptr;
}
}  // namespace
void* operator new(std::size_t sz) {
  if (void* p = counted_alloc(sz)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t sz) {
  if (void* p = counted_alloc(sz)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t sz, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(sz, al)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(sz, al)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept { return counted_alloc(sz); }
void* operator new[](std::size_t sz, const std::nothrow_t&) noexcept { return counted_alloc(sz); }
void* operator new(std::size_t sz, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(sz, al);
}
void* operator new[](std::size_t sz, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
