// Standard allocator that asks for transparent huge pages on large arrays.
//
// FLoS's unit of work is the neighbor query: every join is a random read
// into the CSR arrays and the visited index. With 4 KiB pages each such
// read also pays a TLB walk, and a 1M-node graph spans tens of thousands
// of pages. `HugePageAllocator<T>` backs every allocation of at least
// kHugePageBytes (2 MiB) with its own anonymous mapping, 2 MiB-aligned and
// advised MADV_HUGEPAGE before first touch, so the kernel can fault it in
// as huge pages when the host's THP mode is `always` or `madvise`. Smaller
// allocations go to std::allocator unchanged.
//
// The advice is a hint, not a knob: there is no option to turn it off,
// because a refused or ignored hint (THP `never`, a kernel without THP,
// no free huge pages) leaves ordinary 4 KiB pages and identical behavior.
// Advice errors are therefore ignored. A failed mapping fails the way
// operator new does on exhaustion: the installed new-handler runs and the
// mapping is retried; with no handler, std::bad_alloc is raised.
//
// The allocator is stateless and every instance compares equal, so
// vectors using it move and swap in O(1). This header is the only place in
// the tree allowed to call mmap/munmap/madvise (scripts/lint.py,
// no-raw-mmap).

#ifndef FLOS_UTIL_HUGE_PAGE_ALLOCATOR_H_
#define FLOS_UTIL_HUGE_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace flos {

/// Size (and alignment) of one x86-64 transparent huge page. Allocations of
/// at least this many bytes are mapped and advised; smaller ones are not.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

namespace huge_page_internal {

/// `bytes` rounded up to whole huge pages: the length actually mapped.
inline size_t MappedBytes(size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/// Maps `MappedBytes(bytes)` of zeroed anonymous memory at a 2 MiB-aligned
/// address and advises it MADV_HUGEPAGE before anything touches it.
inline void* MapHugePages(size_t bytes) {
  // Past this the rounding below would wrap; no such mapping can succeed.
  constexpr size_t kMaxBytes = SIZE_MAX - 2 * kHugePageBytes;
  const size_t len = MappedBytes(bytes);
  for (;;) {
    // Over-map by one huge page, then trim the unaligned head and tail.
    void* raw = bytes > kMaxBytes
                    ? MAP_FAILED
                    : mmap(nullptr, len + kHugePageBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw != MAP_FAILED) {
      const auto base = reinterpret_cast<uintptr_t>(raw);
      const uintptr_t aligned =
          (base + kHugePageBytes - 1) & ~(uintptr_t{kHugePageBytes} - 1);
      const size_t head = aligned - base;
      if (head > 0) munmap(raw, head);
      if (head < kHugePageBytes) {
        munmap(reinterpret_cast<void*>(aligned + len), kHugePageBytes - head);
      }
      void* p = reinterpret_cast<void*>(aligned);
      (void)madvise(p, len, MADV_HUGEPAGE);  // a hint; see the file comment
      return p;
    }
    // Exhaustion, handled as operator new handles it.
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) std::__throw_bad_alloc();
    handler();
  }
}

}  // namespace huge_page_internal

/// std-conforming allocator; see the file comment. Use it through
/// HugePageVector<T>.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}  // NOLINT

  /// True iff an allocation of `n` elements is mapped (and advised) rather
  /// than served by std::allocator.
  static bool IsMapped(size_t n) { return n * sizeof(T) >= kHugePageBytes; }

  T* allocate(size_t n) {
    if (!IsMapped(n)) return std::allocator<T>{}.allocate(n);
    return static_cast<T*>(huge_page_internal::MapHugePages(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) noexcept {
    if (!IsMapped(n)) {
      std::allocator<T>{}.deallocate(p, n);
      return;
    }
    munmap(p, huge_page_internal::MappedBytes(n * sizeof(T)));
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) noexcept {
    return true;
  }
};

/// std::vector whose buffer is huge-page backed once it reaches 2 MiB.
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace flos

#endif  // FLOS_UTIL_HUGE_PAGE_ALLOCATOR_H_
