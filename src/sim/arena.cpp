#include "sim/arena.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PFSC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PFSC_ASAN 1
#endif
#endif

#ifdef PFSC_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace pfsc::sim {

namespace {
thread_local FrameArena* t_current_arena = nullptr;

// Pooled frames are invisible to AddressSanitizer's allocator, so the
// arena marks what it holds itself: free-list frames and the uncarved
// slab tail are poisoned, handed-out frames are not.
void poison(void* p, std::size_t bytes) noexcept {
#ifdef PFSC_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void unpoison(void* p, std::size_t bytes) noexcept {
#ifdef PFSC_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}
}  // namespace

/// Prefix stored immediately ahead of every frame handed out by
/// allocate_frame. 16 bytes keeps the frame itself on the usual
/// max_align_t boundary.
struct alignas(16) FrameArena::Header {
  FrameArena* arena;     // owner, or nullptr for global-allocator frames
  std::size_t size_class;  // index into free_lists_ (unused when arena==nullptr)
};

FrameArena::~FrameArena() {
  PFSC_ASSERT(outstanding_ == 0);
  // Every frame lives inside a slab, so freeing the slabs frees them all.
  while (slabs_ != nullptr) {
    unpoison(slabs_, kSlabBytes);
    void* prev = *static_cast<void**>(slabs_);
    ::operator delete(slabs_, std::align_val_t{kGranularity});
    slabs_ = prev;
  }
}

FrameArena* FrameArena::exchange_current(FrameArena* arena) {
  FrameArena* prev = t_current_arena;
  t_current_arena = arena;
  return prev;
}

FrameArena* FrameArena::current() { return t_current_arena; }

void* FrameArena::allocate_frame(std::size_t bytes) {
  FrameArena* arena = t_current_arena;
  const std::size_t total = sizeof(Header) + bytes;
  // Size class = blocks of kGranularity covering header+frame, minus one.
  const std::size_t size_class = (total + kGranularity - 1) / kGranularity - 1;
  if (arena == nullptr || size_class >= kClasses) {
    auto* header = static_cast<Header*>(::operator new(total));
    header->arena = nullptr;
    header->size_class = 0;
    return header + 1;
  }
  return arena->bucket_alloc(size_class);
}

void FrameArena::deallocate_frame(void* frame) noexcept {
  if (frame == nullptr) return;
  Header* header = static_cast<Header*>(frame) - 1;
  if (header->arena == nullptr) {
    ::operator delete(header);
    return;
  }
  header->arena->bucket_free(header);
}

void* FrameArena::carve(std::size_t block) {
  if (static_cast<std::size_t>(slab_end_ - bump_) < block) {
    // Start a new slab; the old one's uncarved tail stays poisoned and
    // unused until teardown. The slab's first granule links the slabs.
    void* slab = ::operator new(kSlabBytes, std::align_val_t{kGranularity});
    *static_cast<void**>(slab) = slabs_;
    slabs_ = slab;
    bump_ = static_cast<char*>(slab) + kGranularity;
    slab_end_ = static_cast<char*>(slab) + kSlabBytes;
    poison(bump_, kSlabBytes - kGranularity);
  }
  char* block_start = bump_;
  bump_ += block;
  unpoison(block_start, block);
  return block_start;
}

void* FrameArena::bucket_alloc(std::size_t size_class) {
  ++outstanding_;
  const std::size_t block = (size_class + 1) * kGranularity;
  void*& head = free_lists_[size_class];
  Header* header;
  if (head != nullptr) {
    ++reused_;
    header = static_cast<Header*>(head);
    unpoison(header, block);
    head = *reinterpret_cast<void**>(header);
  } else {
    ++fresh_;
    header = static_cast<Header*>(carve(block));
  }
  header->arena = this;
  header->size_class = size_class;
  return header + 1;
}

void FrameArena::bucket_free(Header* header) noexcept {
  PFSC_ASSERT(outstanding_ > 0);
  --outstanding_;
  const std::size_t size_class = header->size_class;
  void*& head = free_lists_[size_class];
  // Reuse the header's own storage as the free-list link.
  *reinterpret_cast<void**>(header) = head;
  head = header;
  poison(header, (size_class + 1) * kGranularity);
}

}  // namespace pfsc::sim
