// Slab-backed, size-bucketed free-list arena for coroutine frames.
//
// Steady-state RPC churn (client write -> sched admit -> link flow -> disk
// service) creates and destroys one short-lived coroutine frame per step;
// by default each of those is a malloc/free pair. A FrameArena serves
// frames from per-size-class free lists instead, and carves the frames it
// has never seen from 64 KiB slabs with a bump pointer: the first wave of
// frames costs one system allocation per slab rather than one per frame,
// and every later wave pops a node off a free list in O(1) with no lock,
// no syscall and warm cache lines. Teardown frees the slabs, not the
// frames.
//
// Wiring: sim::Engine owns one FrameArena and installs it as the calling
// thread's current arena for its own lifetime (engines are single-threaded;
// the ParallelRunner gives each repetition its own engine on its own
// thread). TaskPromise and CoPromise allocate frames through FramePooled,
// which consults the current arena and records the owning arena in a header
// ahead of the frame — frees always return to the arena that allocated,
// even if a different engine has since become current. Frames allocated
// with no engine alive fall back to the global allocator (null header).
//
// AddressSanitizer: a frame on a free list and the uncarved tail of the
// current slab are poisoned, and a frame is unpoisoned when it is handed
// out, so a use-after-free of a pooled frame is reported like one of a
// heap block.
//
// Lifetime rule (same as the engine's): frames must not outlive the engine
// whose arena carved them. Engine teardown destroys unfinished roots
// before the arena, and the arena asserts that nothing is still
// outstanding when it dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "support/error.hpp"

namespace pfsc::sim {

class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

  /// Make `arena` the calling thread's current arena (nullptr allowed);
  /// returns the previous one so callers can restore it (Engine does).
  static FrameArena* exchange_current(FrameArena* arena);
  static FrameArena* current();

  /// Allocate a frame of `bytes` through the thread's current arena (or
  /// the global allocator when none is installed / the size is huge).
  static void* allocate_frame(std::size_t bytes);
  /// Return a frame to whichever arena allocated it.
  static void deallocate_frame(void* frame) noexcept;

  // -- statistics (microbenchmarks + reuse tests) ------------------------
  /// Frames carved fresh from a slab (never handed out before).
  std::uint64_t fresh_allocations() const { return fresh_; }
  /// Frames recycled from a free list.
  std::uint64_t reused_allocations() const { return reused_; }
  /// Frames currently live (allocated, not yet freed).
  std::uint64_t outstanding() const { return outstanding_; }

 private:
  // Size classes: 64-byte steps up to 4 KiB. Typical Task/Co frames in
  // this codebase run 100-500 bytes; anything larger than the last class
  // bypasses the arena entirely (null-arena header).
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 64;
  // Slab size: large enough that a 1,024-rank run carves its first wave
  // from a few hundred slabs, small enough that a short-lived engine's
  // unused tail stays negligible next to its peak resident set.
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  struct Header;

  void* bucket_alloc(std::size_t size_class);
  void bucket_free(Header* header) noexcept;
  /// Carve a never-used block of `block` bytes, starting a slab if needed.
  void* carve(std::size_t block);

  void* free_lists_[kClasses] = {};
  void* slabs_ = nullptr;         // newest slab; each links to the previous
  char* bump_ = nullptr;          // next uncarved byte of the newest slab
  char* slab_end_ = nullptr;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t outstanding_ = 0;
};

/// Mixin providing pooled frame allocation; inherited by the coroutine
/// promise types (the compiler routes frame new/delete through the
/// promise's operators).
struct FramePooled {
  static void* operator new(std::size_t bytes) {
    return FrameArena::allocate_frame(bytes);
  }
  static void operator delete(void* frame) noexcept {
    FrameArena::deallocate_frame(frame);
  }
  static void operator delete(void* frame, std::size_t) noexcept {
    FrameArena::deallocate_frame(frame);
  }
};

}  // namespace pfsc::sim
