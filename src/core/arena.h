// Monotonic arena allocator for build-time scratch memory.
//
// The kd builds and the IPPS fast paths run on every summary construction
// (and, since the sharded backend, once per shard plus once at merge), so
// their per-call heap traffic is a measurable constant factor. A
// MonotonicArena hands out bump-pointer allocations from a chain of large
// blocks and recycles the blocks on Reset(): after a warm-up build, a
// workspace that owns an arena serves every later build with zero heap
// allocations.
//
// Ownership rule (see README "Fast-path architecture"): the arena lives in a
// caller-owned scratch object (e.g. KdBuildScratch); memory returned by
// Allocate is valid until the next Reset(), and Reset() is called by the
// consuming build routine on entry — so at most one build may use a given
// arena at a time, and nothing may retain arena pointers across builds.

#ifndef SAS_CORE_ARENA_H_
#define SAS_CORE_ARENA_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace sas {

class MonotonicArena {
 public:
  explicit MonotonicArena(std::size_t first_block_bytes = std::size_t{1} << 16)
      : next_block_bytes_(first_block_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Rewinds to the first block, keeping all capacity for reuse.
  void Reset() {
    block_ = 0;
    pos_ = 0;
  }

  /// Bump-allocates `bytes` with the given power-of-two alignment. The
  /// returned memory is uninitialized and owned by the arena.
  void* Allocate(std::size_t bytes, std::size_t align) {
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t p = (pos_ + (align - 1)) & ~(align - 1);
      if (p + bytes <= b.size) {
        pos_ = p + bytes;
        return b.data.get() + p;
      }
      ++block_;
      pos_ = 0;
    }
    // No existing block fits: chain a new one, doubling so that a warm arena
    // has at most O(log total) blocks and Reset() reuse is near-contiguous.
    std::size_t want = next_block_bytes_;
    if (want < bytes + align) want = bytes + align;
    // Not zero-filled: callers write before they read, and capacity a
    // build never touches is never paged in.
    blocks_.push_back(
        {std::make_unique_for_overwrite<std::byte[]>(want), want});
    next_block_bytes_ = want * 2;
    block_ = blocks_.size() - 1;
    const std::size_t p =
        (0 + (align - 1)) & ~(align - 1);  // new[] is max-aligned already
    pos_ = p + bytes;
    return blocks_[block_].data.get() + p;
  }

  /// Uninitialized array of `count` trivially-destructible elements.
  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Total bytes held across all blocks (capacity, not live allocations).
  std::size_t CapacityBytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::vector<Block> blocks_;
  std::size_t block_ = 0;            // current block index
  std::size_t pos_ = 0;              // bump offset inside current block
  std::size_t next_block_bytes_;     // size of the next block to chain
};

}  // namespace sas

#endif  // SAS_CORE_ARENA_H_
