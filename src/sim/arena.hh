/**
 * @file
 * Allocation helpers for the simulator's own hot paths. The simulator
 * pays for allocation twice: once in the *modeled* heap (src/heap) and
 * once in its own event loop (frame buffers, the heap's backing
 * store). This header keeps the second cost down:
 *
 *  - BufferPool: recycles std::vector<std::uint8_t> payload buffers
 *    (the cluster fabric's frame bytes), keeping their capacity alive
 *    across acquire/release cycles.
 *  - ContiguousBuffer: the modeled heap's backing store, a flat byte
 *    buffer that grows in place inside one address-space reservation,
 *    so growth copies at most once and claiming bytes writes nothing.
 *  - zeroedAlloc(): the calloc (plus huge-page hint) behind a small
 *    heap's first block and the heap's ObjectTable.
 *
 * Everything here is single-threaded by design, like the EventQueue:
 * one simulated machine lives on one host thread; concurrent sweep
 * points each build their own buffers.
 */

#ifndef CEREAL_SIM_ARENA_HH
#define CEREAL_SIM_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CEREAL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define CEREAL_ASAN 1
#endif

#ifdef CEREAL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cereal {
namespace sim {

/** Poison @p n bytes at @p p under ASan (no-op otherwise). */
inline void
poison(void *p, std::size_t n)
{
#ifdef CEREAL_ASAN
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Unpoison @p n bytes at @p p under ASan (no-op otherwise). */
inline void
unpoison(void *p, std::size_t n)
{
#ifdef CEREAL_ASAN
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/**
 * @p bytes of zeroed memory, or nullptr; release it with std::free
 * (or a Free deleter). calloc skips its memset only on memory fresh
 * from the kernel; glibc raises its mmap threshold after the first
 * large free, so a later large block may be a recycled chunk that is
 * cleared byte by byte. A block of 2 MiB or more is also advised
 * MADV_HUGEPAGE where the platform defines it, so a pass over all of
 * it faults once per 2 MiB instead of once per 4 KiB.
 */
void *zeroedAlloc(std::size_t bytes);

/** unique_ptr deleter for zeroedAlloc() blocks. */
struct Free
{
    void operator()(void *p) const { std::free(p); }
};

/**
 * Recycler for byte-vector payload buffers (frame bytes on the cluster
 * fabric). acquire() hands back a cleared vector that retains the
 * capacity of its previous life, so a serving run that streams
 * thousands of ~300 KB frames stops hammering the global allocator
 * after the first few round trips.
 */
class BufferPool
{
  public:
    BufferPool() = default;

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /** Get an empty buffer (capacity recycled when available). */
    std::vector<std::uint8_t>
    acquire()
    {
        if (free_.empty()) {
            ++misses_;
            return {};
        }
        ++hits_;
        std::vector<std::uint8_t> buf = std::move(free_.back());
        free_.pop_back();
        buf.clear();
        return buf;
    }

    /** Return a buffer; its capacity is kept for the next acquire(). */
    void
    release(std::vector<std::uint8_t> &&buf)
    {
        free_.push_back(std::move(buf));
    }

    /** acquire() calls served from the free list. */
    std::uint64_t hits() const { return hits_; }
    /** acquire() calls that had to hand out a fresh buffer. */
    std::uint64_t misses() const { return misses_; }
    /** Buffers currently parked in the pool. */
    std::size_t parked() const { return free_.size(); }

  private:
    std::vector<std::vector<std::uint8_t>> free_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Flat byte buffer that grows in place, for the modeled heap's backing
 * store.
 *
 * The Heap needs one contiguous host block (simulated addresses map to
 * base + offset), bump allocation, and zeroed object memory. A buffer
 * starts on a zeroedAlloc() block of its initial capacity, so the many
 * small heaps of a run cost a calloc each. The first claim past it
 * reserves kReserveBytes of inaccessible address space (2 MiB aligned,
 * MADV_HUGEPAGE past its first 2 MiB) and moves the claimed bytes
 * there once; later growth commits the next window, doubling what is
 * committed, and never copies. No byte past size() is ever written, so
 * claiming writes nothing and claimed bytes read zero. Under ASan the
 * committed but unclaimed window is poisoned, which catches reads of
 * not-yet-allocated heap words and keeps it unwritten.
 */
class ContiguousBuffer
{
  public:
    /**
     * Address space reserved per buffer: what a 32-bit ObjectTable with
     * one entry per 16 B can index.
     */
    static constexpr std::size_t kReserveBytes = std::size_t{64} << 30;

    explicit ContiguousBuffer(std::size_t initial_capacity = 0)
    {
        if (initial_capacity) {
            data_ = static_cast<std::uint8_t *>(zeroedAlloc(initial_capacity));
            if (!data_) {
                throw std::bad_alloc();
            }
            capacity_ = initial_capacity;
            poison(data_, capacity_);
        }
    }

    ContiguousBuffer(const ContiguousBuffer &) = delete;
    ContiguousBuffer &operator=(const ContiguousBuffer &) = delete;

    ~ContiguousBuffer();

    /**
     * Extend the claimed region to @p bytes (monotonic); the newly
     * claimed span reads zero. The base pointer moves at most once, on
     * the first claim past a non-zero initial capacity. Throws
     * std::bad_alloc past kReserveBytes or when the host refuses the
     * reservation or a commit.
     */
    void
    claimZeroed(std::size_t bytes)
    {
        if (bytes <= size_) {
            return;
        }
        if (bytes > capacity_) {
            if (bytes > kReserveBytes) {
                throw std::bad_alloc();
            }
            std::size_t cap = capacity_ ? capacity_ : (std::size_t{1} << 16);
            while (cap < bytes) {
                cap *= 2;
            }
            commit(std::min(cap, kReserveBytes));
        }
        unpoison(data_ + size_, bytes - size_);
        size_ = bytes;
    }

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }

    /** Bytes claimed (valid to address). */
    std::size_t size() const { return size_; }

    /** Bytes committed (claimed + poisoned tail). */
    std::size_t capacity() const { return capacity_; }

  private:
    /** Commit up to @p cap bytes, reserving first if not yet done. */
    void commit(std::size_t cap);

    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    /** data_ is the reservation (else a zeroedAlloc() block or null). */
    bool reserved_ = false;
};

} // namespace sim
} // namespace cereal

#endif // CEREAL_SIM_ARENA_HH
