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
 *    heap's first block;
 *  - kept blocks: large per-call buffers (object tables, the Cereal
 *    packer's outputs, event rings) are anonymous mappings of their
 *    own. Tables and outputs are kept by the thread that frees them for
 *    its next call, so a sweep that repeats a call reuses pages it has
 *    already faulted in. ZeroedBlock and GrowArray are the two ways in.
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
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
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
 * @p bytes of zeroed memory, or nullptr; release it with std::free.
 * calloc skips its memset only on memory fresh
 * from the kernel; glibc raises its mmap threshold after the first
 * large free, so a later large block may be a recycled chunk that is
 * cleared byte by byte. A block of 2 MiB or more is also advised
 * MADV_HUGEPAGE where the platform defines it, so a pass over all of
 * it faults once per 2 MiB instead of once per 4 KiB.
 */
void *zeroedAlloc(std::size_t bytes);

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

/**
 * Blocks a thread keeps: the one buffer policy behind large per-call
 * buffers. A buffer of kMinBytes or more is a block of its own, and
 * freeing a Table or Output block hands it to the freeing thread,
 * which keeps up to kBlocks per Use. The next block of that Use on
 * that thread reuses a kept one, whose pages are already faulted in,
 * rather than faulting fresh ones. Smaller buffers stay on the global
 * allocator, so a call on a small graph costs no system call. Kept
 * blocks are never shared between threads and live until their thread
 * exits. DESIGN.md ("Simulation performance model", item 9) has what
 * each use removes and why rings are not kept.
 */
namespace kept {

/** Buffers at least this large are kept mappings. */
constexpr std::size_t kMinBytes = std::size_t{256} << 10;
/** Blocks kept per thread and Use. */
constexpr unsigned kBlocks = 4;

/**
 * How a block is used. A Table block is taken at its full size
 * (ZeroedBlock) and is the smallest kept one that fits, else the
 * largest, grown; a new one comes from the global allocator, so it can
 * reuse memory other calls freed there. An Output block grows in place
 * while it is written (GrowArray) and is the largest kept one: the
 * packer's outputs outgrow kMinBytes in the order of their final sizes,
 * so each gets back the block it had last call. A Transient block (a
 * RingQueue's ring) grows in place and is unmapped when freed: kept
 * rings would sit idle through a later call's peak. Output and
 * Transient blocks are anonymous mappings, grown with mremap.
 */
enum class Use { Table, Output, Transient };

} // namespace kept

/**
 * A zeroed block for a per-call table (the object tables): calloc below
 * kept::kMinBytes, otherwise a kept Table block cleared for this use.
 */
class ZeroedBlock
{
  public:
    explicit ZeroedBlock(std::size_t bytes);
    ZeroedBlock(const ZeroedBlock &) = delete;
    ZeroedBlock &operator=(const ZeroedBlock &) = delete;
    ~ZeroedBlock();

    void *get() const { return p_; }

  private:
    void *p_;
    /** Block size: the request, or the kept block's whole size. */
    std::size_t bytes_;
};

namespace detail {

/** GrowArray storage at @p cap bytes, @p used of them live, grown to at
 *  least @p bytes (set to the new capacity). */
void *growStorage(kept::Use use, void *p, std::size_t used, std::size_t cap,
                  std::size_t &bytes);
/** Trim storage at @p cap bytes to @p used (set @p cap to the new one). */
void *shrinkStorage(kept::Use use, void *p, std::size_t used,
                    std::size_t &cap);
/** Release GrowArray storage of @p cap bytes. */
void releaseStorage(kept::Use use, void *p, std::size_t cap);

} // namespace detail

/**
 * A flat array of trivially copyable T whose final size is not known
 * up front: the Cereal packer's value, bucket and end-map arrays (use
 * Output), its discovery-order list (Table), a RingQueue's ring
 * (Transient). Below kept::kMinBytes it lives on the global allocator;
 * past that, in a block of use U that grows in place, so growth copies
 * at most kMinBytes, once. shrinkToFit() trims a finished array to its
 * size (rounded up to a page when mapped).
 */
template <typename T, kept::Use U = kept::Use::Output>
class GrowArray
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    GrowArray() = default;
    GrowArray(std::initializer_list<T> v) { append(v.begin(), v.size()); }
    GrowArray(const GrowArray &o) { append(o.data(), o.size()); }
    GrowArray(GrowArray &&o) noexcept { swap(o); }
    GrowArray &
    operator=(GrowArray o) noexcept
    {
        swap(o);
        return *this;
    }
    ~GrowArray() { detail::releaseStorage(U, data_, cap_ * sizeof(T)); }

    void
    swap(GrowArray &o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        std::swap(cap_, o.cap_);
    }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &back() { return data_[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (size_ == cap_) {
            grow(1);
        }
        data_[size_++] = v;
    }

    /** Append @p n elements from @p p. */
    void
    append(const T *p, std::size_t n)
    {
        if (n > cap_ - size_) {
            grow(n);
        }
        if (n) {
            std::memcpy(data_ + size_, p, n * sizeof(T));
        }
        size_ += n;
    }

    /** Resize to @p n elements; new ones are zero. */
    void
    resize(std::size_t n)
    {
        if (n > cap_) {
            grow(n - size_);
        }
        if (n > size_) {
            std::memset(data_ + size_, 0, (n - size_) * sizeof(T));
        }
        size_ = n;
    }

    /** Trim the capacity to the size. */
    void
    shrinkToFit()
    {
        std::size_t bytes = cap_ * sizeof(T);
        data_ = static_cast<T *>(
            detail::shrinkStorage(U, data_, size_ * sizeof(T), bytes));
        cap_ = bytes / sizeof(T);
    }

    friend bool
    operator==(const GrowArray &a, const GrowArray &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    friend bool
    operator==(const GrowArray &a, const std::vector<T> &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    /** Make room for @p n more elements, at least doubling. */
    void
    grow(std::size_t n)
    {
        std::size_t bytes = std::max(size_ + n, 2 * cap_) * sizeof(T);
        data_ = static_cast<T *>(detail::growStorage(
            U, data_, size_ * sizeof(T), cap_ * sizeof(T), bytes));
        cap_ = bytes / sizeof(T);
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

} // namespace sim
} // namespace cereal

#endif // CEREAL_SIM_ARENA_HH
