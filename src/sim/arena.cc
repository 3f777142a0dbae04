#include "sim/arena.hh"

#include <sys/mman.h>

namespace cereal {
namespace sim {

namespace {

constexpr std::uintptr_t kPage = 4096;
constexpr std::size_t kHugePage = std::size_t{2} << 20;

std::size_t
wholePages(std::size_t bytes)
{
    return (bytes + kPage - 1) & ~(kPage - 1);
}

/** Advise the whole pages inside [p, p + bytes) MADV_HUGEPAGE, where
 *  the platform has it, when the block spans 2 MiB or more. */
void
adviseHugePages(void *p, std::size_t bytes)
{
#ifdef MADV_HUGEPAGE
    if (bytes >= kHugePage) {
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        const std::uintptr_t first = (at + kPage - 1) & ~(kPage - 1);
        const std::uintptr_t last = (at + bytes) & ~(kPage - 1);
        madvise(reinterpret_cast<void *>(first), last - first,
                MADV_HUGEPAGE);
    }
#else
    (void)p;
    (void)bytes;
#endif
}

/** Set once this thread's Keep is gone (a static's late free). */
thread_local bool keepGone = false;

/** One thread's kept blocks; released when the thread exits. */
class Keep
{
  public:
    struct Block
    {
        void *p;
        std::size_t bytes;
        kept::Use use;
    };

    ~Keep()
    {
        for (const Block &b : blocks_) {
            release(b);
        }
        keepGone = true;
    }

    /** Return @p b to where it came from. */
    static void
    release(const Block &b)
    {
        if (b.use == kept::Use::Table) {
            std::free(b.p);
        } else {
            munmap(b.p, b.bytes);
        }
    }

    /**
     * Remove and return the kept block of @p use to serve @p bytes, or
     * {nullptr}: for an output the largest; for a table the smallest
     * that fits, else the largest.
     */
    Block
    take(kept::Use use, std::size_t bytes)
    {
        auto better = [&](const Block &b, const Block &than) {
            const bool fits = b.bytes >= bytes;
            if (use == kept::Use::Table && fits != (than.bytes >= bytes)) {
                return fits;
            }
            const bool smaller = b.bytes < than.bytes;
            return use == kept::Use::Table && fits ? smaller : !smaller;
        };
        Block *pick = nullptr;
        for (Block &b : blocks_) {
            if (b.use == use && (!pick || better(b, *pick))) {
                pick = &b;
            }
        }
        if (!pick) {
            return {nullptr, 0, use};
        }
        const Block out = *pick;
        *pick = blocks_.back();
        blocks_.pop_back();
        return out;
    }

    /** Keep @p b; past kBlocks of its use, unmap the smallest of them. */
    void
    give(Block b)
    {
        blocks_.push_back(b);
        Block *smallest = nullptr;
        unsigned n = 0;
        for (Block &k : blocks_) {
            if (k.use == b.use) {
                ++n;
                if (!smallest || k.bytes < smallest->bytes) {
                    smallest = &k;
                }
            }
        }
        if (n > kept::kBlocks) {
            release(*smallest);
            *smallest = blocks_.back();
            blocks_.pop_back();
        }
    }

  private:
    std::vector<Block> blocks_;
};

Keep &
keep()
{
    static thread_local Keep k;
    return k;
}

/**
 * Resize block @p p of @p use from @p bytes to @p new_bytes. A mapping's
 * pages move with it: nothing is copied or faulted again.
 */
void *
resizeBlock(kept::Use use, void *p, std::size_t bytes, std::size_t new_bytes)
{
    if (use == kept::Use::Table) {
        void *q = std::realloc(p, new_bytes);
        if (!q) {
            throw std::bad_alloc();
        }
        adviseHugePages(q, new_bytes);
        return q;
    }
    void *q = mremap(p, bytes, new_bytes, MREMAP_MAYMOVE);
    if (q == MAP_FAILED) {
        throw std::bad_alloc();
    }
    return q;
}

/**
 * A block of at least @p bytes; @p bytes becomes its size (whole
 * pages). @p fresh is set when it was just made (reads zero). A new
 * table comes from the global allocator, zeroed, so it can reuse memory
 * that other calls left free there; a new output or ring is a mapping,
 * which mremap grows in place.
 */
void *
takeBlock(kept::Use use, std::size_t &bytes, bool &fresh)
{
    bytes = wholePages(bytes);
    Keep::Block b = keepGone ? Keep::Block{nullptr, 0, use}
                             : keep().take(use, bytes);
    fresh = b.p == nullptr;
    if (fresh) {
        b.p = use == kept::Use::Table
                  ? zeroedAlloc(bytes)
                  : mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (!b.p || b.p == MAP_FAILED) {
            throw std::bad_alloc();
        }
    } else if (b.bytes < bytes) {
        b.p = resizeBlock(use, b.p, b.bytes, bytes);
    } else {
        bytes = b.bytes;
    }
    return b.p;
}

/** Hand @p p (@p bytes) to this thread's keep; release a Transient. */
void
giveBlock(kept::Use use, void *p, std::size_t bytes)
{
    if (keepGone || use == kept::Use::Transient) {
        Keep::release({p, bytes, use});
    } else {
        keep().give({p, bytes, use});
    }
}

} // namespace

ZeroedBlock::ZeroedBlock(std::size_t bytes) : bytes_(bytes)
{
    if (bytes < kept::kMinBytes) {
        p_ = std::calloc(bytes ? bytes : 1, 1);
        if (!p_) {
            throw std::bad_alloc();
        }
        return;
    }
    bool fresh = false;
    p_ = takeBlock(kept::Use::Table, bytes_, fresh);
    if (!fresh) {
        std::memset(p_, 0, bytes);
    }
}

ZeroedBlock::~ZeroedBlock()
{
    if (bytes_ < kept::kMinBytes) {
        std::free(p_);
    } else {
        giveBlock(kept::Use::Table, p_, bytes_);
    }
}

namespace detail {

void *
growStorage(kept::Use use, void *p, std::size_t used, std::size_t cap,
            std::size_t &bytes)
{
    if (bytes < kept::kMinBytes) {
        void *q = std::realloc(p, bytes);
        if (!q) {
            throw std::bad_alloc();
        }
        return q;
    }
    if (cap >= kept::kMinBytes) {
        bytes = wholePages(bytes);
        return resizeBlock(use, p, cap, bytes);
    }
    // Outgrowing the global allocator: the one copy.
    bool fresh = false;
    void *q = takeBlock(use, bytes, fresh);
    if (used) {
        std::memcpy(q, p, used);
    }
    std::free(p);
    return q;
}

void *
shrinkStorage(kept::Use use, void *p, std::size_t used, std::size_t &cap)
{
    if (cap < kept::kMinBytes) {
        if (used == cap) {
            return p;
        }
        if (used == 0) {
            std::free(p);
            cap = 0;
            return nullptr;
        }
        void *q = std::realloc(p, used);
        if (!q) {
            throw std::bad_alloc();
        }
        cap = used;
        return q;
    }
    // A block stays at least kMinBytes: that is how releaseStorage()
    // tells it from the global allocator's small storage.
    const std::size_t bytes = std::max(wholePages(used), kept::kMinBytes);
    if (bytes < cap) {
        p = resizeBlock(use, p, cap, bytes);
        cap = bytes;
    }
    return p;
}

void
releaseStorage(kept::Use use, void *p, std::size_t cap)
{
    if (cap >= kept::kMinBytes) {
        giveBlock(use, p, cap);
    } else {
        std::free(p);
    }
}

} // namespace detail

void *
zeroedAlloc(std::size_t bytes)
{
    void *p = std::calloc(bytes, 1);
    if (p) {
        adviseHugePages(p, bytes);
    }
    return p;
}

ContiguousBuffer::~ContiguousBuffer()
{
    if (data_) {
        unpoison(data_, capacity_);
        if (reserved_) {
            munmap(data_, kReserveBytes);
        } else {
            std::free(data_);
        }
    }
}

void
ContiguousBuffer::commit(std::size_t cap)
{
    cap = (cap + kPage - 1) & ~(kPage - 1);
    std::uint8_t *base = data_;
    if (!reserved_) {
        // Over-reserve by one huge page; trim the slack off both ends.
        auto *p = static_cast<std::uint8_t *>(
            mmap(nullptr, kReserveBytes + kHugePage, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
        if (p == MAP_FAILED) {
            throw std::bad_alloc();
        }
        const std::size_t head =
            -reinterpret_cast<std::uintptr_t>(p) & (kHugePage - 1);
        if (head) {
            munmap(p, head);
        }
        base = p + head;
        munmap(base + kReserveBytes, kHugePage - head);
#ifdef MADV_HUGEPAGE
        madvise(base + kHugePage, kReserveBytes - kHugePage, MADV_HUGEPAGE);
#endif
    }
    const std::size_t from = reserved_ ? capacity_ : 0;
    if (mprotect(base + from, cap - from, PROT_READ | PROT_WRITE) != 0) {
        if (!reserved_) {
            munmap(base, kReserveBytes);
        }
        throw std::bad_alloc();
    }
    if (!reserved_) {
        // Leave the first block: its claimed bytes move once.
        if (data_) {
            std::memcpy(base, data_, size_);
            unpoison(data_, capacity_);
            std::free(data_);
        }
        data_ = base;
        capacity_ = size_;
        reserved_ = true;
    }
    poison(data_ + capacity_, cap - capacity_);
    capacity_ = cap;
}

} // namespace sim
} // namespace cereal
