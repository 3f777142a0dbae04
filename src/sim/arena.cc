#include "sim/arena.hh"

#include <sys/mman.h>

namespace cereal {
namespace sim {

namespace {

constexpr std::uintptr_t kPage = 4096;
constexpr std::size_t kHugePage = std::size_t{2} << 20;

} // namespace

void *
zeroedAlloc(std::size_t bytes)
{
    void *p = std::calloc(bytes, 1);
#ifdef MADV_HUGEPAGE
    if (p && bytes >= kHugePage) {
        // Advise the whole pages inside the block.
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        const std::uintptr_t first = (at + kPage - 1) & ~(kPage - 1);
        const std::uintptr_t last = (at + bytes) & ~(kPage - 1);
        madvise(reinterpret_cast<void *>(first), last - first,
                MADV_HUGEPAGE);
    }
#endif
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
