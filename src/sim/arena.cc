#include "sim/arena.hh"

#include <sys/mman.h>

namespace cereal {
namespace sim {

void *
zeroedAlloc(std::size_t bytes)
{
    void *p = std::calloc(bytes, 1);
#ifdef MADV_HUGEPAGE
    constexpr std::uintptr_t kPage = 4096;
    constexpr std::size_t kHugePage = std::size_t{2} << 20;
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

} // namespace sim
} // namespace cereal
