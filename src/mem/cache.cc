#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "sim/logging.hh"

namespace cereal {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    // Line size >= 2 keeps every line number below kBadAddr.
    panic_if(!isPowerOf2(cfg_.lineBytes) || cfg_.lineBytes < 2,
             "line size must be 2^n bytes, n >= 1");
    panic_if(cfg_.ways == 0 || cfg_.ways > 64,
             "cache needs 1 to 64 ways, not %u", cfg_.ways);
    const Addr num_sets = cfg_.sizeBytes / (cfg_.lineBytes * cfg_.ways);
    panic_if(num_sets == 0, "cache smaller than one set");
    panic_if(!isPowerOf2(num_sets), "cache set count %llu is not 2^n",
             (unsigned long long)num_sets);
    lineShift_ = static_cast<unsigned>(std::countr_zero(cfg_.lineBytes));
    setMask_ = num_sets - 1;

    // Start the tags on a 64 B boundary (8 words).
    const std::size_t ways = num_sets * cfg_.ways;
    block_.resize(7 + 2 * ways + num_sets);
    const auto base = reinterpret_cast<std::uintptr_t>(block_.data());
    tagsAt_ = ((64 - base % 64) % 64) / sizeof(std::uint64_t);
    stampsAt_ = tagsAt_ + ways;
    dirtyAt_ = stampsAt_ + ways;
    std::fill(block_.begin() + tagsAt_, block_.begin() + stampsAt_,
              kBadAddr);
}

CacheAccessResult
Cache::access(Addr addr, bool write)
{
    ++clock_;
    const Addr line = addr >> lineShift_;
    const std::size_t first = setWays(line);
    std::uint64_t *tags = &block_[tagsAt_ + first];
    std::uint64_t *stamps = &block_[stampsAt_ + first];
    std::uint64_t &dirty = block_[dirtyAt_ + (line & setMask_)];

    // Hit path.
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == line) {
            stamps[w] = clock_;
            dirty |= std::uint64_t{write} << w;
            ++hits_;
            return {true, false, kBadAddr};
        }
    }

    // Miss: pick the first invalid way, else the LRU way.
    ++misses_;
    unsigned victim = 0;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == kBadAddr) {
            victim = w;
            break;
        }
        if (stamps[w] < stamps[victim]) {
            victim = w;
        }
    }

    const std::uint64_t bit = std::uint64_t{1} << victim;
    CacheAccessResult res{false, false, kBadAddr};
    if (tags[victim] != kBadAddr && (dirty & bit)) {
        res.writeback = true;
        res.victimAddr = tags[victim] << lineShift_;
    }
    tags[victim] = line;
    stamps[victim] = clock_;
    dirty = write ? dirty | bit : dirty & ~bit;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = addr >> lineShift_;
    const std::uint64_t *tags = &block_[tagsAt_ + setWays(line)];
    return std::find(tags, tags + cfg_.ways, line) != tags + cfg_.ways;
}

void
Cache::flush()
{
    std::fill(block_.begin() + tagsAt_, block_.begin() + stampsAt_,
              kBadAddr);
    std::fill(block_.begin() + stampsAt_, block_.end(), 0);
    resetStats();
}

} // namespace cereal
