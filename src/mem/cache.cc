#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "sim/logging.hh"

namespace cereal {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    // Line size >= 4 keeps every line number below 2^62, so a way word
    // (line << 1) | dirty never reaches kBadAddr.
    panic_if(!isPowerOf2(cfg_.lineBytes) || cfg_.lineBytes < 4,
             "line size must be 2^n bytes, n >= 2");
    panic_if(cfg_.ways == 0, "cache needs at least one way");
    const Addr num_sets = cfg_.sizeBytes / (cfg_.lineBytes * cfg_.ways);
    panic_if(num_sets == 0, "cache smaller than one set");
    panic_if(!isPowerOf2(num_sets), "cache set count %llu is not 2^n",
             (unsigned long long)num_sets);
    lineShift_ = static_cast<unsigned>(std::countr_zero(cfg_.lineBytes));
    setMask_ = num_sets - 1;

    // Start the ways on a 64 B boundary (8 words).
    block_.assign(7 + num_sets * cfg_.ways, kBadAddr);
    const auto base = reinterpret_cast<std::uintptr_t>(block_.data());
    waysAt_ = ((64 - base % 64) % 64) / sizeof(std::uint64_t);
}

// The model's hottest function starts on a 64 B boundary so that code
// growth elsewhere cannot move its loop across one: at 32 B past a
// boundary, cluster_dataflow's operator passes ran about 10% slower
// (4-vCPU x86-64 host).
[[gnu::aligned(64)]] CacheAccessResult
Cache::access(Addr addr, bool write)
{
    const Addr line = addr >> lineShift_;
    std::uint64_t *ways = &block_[setAt(line)];
    const unsigned n = cfg_.ways;

    // Hit: move the way to the front, keeping its dirty bit.
    for (unsigned w = 0; w < n; ++w) {
        const std::uint64_t word = ways[w];
        if ((word >> 1) == line) {
            std::copy_backward(ways, ways + w, ways + w + 1);
            ways[0] = word | std::uint64_t{write};
            ++hits_;
            return {true, false, kBadAddr};
        }
    }

    // Miss: the last way is invalid or least recent; it leaves the set.
    ++misses_;
    const std::uint64_t victim = ways[n - 1];
    CacheAccessResult res{false, false, kBadAddr};
    if (victim != kBadAddr && (victim & 1)) {
        res.writeback = true;
        res.victimAddr = (victim >> 1) << lineShift_;
    }
    std::copy_backward(ways, ways + n - 1, ways + n);
    ways[0] = (line << 1) | std::uint64_t{write};
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = addr >> lineShift_;
    const std::uint64_t *ways = &block_[setAt(line)];
    return std::any_of(ways, ways + cfg_.ways, [line](std::uint64_t word) {
        return (word >> 1) == line;
    });
}

void
Cache::flush()
{
    std::fill(block_.begin(), block_.end(), kBadAddr);
    resetStats();
}

} // namespace cereal
