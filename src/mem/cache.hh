/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Used to model the host CPU's L1/L2/L3 hierarchy (Table I) when timing
 * the software serializers. The model tracks tags and dirty bits only —
 * data lives in the functional heap — and reports hit/miss plus any
 * dirty victim that a fill evicts, so the caller can charge writebacks.
 *
 * Line and set counts are powers of two, so an access finds its set
 * with a shift and a mask. Each set keeps its ways in recency order,
 * most recent first, with invalid ways at the end: a hit moves its way
 * to the front and a miss evicts the last way, so LRU needs no stamps
 * and no victim scan. A way is one word, the line number it holds
 * (address >> log2(line size)) shifted up one with the dirty bit
 * below it. The words are one set-major array in a 64 B-aligned block:
 * an 8-way set fills one host cache line, and a cache costs one
 * allocation however many ways it has.
 */

#ifndef CEREAL_MEM_CACHE_HH
#define CEREAL_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace cereal {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    Addr sizeBytes;
    /** Associativity (ways per set). */
    unsigned ways;
    /** Line size in bytes. */
    Addr lineBytes = 64;
    /** Access (hit) latency in core cycles. */
    Cycles hitLatency;

    /** L1D of the i7-7820X: 32 KB, 8-way, 4-cycle. */
    static CacheConfig l1() { return {32 * 1024, 8, 64, 4}; }
    /** L2: 1 MB private, 16-way, 14-cycle. */
    static CacheConfig l2() { return {1024 * 1024, 16, 64, 14}; }
    /** L3: 11 MB shared, 11-way, 44-cycle. */
    static CacheConfig l3() { return {11 * 1024 * 1024, 11, 64, 44}; }
};

/** Outcome of a single cache access. */
struct CacheAccessResult
{
    bool hit;
    /** True when a dirty line was evicted by the fill. */
    bool writeback;
    /** Address of the evicted dirty line (valid when writeback). */
    Addr victimAddr;
};

/** One level of a cache hierarchy (tags + LRU order + dirty bits). */
class Cache
{
  public:
    /**
     * Panics unless the line size (at least 4 B) and the set count are
     * powers of two and there is at least one way.
     */
    explicit Cache(const CacheConfig &cfg);

    const CacheConfig &config() const { return cfg_; }

    /**
     * Access @p addr; on a miss the line is filled (write-allocate).
     * Writes mark the line dirty.
     */
    CacheAccessResult access(Addr addr, bool write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Drop all lines and reset statistics. */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double
    missRate() const
    {
        auto n = accesses();
        return n ? static_cast<double>(misses_) / static_cast<double>(n) : 0;
    }
    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    /** Index in block_ of @p line's set's first (most recent) way. */
    std::size_t
    setAt(Addr line) const
    {
        return waysAt_ +
               static_cast<std::size_t>(line & setMask_) * cfg_.ways;
    }

    CacheConfig cfg_;
    unsigned lineShift_;
    Addr setMask_;
    /**
     * From waysAt_, every set's ways in set order: (line << 1) | dirty,
     * or kBadAddr when invalid.
     */
    std::vector<std::uint64_t> block_;
    std::size_t waysAt_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace cereal

#endif // CEREAL_MEM_CACHE_HH
