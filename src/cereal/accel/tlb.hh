/**
 * @file
 * Accelerator TLB model (Section V-E).
 *
 * 128 entries over 1 GB huge pages: with the paper's 128 GB prototype
 * the working set always fits, so misses are rare; the model still
 * implements LRU replacement and a configurable miss penalty so the
 * sensitivity can be measured (bench_abl_mai covers table sweeps).
 */

#ifndef CEREAL_CEREAL_ACCEL_TLB_HH
#define CEREAL_CEREAL_ACCEL_TLB_HH

#include <cstdint>

#include "sim/flat.hh"
#include "sim/types.hh"

namespace cereal {

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    Tlb(unsigned entries, Addr page_bytes, Cycles miss_penalty)
        : pageBytes_(page_bytes), missPenalty_(miss_penalty),
          lru_(entries)
    {
    }

    /**
     * Translate @p addr.
     * @return extra cycles spent (0 on a hit, the miss penalty on a
     *         miss)
     */
    Cycles
    lookup(Addr addr)
    {
        if (lru_.touch(addr / pageBytes_)) {
            ++hits_;
            return 0;
        }
        ++misses_;
        return missPenalty_;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    void
    reset()
    {
        lru_.clear();
        hits_ = 0;
        misses_ = 0;
    }

  private:
    Addr pageBytes_;
    Cycles missPenalty_;
    /** Cached virtual page numbers. */
    sim::LruSet<Addr> lru_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace cereal

#endif // CEREAL_CEREAL_ACCEL_TLB_HH
