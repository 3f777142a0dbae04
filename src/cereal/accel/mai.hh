/**
 * @file
 * Memory Access Interface of the Cereal accelerator (Section V-A).
 *
 * The MAI is the accelerator's only path to memory. It provides:
 *  - an associative table of (up to) 64 outstanding requests — this is
 *    where Cereal's memory-level parallelism comes from: 64 overlapped
 *    misses versus the ~10 a CPU core sustains;
 *  - request coalescing in the style of MSHRs: a read that falls into a
 *    block already in flight joins that entry instead of re-accessing
 *    DRAM;
 *  - (functionally) reorder buffers so requesters see responses in
 *    issue order — captured here by returning per-request completion
 *    ticks that callers consume in order;
 *  - atomic read-modify-write, used by the header manager's visited
 *    check; modelled as a read whose entry also carries the write.
 *
 * The model is schedule-synchronous like the Dram model: callers pass
 * an earliest-issue tick and receive the completion tick.
 */

#ifndef CEREAL_CEREAL_ACCEL_MAI_HH
#define CEREAL_CEREAL_ACCEL_MAI_HH

#include <cstdint>

#include "cereal/accel/tlb.hh"
#include "mem/dram.hh"
#include "sim/flat.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace cereal {

/** The accelerator's memory access interface. */
class Mai
{
  public:
    /**
     * @param dram    shared memory model
     * @param entries outstanding-request capacity (Table I: 64)
     * @param tlb     optional translation stage charged per request
     */
    Mai(Dram &dram, unsigned entries, Tlb *tlb = nullptr)
        : dram_(&dram), entries_(entries), tlb_(tlb)
    {
    }

    /**
     * Read @p bytes at @p addr, issued no earlier than @p issue.
     * @return tick at which the last burst's data is available
     */
    Tick
    read(Addr addr, Addr bytes, Tick issue)
    {
        return rangeAccess(addr, bytes, false, issue);
    }

    /** Write @p bytes at @p addr. */
    Tick
    write(Addr addr, Addr bytes, Tick issue)
    {
        return rangeAccess(addr, bytes, true, issue);
    }

    /**
     * Atomic read-modify-write of one 8 B word (visited check). The
     * entry occupies the outstanding table like a read; the merged
     * write is free once the line is held.
     */
    Tick atomicRmw(Addr addr, Tick issue);

    std::uint64_t coalescedHits() const { return coalesced_; }
    std::uint64_t requests() const { return requests_; }

    /**
     * Emit "mai_hit" (coalesce/data-buffer) and "mai_miss" (DRAM path)
     * instants, plus "tlb_miss" when translation charged a penalty, on
     * @p em's track.
     */
    void setTrace(trace::TraceEmitter em) { trace_ = std::move(em); }

    void
    reset()
    {
        outstanding_.clear();
        lines_.clear();
        inflightLines_ = 0;
        lineFifo_.clear();
        coalesced_ = 0;
        requests_ = 0;
    }

  private:
    /** Every 64 B block of [addr, addr + bytes), all issued at @p issue. */
    Tick rangeAccess(Addr addr, Addr bytes, bool write, Tick issue);

    /** One 64 B-granule access through the table. */
    Tick blockAccess(Addr block, bool write, Tick issue);

    /** Stall @p issue until a table slot frees up. */
    Tick acquireSlot(Tick issue);

    Dram *dram_;
    unsigned entries_;
    Tlb *tlb_;

    /** Completion ticks of in-flight requests (FIFO). */
    sim::RingQueue<Tick> outstanding_;

    /** A fetched block's state; present while either flag is set. */
    struct Line
    {
        /** Completion tick of the block's last DRAM read. */
        Tick done;
        /** Counted as in flight, for coalescing. */
        bool inflight;
        /** Held in the data buffer. */
        bool buffered;
    };

    /**
     * Fetched blocks by address. In-flight lines let a read join a
     * fetch of the same block. Buffered lines are the MAI's 4 KB data
     * buffer (Table I): the last `entries_` fetched blocks, in
     * `lineFifo_` order. A read that hits a buffered block is served
     * without a DRAM access (the SU's visited check and the subsequent
     * object-handler load share lines this way).
     */
    sim::AddrMap<Line> lines_;
    /** Lines with the in-flight flag set. */
    std::size_t inflightLines_ = 0;
    sim::RingQueue<Addr> lineFifo_;

    std::uint64_t coalesced_ = 0;
    std::uint64_t requests_ = 0;

    trace::TraceEmitter trace_;
};

} // namespace cereal

#endif // CEREAL_CEREAL_ACCEL_MAI_HH
