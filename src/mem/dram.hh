/**
 * @file
 * Cycle-level DDR4 main-memory model.
 *
 * Models the organisation from the paper's Table I: DDR4-2400 with four
 * channels (19.2 GB/s each, 76.8 GB/s aggregate) and ~40 ns zero-load
 * latency. Each channel has a set of banks with open-row (row-buffer)
 * state; an access is a single 64 B burst. The model resolves each
 * request to a completion tick by serialising on (a) the target bank's
 * command readiness and (b) the channel data bus, charging tRP/tRCD on
 * row-buffer misses and tCAS plus the burst on every access.
 *
 * The model is *schedule-synchronous*: callers present an issue tick and
 * receive the completion tick immediately. Front ends (the CPU cache
 * hierarchy and the Cereal MAI) enforce their own outstanding-request
 * limits, which is where memory-level-parallelism differences between a
 * CPU and the accelerator come from.
 */

#ifndef CEREAL_MEM_DRAM_HH
#define CEREAL_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace cereal {

/** Configuration for the DDR4 model (defaults: Table I organisation). */
struct DramConfig
{
    /** Number of independent channels. */
    unsigned numChannels = 4;
    /** Banks per channel (bank groups flattened). */
    unsigned banksPerChannel = 16;
    /** Row-buffer (page) size per bank, bytes. */
    Addr rowBytes = 8192;
    /** Transfer granule: one burst of 64 B. */
    Addr burstBytes = 64;

    /** Activate-to-read delay (row miss component), ns. */
    double tRCDns = 14.16;
    /** Read CAS latency, ns. */
    double tCASns = 14.16;
    /** Precharge delay (row conflict component), ns. */
    double tRPns = 14.16;
    /** Data burst duration for 64 B on one channel, ns.
     *  19.2 GB/s per channel -> 64 B in ~3.33 ns. */
    double tBURSTns = 3.33;
    /** Fixed controller + interconnect overhead per request, ns.
     *  Chosen so zero-load row-hit latency lands near 40 ns:
     *  tCAS + tBURST + overhead ~= 40 ns. */
    double tCtrlNs = 22.5;

    /** Peak bandwidth across all channels, bytes/second. */
    double
    peakBandwidth() const
    {
        return static_cast<double>(burstBytes) / (tBURSTns * 1e-9) *
               numChannels;
    }
};

/** Result of one DRAM access. */
struct DramResult
{
    /** Tick at which the data is available (read) or committed (write). */
    Tick completeTick;
    /** Whether the access hit in the row buffer. */
    bool rowHit;
};

/**
 * The DDR4 memory model.
 *
 * Thread-unsafe by design: the simulator is single-threaded and event
 * ordering is deterministic.
 */
class Dram
{
  public:
    /**
     * @p name and @p eq are unused: the model is schedule-synchronous
     * and registers no named statistics. They stay so that every
     * construction site, hostbench/driver.cc among them, is unchanged.
     */
    Dram(const std::string &name, EventQueue &eq,
         const DramConfig &cfg = DramConfig());

    Dram(const Dram &) = delete;
    Dram &operator=(const Dram &) = delete;

    /** The configuration this model was built with. */
    const DramConfig &config() const { return cfg_; }

    /**
     * Perform one 64 B-granule access.
     *
     * Requests larger than one burst should be split by the caller.
     *
     * @param addr   physical address (any alignment; the containing
     *               burst granule is accessed)
     * @param write  true for a write access
     * @param issue  earliest tick the request may start
     * @return completion tick and row-hit flag
     */
    DramResult access(Addr addr, bool write, Tick issue);

    /**
     * Access a byte range, splitting into bursts.
     * @return completion tick of the final burst.
     */
    Tick accessRange(Addr addr, Addr bytes, bool write, Tick issue);

    /** Bytes read since construction. */
    std::uint64_t bytesRead() const { return reads_ * cfg_.burstBytes; }
    /** Bytes written since construction. */
    std::uint64_t bytesWritten() const { return writes_ * cfg_.burstBytes; }
    /** Bytes moved on channel @p ch since construction. */
    std::uint64_t channelBytes(unsigned ch) const { return chBytes_[ch]; }
    /** Total accesses since construction. */
    std::uint64_t accesses() const { return reads_ + writes_; }
    /** Row-buffer hits since construction. */
    std::uint64_t rowHits() const { return rowHits_; }

    /**
     * Achieved bandwidth over [window_start, window_end] as a fraction
     * of the configured peak.
     */
    double utilization(Tick window_start, Tick window_end) const;

    /**
     * Emit per-channel data-bus busy spans ("rd_burst"/"wr_burst" on
     * child tracks ch0..chN) under @p em. Channel spans never overlap
     * (the bus serialises bursts), so a channel's total span time is
     * its bus occupancy.
     */
    void setTrace(const trace::TraceEmitter &em);

  private:
    struct Bank
    {
        /** Currently open row (kBadAddr when closed). */
        Addr openRow = kBadAddr;
        /** Earliest tick the bank can accept a new command. */
        Tick readyAt = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        /** Earliest tick the data bus is free. */
        Tick busFreeAt = 0;
    };

    /** Map an address to (channel, bank, row) with shifts and masks. */
    void decode(Addr addr, unsigned &channel, unsigned &bank,
                Addr &row) const;

    DramConfig cfg_;
    /** Address bits below the channel field and below the bank field. */
    unsigned burstShift_, rowShift_;
    /** log2 of the bank count. */
    unsigned bankBits_;
    std::vector<Channel> channels_;
    /** One emitter per channel; empty when tracing is off. */
    std::vector<trace::TraceEmitter> chTrace_;
    /**
     * Time-series registration with the ambient metrics recorder:
     * per-channel bandwidth utilization and queue depth, plus row-hit
     * rate and the read/write burst counts.
     */
    metrics::Group metrics_;

    Tick tRCD_, tCAS_, tRP_, tBURST_, tCtrl_;

    /** Counters since construction, one per quantity. */
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t rowHits_ = 0;
    std::vector<std::uint64_t> chBytes_;
};

} // namespace cereal

#endif // CEREAL_MEM_DRAM_HH
