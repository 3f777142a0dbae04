/**
 * @file
 * The Cereal accelerator device: command queue, request scheduler, and
 * the pools of serialization/deserialization units (Section V-A,
 * Figure 6).
 *
 * The host submits serialize/deserialize commands; the scheduler
 * forwards each to the earliest-available unit of the right kind. The
 * device tracks per-module busy time, which the area/power model turns
 * into energy (Table V / Figure 17).
 *
 * Modelling note: the paper's MAI is one shared 64-entry structure. In
 * this schedule-synchronous model each unit is given its own MAI view
 * with the full entry count; cross-unit memory contention is still
 * captured where it physically bites — in the shared DDR4 bank/bus
 * model. bench_abl_mai sweeps the entry count to quantify the MLP
 * sensitivity.
 */

#ifndef CEREAL_CEREAL_ACCEL_DEVICE_HH
#define CEREAL_CEREAL_ACCEL_DEVICE_HH

#include <memory>
#include <vector>

#include "cereal/accel/accel_config.hh"
#include "cereal/accel/du.hh"
#include "cereal/accel/mai.hh"
#include "cereal/accel/su.hh"
#include "cereal/accel/tlb.hh"
#include "cereal/cereal_serializer.hh"
#include "metrics/metrics.hh"

namespace cereal {

/** Completion record of one accelerator command. */
struct AccelOpResult
{
    /** Tick the command was submitted. */
    Tick submit = 0;
    /** Tick the assigned unit began executing. */
    Tick start = 0;
    /** Completion tick. */
    Tick done = 0;
    /** Index of the unit that executed the command. */
    unsigned unit = 0;
    /** Wall time (done - submit), seconds. */
    double latencySeconds = 0;
    /** Total bytes moved to/from memory. */
    std::uint64_t bytes = 0;
};

/** The accelerator. */
class CerealDevice
{
  public:
    CerealDevice(Dram &dram, const AccelConfig &cfg = AccelConfig());

    const AccelConfig &config() const { return cfg_; }

    /**
     * Submit a serialization command at tick @p submit.
     * Timing only — run the functional CerealSerializer separately for
     * the bytes.
     */
    AccelOpResult serialize(Heap &heap, Addr root, Tick submit);

    /**
     * Submit a deserialization command at tick @p submit for a stream
     * whose structure is @p stream, reconstructing at @p dst_base.
     */
    AccelOpResult deserialize(const CerealStream &stream, Addr dst_base,
                              Tick submit);

    /** Accumulated SU busy time (across all SUs), ticks. */
    Tick suBusyTicks() const { return suBusy_; }
    /** Accumulated DU busy time (across all DUs), ticks. */
    Tick duBusyTicks() const { return duBusy_; }

    /**
     * Attach a trace emitter. Each unit gets a child track ("su0",
     * "du0", ...) carrying one "serialize"/"deserialize" span per op
     * (unit occupancy), the MAI hit/miss/TLB instants of that unit's
     * memory view, and the SU's "hm_queue" depth counter.
     */
    void setTrace(const trace::TraceEmitter &em);

  private:
    AccelConfig cfg_;
    Tlb tlb_;
    /** Per-unit MAI views (see file comment). */
    std::vector<std::unique_ptr<Mai>> suMai_;
    std::vector<std::unique_ptr<Mai>> duMai_;
    std::vector<Tick> suFreeAt_;
    std::vector<Tick> duFreeAt_;
    /** Per-unit trace tracks (empty when tracing is off). */
    std::vector<trace::TraceEmitter> suTrace_;
    std::vector<trace::TraceEmitter> duTrace_;
    /** Stream scratch region allocator (distinct per op). */
    Addr nextStreamBase_ = 0x100'0000'0000ULL;

    Tick suBusy_ = 0;
    Tick duBusy_ = 0;
    /**
     * Time-series registration with the ambient metrics recorder:
     * SU/DU busy fractions and the MAI coalesce-hit rate.
     */
    metrics::Group metrics_;
    /** Command-queue + scheduler latency, cycles. */
    static constexpr Cycles kDispatchCycles = 4;
};

} // namespace cereal

#endif // CEREAL_CEREAL_ACCEL_DEVICE_HH
