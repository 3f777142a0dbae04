/**
 * @file
 * Memory/compute event sink used to time software serializers.
 *
 * Every software serializer in src/serde is functionally real — it
 * produces and parses actual byte streams. To *time* a run, a serializer
 * additionally narrates what a CPU implementation would do: loads and
 * stores with their addresses, and batches of plain ALU/branch work.
 * A MemSink consumes that narration online (no trace is buffered), so
 * the CPU timing model in src/cpu can replay it through a cache
 * hierarchy and DRAM as the serializer executes.
 *
 * Address-space convention: heap objects live at the heap's base, the
 * serialized stream is modelled at kStreamBase (sequential), and
 * serializer-private bookkeeping (hash tables of visited objects) at
 * kScratchBase.
 */

#ifndef CEREAL_SERDE_SINK_HH
#define CEREAL_SERDE_SINK_HH

#include <cstdint>

#include "sim/types.hh"

namespace cereal {

/** Simulated address where the serialized byte stream is buffered. */
constexpr Addr kStreamBase = 0x20'0000'0000ULL;

/** Simulated address of serializer-private scratch structures. */
constexpr Addr kScratchBase = 0x30'0000'0000ULL;

/** Online consumer of a serializer's memory/compute narration. */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /** A data load of @p bytes at @p addr. */
    virtual void load(Addr addr, std::uint32_t bytes) = 0;

    /** A data store of @p bytes at @p addr. */
    virtual void store(Addr addr, std::uint32_t bytes) = 0;

    /** @p ops units of non-memory work (ALU, branch, call overhead). */
    virtual void compute(std::uint64_t ops) = 0;

    /**
     * @p ops units of *straight-line* non-memory work: generated
     * serializer code with no per-field dispatch and perfectly
     * predictable branches (the plaincode backend). Timing models may
     * charge this below their branchy-dispatch base CPI; the default
     * treats it as plain compute.
     */
    virtual void computeStreamlined(std::uint64_t ops) { compute(ops); }

    /**
     * A *dependent* load: its address was produced by a just-loaded
     * value (pointer chasing during object-graph traversal), so no
     * other memory request can issue until it returns. Timing models
     * serialise on these; the default treats it as a plain load.
     */
    virtual void
    loadDep(Addr addr, std::uint32_t bytes)
    {
        load(addr, bytes);
    }

    /**
     * Phase annotation: the narration that follows belongs to the
     * serializer phase @p name — the paper's Fig. 2/3 taxonomy ("walk"
     * = graph traversal, "metadata" = class descriptors / type tables,
     * "copy" = field and array data movement, "patch" = reference
     * fix-ups) plus codec phases in the shuffle path ("compress",
     * "decompress", "checksum"). @p name must be a string literal.
     * Sinks that don't attribute time (counting, null) ignore it; the
     * CPU timing model turns consecutive phases into trace spans.
     */
    virtual void phase(const char *name) { (void)name; }
};

// Narration helpers shared by the software serializers: each takes the
// sink a serializer was handed, which is null on functional-only runs.

/** Narrate @p ops units of compute. */
inline void
charge(MemSink *sink, std::uint64_t ops)
{
    if (sink) {
        sink->compute(ops);
    }
}

/** Narrate a phase change (MemSink::phase). */
inline void
setPhase(MemSink *sink, const char *name)
{
    if (sink) {
        sink->phase(name);
    }
}

/**
 * The 8 B-aligned bucket that object @p key hashes to in a serializer's
 * visited-object table, a 4 MiB region at kScratchBase.
 */
inline Addr
probeBucket(Addr key)
{
    return roundDown(
        kScratchBase + (key * 0x9e3779b97f4a7c15ULL) % (1 << 22), 8);
}

/** Narrate one visited-table probe: @p ops of hashing, one bucket load. */
inline void
chargeProbe(MemSink *sink, std::uint64_t ops, Addr key)
{
    if (!sink) {
        return;
    }
    sink->compute(ops);
    sink->load(probeBucket(key), 8);
}

/** Sink that ignores everything (functional-only runs). */
class NullSink : public MemSink
{
  public:
    void load(Addr, std::uint32_t) override {}
    void store(Addr, std::uint32_t) override {}
    void compute(std::uint64_t) override {}
};

/** Sink that only counts traffic (tests and sanity checks). */
class CountingSink : public MemSink
{
  public:
    void
    load(Addr, std::uint32_t bytes) override
    {
        ++loads;
        loadBytes += bytes;
    }

    void
    store(Addr, std::uint32_t bytes) override
    {
        ++stores;
        storeBytes += bytes;
    }

    void compute(std::uint64_t ops) override { computeOps += ops; }

    void
    computeStreamlined(std::uint64_t ops) override
    {
        computeOps += ops;
        streamlinedOps += ops;
    }

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadBytes = 0;
    std::uint64_t storeBytes = 0;
    std::uint64_t computeOps = 0;
    /** Subset of computeOps narrated as straight-line generated code. */
    std::uint64_t streamlinedOps = 0;
};

} // namespace cereal

#endif // CEREAL_SERDE_SINK_HH
