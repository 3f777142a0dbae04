/**
 * @file
 * Dense per-object table over one heap's arena.
 *
 * The paper's header manager keeps its visited state in each object's
 * own extension word (Section V-E): the key is the object's address and
 * nothing is hashed. ObjectTable gives the simulator's own per-object
 * state the same shape: one 32-bit entry per 16 B granule of the arena,
 * indexed by (obj - base) / 16. Every object is at least 16 B (its
 * header; see kMinObjectBytes), so two object starts never share a
 * granule, and a key must be an object start. An entry of 0 means
 * "absent", so callers store a value plus one (see entry()).
 *
 * It costs a quarter of the heap's allocated bytes, zeroed, from a
 * sim::ZeroedBlock (a large table reuses a block its thread kept from
 * an earlier call), so it suits walks that reach a large share of the
 * heap: the SU's visited table, the round-trip isomorphism check and the
 * software serializers' handle maps. DESIGN.md ("Simulation performance
 * model") lists the callers and why none of them walks a small graph
 * inside a much larger heap repeatedly.
 */

#ifndef CEREAL_HEAP_OBJECT_TABLE_HH
#define CEREAL_HEAP_OBJECT_TABLE_HH

#include <cstdint>

#include "heap/heap.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"

namespace cereal {

/** One 32-bit entry per 16 B granule of a heap's arena, zeroed. */
class ObjectTable
{
  public:
    static constexpr Addr kGranule = kMinObjectBytes;

    /**
     * Cover the arena @p heap has allocated so far. Objects allocated
     * later are outside the table.
     */
    explicit ObjectTable(const Heap &heap);

    /** The entry of the object at @p obj; panics outside the arena. */
    std::uint32_t &
    operator[](Addr obj)
    {
        return static_cast<std::uint32_t *>(slots_.get())[index(obj)];
    }

    /** Entry index of the object at @p obj in the captured arena. */
    std::uint32_t
    index(Addr obj) const
    {
        return offset(base_, bytes_, obj) / kGranule;
    }

    /** 8 B slot index of @p obj in @p heap's current arena (a value). */
    static std::uint32_t
    slot(const Heap &heap, Addr obj)
    {
        return offset(heap.base(), heap.usedBytes(), obj) / 8;
    }

    /** Entries held: one per granule of the captured arena, plus one. */
    std::size_t size() const { return bytes_ / kGranule + 1; }

    /** @p v stored as an entry (v + 1); panics past 2^32 - 2. */
    static std::uint32_t
    entry(std::uint64_t v)
    {
        panic_if(v >= kMaxEntry, "object table value %llu exceeds 32 bits",
                 (unsigned long long)v);
        return static_cast<std::uint32_t>(v + 1);
    }

  private:
    static constexpr std::uint64_t kMaxEntry = 0xffffffffULL;

    /** @p obj - @p base; panics outside [base, base + bytes) or off 8 B. */
    static Addr
    offset(Addr base, Addr bytes, Addr obj)
    {
        // Below the base, obj - base wraps past bytes.
        const Addr off = obj - base;
        panic_if(off >= bytes || off % 8 != 0,
                 "object %#llx outside the heap [%#llx, %#llx)",
                 (unsigned long long)obj, (unsigned long long)base,
                 (unsigned long long)(base + bytes));
        return off;
    }

    Addr base_;
    Addr bytes_;
    sim::ZeroedBlock slots_;
};

} // namespace cereal

#endif // CEREAL_HEAP_OBJECT_TABLE_HH
