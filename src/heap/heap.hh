/**
 * @file
 * Simulated JVM heap with HotSpot-style object layout.
 *
 * The heap is a bump allocator over a flat byte arena mapped at a
 * configurable simulated base address. Objects follow the layout in the
 * paper's Figure 1(a): a 16 B header (mark word + klass pointer), an
 * optional 8 B Cereal extension slot (Section V-E), then 8 B-aligned
 * fields. The klass pointer holds the simulated address of the class's
 * metadata block (see KlassRegistry), so type-descriptor fetches can be
 * charged to the memory model.
 *
 * Mark word bit assignment (Section II):
 *   [30:0]  identity hash code
 *   [33:31] synchronisation state
 *   [39:34] GC state
 *   [63:40] unused
 *
 * Cereal extension word (Section V-E):
 *   [15:0]  last-serialization counter (visited tracking)
 *   [23:16] owning unit id (shared-object support)
 *   [63:24] relative address of the object in the serialized stream
 */

#ifndef CEREAL_HEAP_HEAP_HH
#define CEREAL_HEAP_HEAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "heap/klass.hh"
#include "sim/arena.hh"
#include "sim/types.hh"

namespace cereal {

/** Mark-word pack/unpack helpers. */
namespace markword {

constexpr std::uint64_t
make(std::uint32_t hash, std::uint8_t sync = 0, std::uint8_t gc = 0)
{
    return (static_cast<std::uint64_t>(hash) & 0x7fffffffULL) |
           ((static_cast<std::uint64_t>(sync) & 0x7ULL) << 31) |
           ((static_cast<std::uint64_t>(gc) & 0x3fULL) << 34);
}

constexpr std::uint32_t
hash(std::uint64_t mark)
{
    return static_cast<std::uint32_t>(mark & 0x7fffffffULL);
}

constexpr std::uint8_t
sync(std::uint64_t mark)
{
    return static_cast<std::uint8_t>((mark >> 31) & 0x7ULL);
}

constexpr std::uint8_t
gc(std::uint64_t mark)
{
    return static_cast<std::uint8_t>((mark >> 34) & 0x3fULL);
}

} // namespace markword

/** Cereal header-extension pack/unpack helpers. */
namespace extword {

constexpr std::uint16_t
serialCounter(std::uint64_t w)
{
    return static_cast<std::uint16_t>(w & 0xffffULL);
}

constexpr std::uint8_t
unitId(std::uint64_t w)
{
    return static_cast<std::uint8_t>((w >> 16) & 0xffULL);
}

constexpr std::uint64_t
relAddr(std::uint64_t w)
{
    return w >> 24;
}

constexpr std::uint64_t
make(std::uint16_t counter, std::uint8_t unit, std::uint64_t rel)
{
    return static_cast<std::uint64_t>(counter) |
           (static_cast<std::uint64_t>(unit) << 16) | (rel << 24);
}

} // namespace extword

/**
 * One simulated Java heap.
 *
 * Not copyable; serializers move object graphs *between* heaps, so a
 * test typically owns a source heap and a destination heap sharing one
 * KlassRegistry.
 */
class Heap
{
  public:
    /**
     * @param registry shared class registry (must outlive the heap)
     * @param base     simulated address of the first object
     */
    explicit Heap(KlassRegistry &registry, Addr base = 0x1'0000'0000ULL);

    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    const KlassRegistry &registry() const { return *registry_; }
    KlassRegistry &registry() { return *registry_; }

    /** Allocate one instance of non-array class @p id. */
    Addr allocateInstance(KlassId id);

    /** Allocate an array of @p n elements of @p elem. */
    Addr allocateArray(FieldType elem, std::uint64_t n);

    /**
     * Reserve @p bytes of zeroed arena space without creating an object
     * (used by deserializers that reconstruct objects in place).
     */
    Addr allocateRaw(Addr bytes);

    /**
     * Record that @p addr now holds a fully formed object (after a
     * deserializer wrote it into raw space).
     */
    void noteObject(Addr addr) { objects_.push_back(addr); }

    // --- raw memory access -------------------------------------------

    std::uint64_t load64(Addr addr) const;
    void store64(Addr addr, std::uint64_t v);
    void loadBytes(Addr addr, void *dst, Addr n) const;
    void storeBytes(Addr addr, const void *src, Addr n);

    /** True if [addr, addr+n) lies inside the allocated arena. */
    bool contains(Addr addr, Addr n = 1) const;

    /**
     * Read-only host view of [addr, addr+n), checked once for the whole
     * range. Valid until the next allocation.
     */
    const std::uint8_t *
    view(Addr addr, Addr n) const
    {
        return hostPtr(addr, n);
    }

    // --- object-level helpers ----------------------------------------

    /** Class of the object at @p obj (via its klass pointer). */
    KlassId klassOf(Addr obj) const;

    /** Total 8 B slots of the object at @p obj (arrays included). */
    unsigned objectSlots(Addr obj) const;

    /** Total bytes of the object at @p obj. */
    Addr objectBytes(Addr obj) const { return Addr{objectSlots(obj)} * 8; }

    /** Element count of the array object at @p obj. */
    std::uint64_t arrayLength(Addr obj) const;

    /**
     * Per-instance layout bitmap (bit per 8 B slot, set = reference),
     * valid for both instances and arrays (paper Figure 4a). Borrowed:
     * an instance's view reads the registry's class layout; an array's
     * is the header plus its run of reference elements. Its size() is
     * objectSlots(obj).
     */
    SlotBitmap instanceBitmap(Addr obj) const;

    // --- bookkeeping ---------------------------------------------------

    Addr base() const { return base_; }
    Addr top() const { return base_ + used_; }
    Addr usedBytes() const { return used_; }
    std::uint64_t objectCount() const { return objects_.size(); }
    const std::vector<Addr> &objects() const { return objects_; }

    /**
     * Emulate the GC clearing pass from Section V-E: zero the Cereal
     * extension word of every object so visited counters cannot alias
     * across counter overflow.
     */
    void clearCerealMetadata();

    /**
     * Visited mark for the next Cereal serialization of this heap.
     * Marks are unique per heap, whichever serializer draws them, until
     * the 16-bit counter wraps; then every extension word is cleared
     * (the GC-assisted reset of Section V-E) and the count restarts.
     */
    std::uint16_t nextCerealCounter();

  private:
    std::uint8_t *hostPtr(Addr addr, Addr n);
    const std::uint8_t *hostPtr(Addr addr, Addr n) const;
    void ensureCapacity(Addr bytes_needed);
    void initHeader(Addr obj, KlassId id);

    KlassRegistry *registry_;
    Addr base_;
    Addr used_ = 0;
    sim::ContiguousBuffer mem_;
    std::vector<Addr> objects_;
    std::uint32_t nextHash_ = 0x1234567;
    /** Last visited mark handed out; 0 matches no live mark. */
    std::uint16_t cerealCounter_ = 0;
};

} // namespace cereal

#endif // CEREAL_HEAP_HEAP_HH
