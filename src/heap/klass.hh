/**
 * @file
 * Class (klass) metadata model mirroring HotSpot's type descriptors.
 *
 * A KlassDescriptor captures what the paper's Section II calls the "type
 * descriptor": the object layout (which 8 B slots hold references) and
 * the total object size. The KlassRegistry owns all descriptors, assigns
 * integer class IDs, and materialises each descriptor into a simulated
 * metadata memory region so that metadata fetches cost real (modelled)
 * memory traffic — the klass pointer in every object header is the
 * simulated address of that metadata block.
 *
 * Layout contract (paper Section II / Figure 1a):
 *  - every field occupies one 8 B-aligned slot;
 *  - the header is 16 B: mark word (8 B) + klass pointer (8 B);
 *  - with the Cereal header extension (Section V-E) an extra 8 B slot
 *    follows the klass pointer;
 *  - arrays add one slot holding the element count, then the elements.
 */

#ifndef CEREAL_HEAP_KLASS_HH
#define CEREAL_HEAP_KLASS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace cereal {

/** Integer class identifier (dense, assigned at registration). */
using KlassId = std::uint32_t;

/** Sentinel for "no class". */
constexpr KlassId kBadKlassId = ~KlassId{0};

/** The smallest object, its header: object starts are this far apart. */
constexpr Addr kMinObjectBytes = 16;

/** Java field/element types. */
enum class FieldType : std::uint8_t
{
    Boolean,
    Byte,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
    Reference,
};

/** Size in bytes of one element of @p t when packed inside an array. */
unsigned fieldTypeBytes(FieldType t);

/** Printable name of a field type ("int", "long", ...). */
const char *fieldTypeName(FieldType t);

/** One declared instance field. */
struct FieldDesc
{
    std::string name;
    FieldType type;
};

/**
 * Immutable description of one class: its fields (for instance classes)
 * or element type (for array classes).
 */
class KlassDescriptor
{
  public:
    /** Build a plain instance class. */
    KlassDescriptor(std::string name, std::vector<FieldDesc> fields);

    /** Build an array class with elements of @p elem. */
    static KlassDescriptor makeArray(std::string name, FieldType elem);

    const std::string &name() const { return name_; }
    bool isArray() const { return isArray_; }
    FieldType elemType() const { return elemType_; }
    const std::vector<FieldDesc> &fields() const { return fields_; }
    std::size_t numFields() const { return fields_.size(); }

    /** Indices (into fields()) of the reference-typed fields. */
    const std::vector<std::uint32_t> &refFields() const { return refFields_; }

  private:
    KlassDescriptor() = default;

    std::string name_;
    std::vector<FieldDesc> fields_;
    bool isArray_ = false;
    FieldType elemType_ = FieldType::Reference;
    std::vector<std::uint32_t> refFields_;
};

/**
 * Borrowed layout bitmap of one object: bit i is set iff 8 B slot i
 * holds a reference (paper Figure 4a).
 *
 * A view never owns storage. It reads either caller-held 64-bit words
 * (bit i is bit i % 64 of word i / 64: the registry's per-class layout,
 * or a bitmap decoded from a stream), or, for an array, one run
 * [first, end) of reference slots.
 */
class SlotBitmap
{
  public:
    SlotBitmap() = default;

    /** Bits [0, @p size) of @p words; bits past @p size are ignored. */
    SlotBitmap(const std::uint64_t *words, std::size_t size)
        : words_(words), size_(size)
    {
    }

    /** @p size slots with exactly [@p first, @p end) set. */
    static SlotBitmap
    run(std::size_t size, std::size_t first, std::size_t end)
    {
        SlotBitmap b;
        b.size_ = size;
        b.first_ = first;
        b.end_ = end;
        return b;
    }

    std::size_t size() const { return size_; }

    bool
    operator[](std::size_t i) const
    {
        return words_ ? (words_[i >> 6] >> (i & 63)) & 1
                      : (i >= first_ && i < end_);
    }

    /**
     * Bits [i, i + k) as an integer, bit i lowest. Requires k <= 56
     * and i + k <= size().
     */
    std::uint64_t
    chunk(std::size_t i, unsigned k) const
    {
        const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
        if (words_) {
            const unsigned sh = i & 63;
            std::uint64_t v = words_[i >> 6] >> sh;
            if (sh + k > 64) {
                v |= words_[(i >> 6) + 1] << (64 - sh);
            }
            return v & mask;
        }
        const std::size_t lo = std::max(first_, i);
        const std::size_t hi = std::min(end_, i + k);
        return lo < hi ? ((std::uint64_t{1} << (hi - lo)) - 1) << (lo - i)
                       : 0;
    }

    /** Same length and the same bits. */
    bool
    operator==(const SlotBitmap &o) const
    {
        if (size_ != o.size_) {
            return false;
        }
        for (std::size_t i = 0; i < size_; i += 56) {
            const auto k = static_cast<unsigned>(
                std::min<std::size_t>(56, size_ - i));
            if (chunk(i, k) != o.chunk(i, k)) {
                return false;
            }
        }
        return true;
    }

  private:
    const std::uint64_t *words_ = nullptr;
    std::size_t size_ = 0;
    std::size_t first_ = 0;
    std::size_t end_ = 0;
};

/**
 * Registry of all classes known to one simulated JVM.
 *
 * Construction fixes the header geometry (2 slots, or 3 with the Cereal
 * extension); all layout queries below include the header slots.
 */
class KlassRegistry
{
  public:
    /**
     * @param cereal_header_ext when true, serializable objects carry the
     *        extra 8 B Cereal metadata slot (Section V-E)
     * @param metadata_base simulated address where klass metadata lives
     */
    explicit KlassRegistry(bool cereal_header_ext = true,
                           Addr metadata_base = 0x0800'0000'0000ULL);

    /** Register a class; names must be unique. @return its dense id. */
    KlassId add(KlassDescriptor desc);

    /** Convenience: register an instance class from name + fields. */
    KlassId
    add(std::string name, std::vector<FieldDesc> fields)
    {
        return add(KlassDescriptor(std::move(name), std::move(fields)));
    }

    /** Get or create the canonical array class for @p elem. */
    KlassId arrayKlass(FieldType elem);

    /**
     * Descriptor of class @p id; panics on an unregistered id. Ids read
     * from a stream never reach it unchecked: each decoder rejects a bad
     * one first with its own decode_check(..., DecodeStatus::BadClass).
     */
    const KlassDescriptor &klass(KlassId id) const;
    std::size_t size() const { return descs_.size(); }

    /** Lookup by name; kBadKlassId if absent. */
    KlassId idByName(const std::string &name) const;

    /** Number of 8 B header slots per object (2, or 3 with extension). */
    unsigned headerSlots() const { return headerSlots_; }
    bool hasCerealHeaderExt() const { return headerSlots_ == 3; }

    /** Slot index of declared field @p field_idx of class @p id. */
    unsigned
    fieldSlot(KlassId, std::uint32_t field_idx) const
    {
        return headerSlots_ + field_idx;
    }

    /** Slot index holding an array's element count. */
    unsigned arrayLengthSlot() const { return headerSlots_; }

    /** First slot of array element storage. */
    unsigned arrayDataSlot() const { return headerSlots_ + 1; }

    /** Total 8 B slots of an instance of non-array class @p id. */
    unsigned instanceSlots(KlassId id) const;

    /** Total 8 B slots of an array of class @p id with @p n elements. */
    unsigned arraySlots(KlassId id, std::uint64_t n) const;

    /**
     * Layout bitmap of a non-array instance: bit i set iff slot i holds
     * a reference (paper Figure 4a). Header slots are always zero.
     */
    SlotBitmap layoutBitmap(KlassId id) const;

    /** Simulated address of the metadata block for class @p id. */
    Addr metadataAddr(KlassId id) const;

    /** Size in bytes of the metadata block for class @p id. */
    Addr metadataBytes(KlassId id) const;

    /**
     * Reverse map: metadata address -> class id (kBadKlassId unless
     * @p addr is exactly the start of a registered class's block).
     */
    KlassId
    idByMetadataAddr(Addr addr) const
    {
        // Each block starts in its own 64 B slot counted from the
        // aligned-down base (the first block sits at the base itself,
        // later ones at the 64 B boundary after their predecessor), so
        // a shift finds the only class that can start there.
        const Addr slot = (addr - slotBase_) >> 6;
        if (addr < slotBase_ || slot >= bySlot_.size()) {
            return kBadKlassId;
        }
        const KlassId id = bySlot_[slot];
        return id != kBadKlassId && descs_[id].metaAddr == addr
                   ? id
                   : kBadKlassId;
    }

  private:
    struct Record
    {
        KlassDescriptor desc;
        /** Layout bitmap words (SlotBitmap form); empty for arrays. */
        std::vector<std::uint64_t> bitmap;
        Addr metaAddr;
        Addr metaBytes;
    };

    unsigned headerSlots_;
    Addr metadataTop_;
    /** metadata_base rounded down to 64 B: slot 0 of bySlot_. */
    Addr slotBase_;
    std::vector<Record> descs_;
    /** Class whose block starts in each 64 B metadata slot. */
    std::vector<KlassId> bySlot_;
    std::unordered_map<std::string, KlassId> byName_;
    std::unordered_map<std::uint8_t, KlassId> arrayKlasses_;
};

} // namespace cereal

#endif // CEREAL_HEAP_KLASS_HH
