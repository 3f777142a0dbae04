/**
 * @file
 * Lightweight typed view over an object inside a Heap.
 *
 * ObjectView is a (heap, address) pair with field accessors; it performs
 * the slot arithmetic that HotSpot's field offsets would provide, and it
 * exposes the mark word and Cereal extension word for the serializers.
 * It reads the object's klass pointer once, at construction, so it must
 * be built on a fully formed object (header written) and the accessors
 * pay no class lookup per field or element.
 */

#ifndef CEREAL_HEAP_OBJECT_HH
#define CEREAL_HEAP_OBJECT_HH

#include <cstring>

#include "heap/heap.hh"
#include "sim/logging.hh"

namespace cereal {

/** Typed accessor over one heap object. */
class ObjectView
{
  public:
    ObjectView(Heap &heap, Addr addr)
        : heap_(&heap), addr_(addr), id_(heap.klassOf(addr)),
          elemBytes_(fieldTypeBytes(klass().elemType()))
    {
    }

    Addr addr() const { return addr_; }
    Heap &heap() const { return *heap_; }
    KlassId klassId() const { return id_; }

    /**
     * The object's class. Looked up by id on each call rather than
     * held: registering a class may move the registry's descriptors.
     */
    const KlassDescriptor &
    klass() const
    {
        return heap_->registry().klass(id_);
    }

    bool isArray() const { return klass().isArray(); }
    unsigned slots() const { return heap_->objectSlots(addr_); }
    Addr bytes() const { return heap_->objectBytes(addr_); }

    // --- header --------------------------------------------------------

    std::uint64_t markWord() const { return heap_->load64(addr_); }
    std::uint32_t identityHash() const { return markword::hash(markWord()); }

    /** The Cereal 8 B extension word (requires header extension). */
    std::uint64_t
    extWord() const
    {
        panic_if(!heap_->registry().hasCerealHeaderExt(),
                 "extWord() without Cereal header extension");
        return heap_->load64(addr_ + 16);
    }

    void
    setExtWord(std::uint64_t v)
    {
        panic_if(!heap_->registry().hasCerealHeaderExt(),
                 "setExtWord() without Cereal header extension");
        heap_->store64(addr_ + 16, v);
    }

    // --- instance fields ------------------------------------------------

    /** Simulated address of field @p idx. */
    Addr
    fieldAddr(std::uint32_t idx) const
    {
        return addr_ + Addr{heap_->registry().fieldSlot(id_, idx)} * 8;
    }

    /** Raw 8 B slot value of field @p idx. */
    std::uint64_t
    getRaw(std::uint32_t idx) const
    {
        return heap_->load64(fieldAddr(idx));
    }

    void
    setRaw(std::uint32_t idx, std::uint64_t v)
    {
        heap_->store64(fieldAddr(idx), v);
    }

    std::int64_t
    getLong(std::uint32_t idx) const
    {
        return static_cast<std::int64_t>(getRaw(idx));
    }

    void
    setLong(std::uint32_t idx, std::int64_t v)
    {
        setRaw(idx, static_cast<std::uint64_t>(v));
    }

    std::int32_t
    getInt(std::uint32_t idx) const
    {
        return static_cast<std::int32_t>(getRaw(idx));
    }

    void
    setInt(std::uint32_t idx, std::int32_t v)
    {
        setRaw(idx, static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(v)));
    }

    double
    getDouble(std::uint32_t idx) const
    {
        double d;
        std::uint64_t raw = getRaw(idx);
        std::memcpy(&d, &raw, 8);
        return d;
    }

    void
    setDouble(std::uint32_t idx, double v)
    {
        std::uint64_t raw;
        std::memcpy(&raw, &v, 8);
        setRaw(idx, raw);
    }

    /** Reference field (0 = null). */
    Addr getRef(std::uint32_t idx) const { return getRaw(idx); }
    void setRef(std::uint32_t idx, Addr target) { setRaw(idx, target); }

    // --- arrays ----------------------------------------------------------

    std::uint64_t length() const { return heap_->arrayLength(addr_); }

    /** Address of element @p i (packed by element size). */
    Addr
    elemAddr(std::uint64_t i) const
    {
        return addr_ + Addr{heap_->registry().arrayDataSlot()} * 8 +
               i * elemBytes_;
    }

    /** Reference array element (refs occupy full 8 B slots). */
    Addr
    getRefElem(std::uint64_t i) const
    {
        return heap_->load64(elemAddr(i));
    }

    void
    setRefElem(std::uint64_t i, Addr target)
    {
        heap_->store64(elemAddr(i), target);
    }

    /** Primitive array element as a zero-extended 64-bit value. */
    std::uint64_t
    getElem(std::uint64_t i) const
    {
        std::uint64_t v = 0;
        heap_->loadBytes(elemAddr(i), &v, elemBytes_);
        return v;
    }

    void
    setElem(std::uint64_t i, std::uint64_t v)
    {
        heap_->storeBytes(elemAddr(i), &v, elemBytes_);
    }

  private:
    Heap *heap_;
    Addr addr_;
    KlassId id_;
    /** Bytes per array element (8 for an instance, unused). */
    unsigned elemBytes_;
};

} // namespace cereal

#endif // CEREAL_HEAP_OBJECT_HH
