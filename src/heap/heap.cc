#include "heap/heap.hh"

#include <cstring>

#include "sim/logging.hh"

namespace cereal {

Heap::Heap(KlassRegistry &registry, Addr base)
    : registry_(&registry), base_(base), mem_(1 << 20)
{
    objects_.reserve(1024);
}

std::uint8_t *
Heap::hostPtr(Addr addr, Addr n)
{
    panic_if(!contains(addr, n),
             "heap access out of bounds: addr=%#llx n=%llu",
             (unsigned long long)addr, (unsigned long long)n);
    return mem_.data() + (addr - base_);
}

const std::uint8_t *
Heap::hostPtr(Addr addr, Addr n) const
{
    panic_if(!contains(addr, n),
             "heap access out of bounds: addr=%#llx n=%llu",
             (unsigned long long)addr, (unsigned long long)n);
    return mem_.data() + (addr - base_);
}

void
Heap::ensureCapacity(Addr bytes_needed)
{
    mem_.claimZeroed(bytes_needed);
}

bool
Heap::contains(Addr addr, Addr n) const
{
    return addr >= base_ && addr + n <= base_ + used_;
}

Addr
Heap::allocateRaw(Addr bytes)
{
    bytes = roundUp(bytes, 8);
    ensureCapacity(used_ + bytes);
    Addr addr = base_ + used_;
    used_ += bytes;
    return addr;
}

void
Heap::initHeader(Addr obj, KlassId id)
{
    store64(obj, markword::make(nextHash_));
    nextHash_ = nextHash_ * 0x9e3779b1u + 1;
    store64(obj + 8, registry_->metadataAddr(id));
    if (registry_->hasCerealHeaderExt()) {
        store64(obj + 16, 0);
    }
}

Addr
Heap::allocateInstance(KlassId id)
{
    const unsigned slots = registry_->instanceSlots(id);
    Addr obj = allocateRaw(Addr{slots} * 8);
    initHeader(obj, id);
    objects_.push_back(obj);
    return obj;
}

Addr
Heap::allocateArray(FieldType elem, std::uint64_t n)
{
    KlassId id = registry_->arrayKlass(elem);
    const unsigned slots = registry_->arraySlots(id, n);
    Addr obj = allocateRaw(Addr{slots} * 8);
    initHeader(obj, id);
    store64(obj + Addr{registry_->arrayLengthSlot()} * 8, n);
    objects_.push_back(obj);
    return obj;
}

std::uint64_t
Heap::load64(Addr addr) const
{
    std::uint64_t v;
    std::memcpy(&v, hostPtr(addr, 8), 8);
    return v;
}

void
Heap::store64(Addr addr, std::uint64_t v)
{
    std::memcpy(hostPtr(addr, 8), &v, 8);
}

void
Heap::loadBytes(Addr addr, void *dst, Addr n) const
{
    if (n) {
        std::memcpy(dst, hostPtr(addr, n), n);
    }
}

void
Heap::storeBytes(Addr addr, const void *src, Addr n)
{
    if (n) {
        std::memcpy(hostPtr(addr, n), src, n);
    }
}

KlassId
Heap::klassOf(Addr obj) const
{
    Addr meta = load64(obj + 8);
    KlassId id = registry_->idByMetadataAddr(meta);
    panic_if(id == kBadKlassId,
             "object %#llx has unknown klass pointer %#llx",
             (unsigned long long)obj, (unsigned long long)meta);
    return id;
}

unsigned
Heap::objectSlots(Addr obj) const
{
    KlassId id = klassOf(obj);
    const auto &d = registry_->klass(id);
    if (d.isArray()) {
        return registry_->arraySlots(id, arrayLength(obj));
    }
    return registry_->instanceSlots(id);
}

std::uint64_t
Heap::arrayLength(Addr obj) const
{
    panic_if(!registry_->klass(klassOf(obj)).isArray(),
             "arrayLength() on non-array object %#llx",
             (unsigned long long)obj);
    return load64(obj + Addr{registry_->arrayLengthSlot()} * 8);
}

SlotBitmap
Heap::instanceBitmap(Addr obj) const
{
    KlassId id = klassOf(obj);
    const auto &d = registry_->klass(id);
    if (!d.isArray()) {
        return registry_->layoutBitmap(id);
    }
    const std::uint64_t n =
        load64(obj + Addr{registry_->arrayLengthSlot()} * 8);
    const unsigned data = registry_->arrayDataSlot();
    return SlotBitmap::run(
        registry_->arraySlots(id, n), data,
        d.elemType() == FieldType::Reference ? data + n : data);
}

void
Heap::clearCerealMetadata()
{
    if (!registry_->hasCerealHeaderExt()) {
        return;
    }
    for (Addr obj : objects_) {
        store64(obj + 16, 0);
    }
}

std::uint16_t
Heap::nextCerealCounter()
{
    if (++cerealCounter_ == 0) {
        clearCerealMetadata();
        cerealCounter_ = 1;
    }
    return cerealCounter_;
}

} // namespace cereal
