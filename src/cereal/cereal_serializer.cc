#include "cereal/cereal_serializer.hh"

#include <atomic>

#include "heap/object.hh"
#include "heap/walker.hh"
#include "serde/decode_error.hh"
#include "sim/flat.hh"
#include "sim/logging.hh"

namespace cereal {

std::uint8_t
CerealSerializer::nextUnitId()
{
    // Atomic: serializers are constructed concurrently from sweep
    // points. The ID never reaches the serialized bytes and visited
    // marks do not depend on it, so the allocation order being
    // nondeterministic under threads is harmless.
    static std::atomic<std::uint8_t> next{0};
    return static_cast<std::uint8_t>(next.fetch_add(1) + 1);
}

void
CerealSerializer::registerClass(KlassId id)
{
    if (id < toClassId_.size() && toClassId_[id] != kNoClassId) {
        return;
    }
    fatal_if(fromClassId_.size() >= kMaxClasses,
             "Klass Pointer Table full (%zu classes)", kMaxClasses);
    if (id >= toClassId_.size()) {
        toClassId_.resize(std::size_t{id} + 1, kNoClassId);
    }
    toClassId_[id] = static_cast<std::uint32_t>(fromClassId_.size());
    fromClassId_.push_back(id);
}

void
CerealSerializer::registerAll(const KlassRegistry &reg)
{
    for (KlassId id = 0; id < reg.size(); ++id) {
        registerClass(id);
    }
}

std::uint32_t
CerealSerializer::classIdOf(KlassId id) const
{
    fatal_if(id >= toClassId_.size() || toClassId_[id] == kNoClassId,
             "class %u not registered with Cereal; call RegisterClass",
             id);
    return toClassId_[id];
}

CerealStream
CerealSerializer::serializeToStream(Heap &src, Addr root)
{
    panic_if(root == 0, "cannot serialize null root");
    panic_if(!src.registry().hasCerealHeaderExt(),
             "Cereal requires the 8 B header extension (Section V-E)");

    // The heap hands out the visited mark, so no two serializations of
    // one heap share it, however many serializers there are.
    const std::uint16_t counter = src.nextCerealCounter();
    const std::uint8_t unit = unitId_;

    CerealStream out;
    out.headerStripped = opts_.headerStrip;
    ObjectPacker ref_packer;
    ObjectPacker bitmap_packer;

    sim::RingQueue<Addr> queue;
    std::uint64_t assigned_bytes = 0;

    // Header-manager visit: returns the object's relative address,
    // assigning one (and enqueueing the object) on first visit.
    auto visit = [&](Addr obj) -> Addr {
        ObjectView v(src, obj);
        std::uint64_t ext = v.extWord();
        if (extword::serialCounter(ext) == counter &&
            extword::unitId(ext) == unit) {
            return extword::relAddr(ext) * 8;
        }
        Addr rel = assigned_bytes;
        assigned_bytes += src.objectBytes(obj);
        v.setExtWord(extword::make(counter, unit, rel / 8));
        queue.push_back(obj);
        return rel;
    };

    visit(root);
    const unsigned header_slots = src.registry().headerSlots();
    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();
        ObjectView v(src, obj);

        const SlotBitmap bitmap = src.instanceBitmap(obj);
        bitmap_packer.packBits(bitmap);
        out.bitmapBits += bitmap.size();
        ++out.objectCount;

        for (unsigned s = 0; s < bitmap.size(); ++s) {
            const Addr slot_addr = obj + Addr{s} * 8;
            if (s >= header_slots && bitmap[s]) {
                Addr target = src.load64(slot_addr);
                std::uint64_t token =
                    target ? encodeRelRef(visit(target)) : kNullRefToken;
                ref_packer.packValue(token);
                ++out.refEntries;
                continue;
            }
            if (s == 0) {
                // Mark word: optionally stripped (Figure 16).
                if (!opts_.headerStrip) {
                    out.valueArray.push_back(v.markWord());
                }
                continue;
            }
            if (s == 1) {
                // Klass pointer -> class ID via the Klass Pointer Table.
                out.valueArray.push_back(classIdOf(v.klassId()));
                continue;
            }
            if (s == 2) {
                // Extension slot: live visited-tracking state must not
                // leak into the stream; the image gets a cleared slot.
                out.valueArray.push_back(0);
                continue;
            }
            out.valueArray.push_back(src.load64(slot_addr));
        }
    }

    ref_packer.moveTo(out.refBuckets, out.refEndMap);
    bitmap_packer.moveTo(out.bitmapBuckets, out.bitmapEndMap);
    fatal_if(assigned_bytes > 0xffffffffULL,
             "object graph exceeds the 4 B total-size field");
    out.totalGraphBytes = static_cast<std::uint32_t>(assigned_bytes);
    return out;
}

Addr
CerealSerializer::deserializeStream(const CerealStream &s, Heap &dst)
{
    // Configuration error, not a stream property: no byte stream can
    // flip the receiver's header geometry, so this stays a panic.
    panic_if(!dst.registry().hasCerealHeaderExt(),
             "Cereal requires the 8 B header extension (Section V-E)");

    // CerealStream::decode() establishes these for wire streams, but
    // this entry point also accepts hand-built structures; re-checking
    // keeps the allocation below bounded by the bitmap section size.
    decode_check(s.objectCount != 0, DecodeStatus::Malformed, 0,
                 "empty Cereal stream");
    decode_check(s.bitmapBits <=
                     std::uint64_t{s.bitmapBuckets.size()} * 8,
                 DecodeStatus::Malformed, 0,
                 "bitmap bit count exceeds bucket capacity");
    decode_check(s.totalGraphBytes == s.bitmapBits * 8,
                 DecodeStatus::Malformed, 0,
                 "graph size %u disagrees with bitmap bits %llu",
                 s.totalGraphBytes, (unsigned long long)s.bitmapBits);
    Addr base = dst.allocateRaw(s.totalGraphBytes);

    ObjectUnpacker bitmaps(s.bitmapBuckets, s.bitmapEndMap);
    ObjectUnpacker refs(s.refBuckets, s.refEndMap);
    std::size_t value_at = 0;

    auto next_value = [&](Addr where) -> std::uint64_t {
        decode_check(value_at < s.valueArray.size(),
                     DecodeStatus::Truncated, where,
                     "value array underflow");
        return s.valueArray[value_at++];
    };

    const auto &reg = dst.registry();
    const unsigned header_slots = reg.headerSlots();

    // Reference tokens stay in their slots through the layout pass and
    // are resolved in place after it, so each one can be checked
    // against the set of real object starts instead of trusted to land
    // on one. The objects this call reconstructs are the heap's from
    // index `first` on.
    const std::size_t first = dst.objectCount();
    // Bit k set iff an object starts at graph offset 8k.
    std::vector<std::uint64_t> starts((s.totalGraphBytes / 8 + 63) / 64);
    std::uint64_t refs_used = 0;
    std::vector<std::uint64_t> bitmap_words;

    Addr off = 0;
    for (std::uint32_t i = 0; i < s.objectCount; ++i) {
        const SlotBitmap bitmap = bitmaps.nextBits(bitmap_words);
        decode_check(bitmap.size() >= header_slots,
                     DecodeStatus::Malformed, off,
                     "object bitmap smaller than the %u header slots",
                     header_slots);
        decode_check(Addr{bitmap.size()} * 8 <= s.totalGraphBytes - off,
                     DecodeStatus::Truncated, off,
                     "object at +%llu overruns declared graph size",
                     (unsigned long long)off);
        for (unsigned h = 0; h < header_slots; ++h) {
            decode_check(!bitmap[h], DecodeStatus::Malformed, off,
                         "reference bit set on header slot %u", h);
        }

        const Addr obj = base + off;
        bool is_array = false;
        FieldType elem = FieldType::Reference;
        for (unsigned slot = 0; slot < bitmap.size(); ++slot) {
            const Addr slot_addr = obj + Addr{slot} * 8;
            const Addr at = off + Addr{slot} * 8;
            std::uint64_t word;
            if (slot >= header_slots && bitmap[slot]) {
                word = refs.nextValue(); // resolved below
                ++refs_used;
            } else if (slot == 0) {
                // Mark word: from the stream, or regenerated when the
                // sender stripped headers.
                word = s.headerStripped
                           ? markword::make(static_cast<std::uint32_t>(
                                 (base + off) * 0x9e3779b1ULL >> 8))
                           : next_value(at);
            } else if (slot == 1) {
                // Class ID -> klass pointer via the Class ID Table.
                // Validated as the full 64-bit stream value: a
                // truncating cast would alias id 2^32 to id 0.
                std::uint64_t class_id = next_value(at);
                decode_check(class_id < fromClassId_.size(),
                             DecodeStatus::BadClass, at,
                             "class ID %llu not in Class ID Table "
                             "(%zu registered)",
                             (unsigned long long)class_id,
                             fromClassId_.size());
                KlassId id =
                    fromClassId_[static_cast<std::uint32_t>(class_id)];
                const auto &d = reg.klass(id);
                // The stream bitmap dictated how this object's slots
                // are interpreted; it must agree with the class layout
                // or a re-serialization would read past the object.
                if (d.isArray()) {
                    is_array = true;
                    elem = d.elemType();
                    decode_check(bitmap.size() > reg.arrayLengthSlot(),
                                 DecodeStatus::Malformed, at,
                                 "array bitmap missing length slot");
                    const bool ref_elems =
                        elem == FieldType::Reference;
                    for (unsigned e = header_slots; e < bitmap.size();
                         ++e) {
                        const bool expect =
                            ref_elems && e >= reg.arrayDataSlot();
                        decode_check(bitmap[e] == expect,
                                     DecodeStatus::Malformed, at,
                                     "bitmap slot %u disagrees with "
                                     "'%s' element layout",
                                     e, d.name().c_str());
                    }
                } else {
                    decode_check(bitmap == reg.layoutBitmap(id),
                                 DecodeStatus::Malformed, at,
                                 "bitmap does not match layout of "
                                 "class '%s'",
                                 d.name().c_str());
                }
                word = reg.metadataAddr(id);
            } else if (slot == 2) {
                // Extension slot: whatever the sender had in flight is
                // stale visited-tracking state here; a cleared slot
                // keeps later serializations from skipping this object.
                next_value(at);
                word = 0;
            } else if (is_array && slot == reg.arrayLengthSlot()) {
                // Element count must account for exactly the payload
                // slots the bitmap declared.
                std::uint64_t len = next_value(at);
                const unsigned esz = fieldTypeBytes(elem);
                const std::uint64_t payload =
                    bitmap.size() - reg.arrayDataSlot();
                decode_check(len <= payload * 8 / esz,
                             DecodeStatus::BadLength, at,
                             "array length %llu exceeds bitmap size",
                             (unsigned long long)len);
                decode_check((len * esz + 7) / 8 == payload,
                             DecodeStatus::Malformed, at,
                             "array length %llu disagrees with bitmap "
                             "size (%llu payload slots)",
                             (unsigned long long)len,
                             (unsigned long long)payload);
                word = len;
            } else {
                word = next_value(at);
            }
            dst.store64(slot_addr, word);
        }
        dst.noteObject(obj);
        starts[off / 512] |= std::uint64_t{1} << (off / 8 % 64);
        off += Addr{bitmap.size()} * 8;
    }
    decode_check(off == s.totalGraphBytes, DecodeStatus::Malformed, off,
                 "reconstructed %llu bytes, stream declared %u",
                 (unsigned long long)off, s.totalGraphBytes);
    decode_check(value_at == s.valueArray.size(),
                 DecodeStatus::Malformed, off,
                 "value array not fully consumed");
    decode_check(bitmaps.done(), DecodeStatus::Malformed, off,
                 "trailing bitmap entries");
    decode_check(refs.done(), DecodeStatus::Malformed, off,
                 "trailing reference entries");
    decode_check(refs_used == s.refEntries, DecodeStatus::Malformed, off,
                 "consumed %llu reference entries, stream declared %llu",
                 (unsigned long long)refs_used,
                 (unsigned long long)s.refEntries);

    // Every object's layout now agrees with its stream bitmap, so its
    // class layout names exactly the slots that hold tokens.
    forEachRefSlot(dst, first, [&](Addr slot_addr) {
        const std::uint64_t token = dst.load64(slot_addr);
        if (token == kNullRefToken) {
            return;
        }
        const Addr at = slot_addr - base;
        // token - 1 is a slot index; bound it before decodeRelRef's
        // * 8 can wrap.
        decode_check(token - 1 < Addr{s.totalGraphBytes} / 8,
                     DecodeStatus::BadHandle, at,
                     "reference token %llu outside graph",
                     (unsigned long long)token);
        Addr rel = decodeRelRef(token);
        decode_check((starts[rel / 512] >> (rel / 8 % 64)) & 1,
                     DecodeStatus::BadHandle, at,
                     "reference target +%llu is not an object start",
                     (unsigned long long)rel);
        dst.store64(slot_addr, base + rel);
    });
    return base;
}

std::vector<std::uint8_t>
CerealSerializer::serialize(Heap &src, Addr root, MemSink *)
{
    // Timing for Cereal comes from the accelerator model in
    // cereal/accel, not from a CPU sink; the sink is ignored here.
    return serializeToStream(src, root).encode();
}

Addr
CerealSerializer::deserialize(const std::vector<std::uint8_t> &stream,
                              Heap &dst, MemSink *)
{
    return deserializeStream(CerealStream::decode(stream), dst);
}

} // namespace cereal
