#include "serde/java_serde.hh"

#include <deque>
#include <unordered_map>

#include "heap/object.hh"
#include "heap/object_table.hh"
#include "heap/walker.hh"
#include "serde/bytes.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

constexpr std::uint32_t kMagic = 0xACED0005;
constexpr std::uint8_t kTagObject = 0x73;
constexpr std::uint8_t kTagArray = 0x75;
constexpr std::uint8_t kTagClassDescFull = 0x72;
constexpr std::uint8_t kTagClassDescHandle = 0x71;
constexpr std::uint32_t kNullHandle = 0xffffffff;

char
typeChar(FieldType t)
{
    switch (t) {
      case FieldType::Boolean: return 'Z';
      case FieldType::Byte: return 'B';
      case FieldType::Char: return 'C';
      case FieldType::Short: return 'S';
      case FieldType::Int: return 'I';
      case FieldType::Long: return 'J';
      case FieldType::Float: return 'F';
      case FieldType::Double: return 'D';
      case FieldType::Reference: return 'L';
    }
    return '?';
}

bool
typeFromChar(char c, FieldType &out)
{
    switch (c) {
      case 'Z': out = FieldType::Boolean; return true;
      case 'B': out = FieldType::Byte; return true;
      case 'C': out = FieldType::Char; return true;
      case 'S': out = FieldType::Short; return true;
      case 'I': out = FieldType::Int; return true;
      case 'J': out = FieldType::Long; return true;
      case 'F': out = FieldType::Float; return true;
      case 'D': out = FieldType::Double; return true;
      case 'L': out = FieldType::Reference; return true;
    }
    return false;
}

/** Model an identity-hash-map probe in scratch memory. */
void
chargeMapProbe(MemSink *sink, const JavaSerdeCosts &costs, Addr key)
{
    if (!sink) {
        return;
    }
    sink->compute(costs.handleProbe);
    // Bucket read + entry read, scattered over a table.
    sink->load(probeBucket(key), 8);
    sink->load(probeBucket(key) + 8, 8);
}

} // namespace

std::vector<std::uint8_t>
JavaSerializer::serialize(Heap &src, Addr root, MemSink *sink)
{
    ByteWriter w(sink);
    w.u32(kMagic);

    // Object handles are assigned in enqueue (BFS discovery) order, so
    // record i in the stream describes handle i.
    ObjectTable handles(src); // handle + 1
    std::uint32_t next_handle = 0;
    std::deque<Addr> queue;
    std::unordered_map<KlassId, std::uint32_t> class_handles;

    auto handle_of = [&](Addr obj) -> std::uint32_t {
        if (obj == 0) {
            return kNullHandle;
        }
        chargeMapProbe(sink, costs_, obj);
        std::uint32_t &e = handles[obj];
        if (e != 0) {
            return e - 1;
        }
        e = ObjectTable::entry(next_handle);
        queue.push_back(obj);
        return next_handle++;
    };

    auto write_classdesc = [&](KlassId id) {
        setPhase(sink, "metadata");
        auto it = class_handles.find(id);
        if (it != class_handles.end()) {
            w.u8(kTagClassDescHandle);
            w.u32(it->second);
            charge(sink, 8);
            return;
        }
        const auto &d = src.registry().klass(id);
        w.u8(kTagClassDescFull);
        w.str(d.name());
        charge(sink, costs_.stringOpPerByte * d.name().size());
        if (d.isArray()) {
            w.u8(1);
            w.u8(static_cast<std::uint8_t>(typeChar(d.elemType())));
        } else {
            w.u8(0);
            w.u16(static_cast<std::uint16_t>(d.numFields()));
            for (const auto &f : d.fields()) {
                // ObjectStreamClass resolves each declared field
                // reflectively when building the descriptor.
                charge(sink, costs_.reflectLookup +
                                 costs_.stringOpPerByte * f.name.size());
                w.u8(static_cast<std::uint8_t>(typeChar(f.type)));
                w.str(f.name);
            }
        }
        class_handles.emplace(
            id, static_cast<std::uint32_t>(class_handles.size()));
    };

    setPhase(sink, "walk");
    handle_of(root);
    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();

        setPhase(sink, "walk");
        // Header read to find the object's class: the address came from
        // the reference that discovered this object (pointer chase).
        if (sink) {
            sink->loadDep(obj, 16);
        }
        charge(sink, costs_.perObject);

        ObjectView v(src, obj);
        const auto &d = v.klass();
        KlassId id = v.klassId();

        if (d.isArray()) {
            w.u8(kTagArray);
            write_classdesc(id);
            setPhase(sink, "copy");
            const std::uint64_t n = v.length();
            w.u32(static_cast<std::uint32_t>(n));
            if (d.elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    if (sink) {
                        sink->load(v.elemAddr(i), 8);
                    }
                    charge(sink, costs_.perElement);
                    w.u32(handle_of(v.getRefElem(i)));
                }
            } else {
                const unsigned esz = fieldTypeBytes(d.elemType());
                for (std::uint64_t i = 0; i < n; ++i) {
                    if (sink) {
                        sink->load(v.elemAddr(i), esz);
                    }
                    charge(sink, costs_.perElement);
                    std::uint64_t e = v.getElem(i);
                    w.raw(&e, esz);
                }
            }
            continue;
        }

        w.u8(kTagObject);
        write_classdesc(id);
        setPhase(sink, "copy");
        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            // Field extraction through the reflect package.
            charge(sink, costs_.reflectLookup + costs_.reflectGet +
                             costs_.stringOpPerByte * f.name.size());
            if (sink) {
                sink->load(v.fieldAddr(i), 8);
            }
            if (f.type == FieldType::Reference) {
                w.u32(handle_of(v.getRef(i)));
            } else {
                std::uint64_t raw = v.getRaw(i);
                w.raw(&raw, fieldTypeBytes(f.type));
            }
        }
    }

    return w.take();
}

Addr
JavaSerializer::deserialize(const std::vector<std::uint8_t> &stream,
                            Heap &dst, MemSink *sink)
{
    ByteReader r(stream, sink);
    decode_check(r.u32() == kMagic, DecodeStatus::BadMagic, 0,
                 "bad Java stream magic");

    // Object handle h is the heap's object first + h: each record
    // allocates exactly one object.
    const std::size_t first = dst.objectCount();
    std::vector<KlassId> class_handles;

    auto read_classdesc = [&]() -> KlassId {
        setPhase(sink, "metadata");
        std::size_t tag_at = r.pos();
        std::uint8_t tag = r.u8();
        if (tag == kTagClassDescHandle) {
            std::uint32_t h = r.u32();
            charge(sink, 8);
            decode_check(h < class_handles.size(), DecodeStatus::BadHandle,
                         tag_at, "class handle %u out of range (%zu known)",
                         h, class_handles.size());
            return class_handles[h];
        }
        decode_check(tag == kTagClassDescFull, DecodeStatus::BadTag,
                     tag_at, "bad classdesc tag %u", tag);
        std::string cls_name = r.str();
        // Type resolution: hash the name and match it against the
        // registry — the string work the paper calls out as Java S/D's
        // bottleneck.
        charge(sink, 2 * costs_.stringOpPerByte * cls_name.size());
        chargeMapProbe(sink, costs_, cls_name.size());
        bool is_array = r.u8() != 0;
        KlassId id;
        if (is_array) {
            std::size_t elem_at = r.pos();
            FieldType elem;
            decode_check(typeFromChar(static_cast<char>(r.u8()), elem),
                         DecodeStatus::BadTag, elem_at,
                         "bad array element type char");
            id = dst.registry().arrayKlass(elem);
        } else {
            id = dst.registry().idByName(cls_name);
            decode_check(id != kBadKlassId, DecodeStatus::BadClass,
                         r.pos(), "unknown class '%s' in stream",
                         cls_name.c_str());
            std::uint16_t nf = r.u16();
            decode_check(nf == dst.registry().klass(id).numFields(),
                         DecodeStatus::Malformed, r.pos(),
                         "field count mismatch for '%s' (%u vs %zu)",
                         cls_name.c_str(), nf,
                         dst.registry().klass(id).numFields());
            for (std::uint16_t i = 0; i < nf; ++i) {
                r.u8(); // type char
                std::string fname = r.str();
                // Matching serialized fields to runtime Field objects.
                charge(sink, costs_.reflectLookup +
                                 2 * costs_.stringOpPerByte * fname.size());
            }
        }
        class_handles.push_back(id);
        return id;
    };

    while (!r.done()) {
        setPhase(sink, "walk");
        std::uint8_t tag = r.u8();
        // readObject0 dispatch + descriptor validation + handle setup +
        // reflective allocation path.
        charge(sink, costs_.deserPerObject);
        if (tag == kTagArray) {
            KlassId id = read_classdesc();
            const auto &d = dst.registry().klass(id);
            decode_check(d.isArray(), DecodeStatus::Malformed, r.pos(),
                         "array record with non-array class '%s'",
                         d.name().c_str());
            std::size_t len_at = r.pos();
            std::uint32_t n = r.u32();
            // Allocation cap: every element still owes bytes in the
            // stream (4 B per reference, element size otherwise), so a
            // count beyond remaining()/esz can never be satisfied.
            const unsigned wire_esz =
                d.elemType() == FieldType::Reference
                    ? 4
                    : fieldTypeBytes(d.elemType());
            decode_check(n <= r.remaining() / wire_esz,
                         DecodeStatus::BadLength, len_at,
                         "array length %u exceeds remaining stream", n);
            setPhase(sink, "copy");
            charge(sink, costs_.alloc);
            Addr obj = dst.allocateArray(d.elemType(), n);
            if (sink) {
                sink->store(obj, 24);
            }
            ObjectView v(dst, obj);
            if (d.elemType() == FieldType::Reference) {
                // Handles stay in their slots until the resolve pass.
                for (std::uint32_t i = 0; i < n; ++i) {
                    charge(sink, costs_.perElement);
                    v.setRefElem(i, r.u32());
                }
            } else {
                const unsigned esz = fieldTypeBytes(d.elemType());
                for (std::uint32_t i = 0; i < n; ++i) {
                    charge(sink, costs_.perElement);
                    std::uint64_t e = 0;
                    r.raw(&e, esz);
                    v.setElem(i, e);
                    if (sink) {
                        sink->store(v.elemAddr(i), esz);
                    }
                }
            }
            continue;
        }
        decode_check(tag == kTagObject, DecodeStatus::BadTag, r.pos(),
                     "bad record tag %u", tag);
        KlassId id = read_classdesc();
        const auto &d = dst.registry().klass(id);
        decode_check(!d.isArray(), DecodeStatus::Malformed, r.pos(),
                     "object record with array class '%s'",
                     d.name().c_str());
        setPhase(sink, "copy");
        charge(sink, costs_.alloc);
        Addr obj = dst.allocateInstance(id);
        if (sink) {
            sink->store(obj, 16);
        }
        ObjectView v(dst, obj);
        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            charge(sink, costs_.deserPerField + costs_.reflectSet +
                             costs_.stringOpPerByte * f.name.size());
            if (f.type == FieldType::Reference) {
                v.setRef(i, r.u32());
            } else {
                std::uint64_t raw = 0;
                r.raw(&raw, fieldTypeBytes(f.type));
                v.setRaw(i, raw);
            }
            if (sink) {
                sink->store(v.fieldAddr(i), 8);
            }
        }
    }

    // Resolve forward references now that every handle has an address.
    const std::size_t decoded = dst.objectCount() - first;
    setPhase(sink, "patch");
    forEachRefSlot(dst, first, [&](Addr at) {
        charge(sink, 4);
        const std::uint64_t h = dst.load64(at);
        Addr target = 0;
        if (h != kNullHandle) {
            decode_check(h < decoded, DecodeStatus::BadHandle, r.pos(),
                         "object handle %u out of range (%zu objects)",
                         static_cast<std::uint32_t>(h), decoded);
            target = dst.objects()[first + h];
        }
        dst.store64(at, target);
        if (sink) {
            sink->store(at, 8);
        }
    });

    decode_check(decoded != 0, DecodeStatus::Malformed, r.pos(),
                 "empty Java stream (no object records)");
    return dst.objects()[first];
}

} // namespace cereal
