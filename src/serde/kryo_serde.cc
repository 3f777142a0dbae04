#include "serde/kryo_serde.hh"

#include <deque>

#include "heap/object.hh"
#include "heap/object_table.hh"
#include "heap/walker.hh"
#include "serde/bytes.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

constexpr std::uint32_t kMagic = 0x4b52594f; // "KRYO"
constexpr std::uint64_t kNullRef = 0;

/** Zig-zag a signed 64-bit slot so small negatives stay short. */
std::uint64_t
zigzag(std::uint64_t raw)
{
    auto s = static_cast<std::int64_t>(raw);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

} // namespace

void
KryoSerializer::registerClass(KlassId id)
{
    if (toKryoId_.count(id)) {
        return;
    }
    auto kryo_id = static_cast<std::uint32_t>(fromKryoId_.size());
    toKryoId_.emplace(id, kryo_id);
    fromKryoId_.push_back(id);
}

void
KryoSerializer::registerAll(const KlassRegistry &reg)
{
    for (KlassId id = 0; id < reg.size(); ++id) {
        registerClass(id);
    }
}

std::uint32_t
KryoSerializer::kryoIdOf(KlassId id) const
{
    auto it = toKryoId_.find(id);
    fatal_if(it == toKryoId_.end(),
             "class id %u not registered with Kryo; call registerClass()",
             id);
    return it->second;
}

std::vector<std::uint8_t>
KryoSerializer::serialize(Heap &src, Addr root, MemSink *sink)
{
    ByteWriter w(sink);
    w.u32(kMagic);

    ObjectTable handles(src); // handle + 1
    std::uint64_t next_handle = 0;
    std::deque<Addr> queue;

    // Reference encoding: 0 = null, otherwise handle+1 as varint.
    auto ref_token = [&](Addr obj) -> std::uint64_t {
        if (obj == 0) {
            return kNullRef;
        }
        chargeProbe(sink, costs_.handleProbe, obj);
        std::uint32_t &e = handles[obj];
        if (e == 0) {
            e = ObjectTable::entry(next_handle++);
            queue.push_back(obj);
        }
        return e;
    };

    setPhase(sink, "walk");
    ref_token(root);
    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();

        setPhase(sink, "walk");
        if (sink) {
            sink->loadDep(obj, 16); // header: resolve class (pointer chase)
        }
        charge(sink, costs_.perObject);

        ObjectView v(src, obj);
        const auto &d = v.klass();
        w.u32(kryoIdOf(v.klassId()));

        if (d.isArray()) {
            setPhase(sink, "copy");
            const std::uint64_t n = v.length();
            charge(sink, costs_.varint);
            w.varint(n);
            if (d.elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    if (sink) {
                        sink->load(v.elemAddr(i), 8);
                    }
                    charge(sink, costs_.varint);
                    w.varint(ref_token(v.getRefElem(i)));
                }
            } else {
                // Bulk fast path: copy the backing store as raw bytes.
                const unsigned esz = fieldTypeBytes(d.elemType());
                const Addr bytes = n * esz;
                if (sink) {
                    sink->load(v.elemAddr(0), 0); // position marker
                    for (Addr off = 0; off < bytes; off += 64) {
                        std::uint32_t chunk = static_cast<std::uint32_t>(
                            std::min<Addr>(64, bytes - off));
                        sink->load(v.elemAddr(0) + off, chunk);
                        sink->compute(costs_.bulkPerBlock);
                    }
                }
                w.raw(src.view(v.elemAddr(0), bytes), bytes);
            }
            continue;
        }

        // Null-check byte present on every object record (Figure 1c).
        setPhase(sink, "copy");
        w.u8(1);
        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            charge(sink, costs_.fieldGet);
            if (sink) {
                sink->load(v.fieldAddr(i), 8);
            }
            switch (f.type) {
              case FieldType::Reference:
                charge(sink, costs_.varint);
                w.varint(ref_token(v.getRef(i)));
                break;
              case FieldType::Int:
              case FieldType::Long:
              case FieldType::Short:
                charge(sink, costs_.varint);
                w.varint(zigzag(v.getRaw(i)));
                break;
              default: {
                std::uint64_t raw = v.getRaw(i);
                w.raw(&raw, fieldTypeBytes(f.type));
                break;
              }
            }
        }
    }

    return w.take();
}

Addr
KryoSerializer::deserialize(const std::vector<std::uint8_t> &stream,
                            Heap &dst, MemSink *sink)
{
    ByteReader r(stream, sink);
    decode_check(r.u32() == kMagic, DecodeStatus::BadMagic, 0,
                 "bad Kryo stream magic");

    // Handle h is the heap's object first + h: each record allocates
    // exactly one object.
    const std::size_t first = dst.objectCount();

    while (!r.done()) {
        setPhase(sink, "walk");
        charge(sink, costs_.perObject);
        std::size_t id_at = r.pos();
        std::uint32_t kryo_id = r.u32();
        decode_check(kryo_id < fromKryoId_.size(), DecodeStatus::BadClass,
                     id_at, "unregistered Kryo class id %u (%zu known)",
                     kryo_id, fromKryoId_.size());
        // Class-ID table lookup (a flat array in Kryo).
        charge(sink, 4);
        if (sink) {
            sink->load(kScratchBase + kryo_id * 8, 8);
        }
        KlassId id = fromKryoId_[kryo_id];
        const auto &d = dst.registry().klass(id);

        if (d.isArray()) {
            charge(sink, costs_.varint);
            std::size_t len_at = r.pos();
            std::uint64_t n = r.varint();
            // Allocation cap: each element owes at least one stream byte
            // (a varint per reference, the element size otherwise), so
            // bound the count by remaining() before allocating and
            // before the n * esz products below can overflow.
            const unsigned wire_esz =
                d.elemType() == FieldType::Reference
                    ? 1
                    : fieldTypeBytes(d.elemType());
            decode_check(n <= r.remaining() / wire_esz,
                         DecodeStatus::BadLength, len_at,
                         "array length %llu exceeds remaining stream",
                         (unsigned long long)n);
            setPhase(sink, "copy");
            charge(sink, costs_.alloc);
            Addr obj = dst.allocateArray(d.elemType(), n);
            if (sink) {
                sink->store(obj, 24);
            }
            ObjectView v(dst, obj);
            if (d.elemType() == FieldType::Reference) {
                // Tokens stay in their slots until the resolve pass.
                for (std::uint64_t i = 0; i < n; ++i) {
                    charge(sink, costs_.varint);
                    v.setRefElem(i, r.varint());
                }
            } else {
                const unsigned esz = fieldTypeBytes(d.elemType());
                const Addr bytes = n * esz;
                dst.storeBytes(v.elemAddr(0), r.next(bytes), bytes);
                if (sink) {
                    for (Addr off = 0; off < bytes; off += 64) {
                        std::uint32_t chunk = static_cast<std::uint32_t>(
                            std::min<Addr>(64, bytes - off));
                        sink->store(v.elemAddr(0) + off, chunk);
                        sink->compute(costs_.bulkPerBlock);
                    }
                }
            }
            continue;
        }

        decode_check(r.u8() == 1, DecodeStatus::Malformed, r.pos(),
                     "unexpected null-check byte");
        setPhase(sink, "copy");
        charge(sink, costs_.alloc);
        Addr obj = dst.allocateInstance(id);
        if (sink) {
            sink->store(obj, 16);
        }
        ObjectView v(dst, obj);
        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            charge(sink, costs_.fieldSet);
            switch (f.type) {
              case FieldType::Reference:
                charge(sink, costs_.varint);
                v.setRef(i, r.varint());
                break;
              case FieldType::Int:
              case FieldType::Long:
              case FieldType::Short:
                charge(sink, costs_.varint);
                v.setRaw(i, unzigzag(r.varint()));
                break;
              default: {
                std::uint64_t raw = 0;
                r.raw(&raw, fieldTypeBytes(f.type));
                v.setRaw(i, raw);
                break;
              }
            }
            if (sink) {
                sink->store(v.fieldAddr(i), 8);
            }
        }
    }

    const std::size_t decoded = dst.objectCount() - first;
    setPhase(sink, "patch");
    forEachRefSlot(dst, first, [&](Addr at) {
        charge(sink, 3);
        const std::uint64_t token = dst.load64(at);
        Addr target = 0;
        if (token != kNullRef) {
            decode_check(token - 1 < decoded, DecodeStatus::BadHandle,
                         r.pos(),
                         "Kryo ref token %llu out of range (%zu objects)",
                         (unsigned long long)token, decoded);
            target = dst.objects()[first + token - 1];
        }
        dst.store64(at, target);
        if (sink) {
            sink->store(at, 8);
        }
    });

    decode_check(decoded != 0, DecodeStatus::Malformed, r.pos(),
                 "empty Kryo stream (no object records)");
    return dst.objects()[first];
}

} // namespace cereal
