#include "serde/plaincode_serde.hh"

#include <deque>

#include "heap/object.hh"
#include "heap/object_table.hh"
#include "heap/walker.hh"
#include "serde/bytes.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

constexpr std::uint32_t kMagic = 0x31434c50; // "PLC1"
constexpr std::uint64_t kNullRef = 0;

/**
 * All plain-code compute goes through computeStreamlined(): the
 * generated routines are branch-predictable straight-line code, so the
 * core model charges them at cpiStraightLine rather than cpiBase.
 */
void
chargeStreamlined(MemSink *sink, std::uint64_t ops)
{
    if (sink) {
        sink->computeStreamlined(ops);
    }
}

void
chargeProbeStreamlined(MemSink *sink, const PlaincodeSerdeCosts &costs,
                       Addr key)
{
    if (!sink) {
        return;
    }
    sink->computeStreamlined(costs.handleProbe);
    sink->load(probeBucket(key), 8);
}

} // namespace

std::vector<std::uint8_t>
PlaincodeSerializer::serialize(Heap &src, Addr root, MemSink *sink)
{
    ByteWriter w(sink);
    w.u32(kMagic);

    ObjectTable handles(src); // handle + 1
    std::uint64_t next_handle = 0;
    std::deque<Addr> queue;

    // Reference encoding: 0 = null, otherwise handle+1 as a varint.
    auto ref_token = [&](Addr obj) -> std::uint64_t {
        if (obj == 0) {
            return kNullRef;
        }
        chargeProbeStreamlined(sink, costs_, obj);
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
        chargeStreamlined(sink, costs_.perObject);

        ObjectView v(src, obj);
        const auto &d = v.klass();
        // Generated code is schema-compiled: registry ids go on the
        // wire directly — no per-stream class numbering handshake.
        w.varint(v.klassId());

        if (d.isArray()) {
            setPhase(sink, "copy");
            const std::uint64_t n = v.length();
            w.varint(n);
            if (d.elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    if (sink) {
                        sink->load(v.elemAddr(i), 8);
                    }
                    chargeStreamlined(sink, costs_.fieldGet);
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
                        sink->computeStreamlined(costs_.bulkPerBlock);
                    }
                }
                w.raw(src.view(v.elemAddr(0), bytes), bytes);
            }
            continue;
        }

        // Width-classed slots: each field is written at its natural
        // width, burned into the generated writer at schema-compile
        // time — still an unconditional store sequence, just with the
        // store width resolved statically instead of a blanket 8 B.
        // References go as varint handle tokens.
        setPhase(sink, "copy");
        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            chargeStreamlined(sink, costs_.fieldGet);
            if (sink) {
                sink->load(v.fieldAddr(i), 8);
            }
            if (f.type == FieldType::Reference) {
                w.varint(ref_token(v.getRef(i)));
            } else {
                const std::uint64_t raw = v.getRaw(i);
                w.raw(&raw, fieldTypeBytes(f.type));
            }
        }
    }

    return w.take();
}

Addr
PlaincodeSerializer::deserialize(const std::vector<std::uint8_t> &stream,
                                 Heap &dst, MemSink *sink)
{
    ByteReader r(stream, sink);
    decode_check(r.u32() == kMagic, DecodeStatus::BadMagic, 0,
                 "bad plaincode stream magic");

    // Handle h is the heap's object first + h: each record allocates
    // exactly one object.
    const std::size_t first = dst.objectCount();

    while (!r.done()) {
        setPhase(sink, "walk");
        chargeStreamlined(sink, costs_.perObject);
        std::size_t id_at = r.pos();
        std::uint64_t id64 = r.varint();
        decode_check(id64 < dst.registry().size(), DecodeStatus::BadClass,
                     id_at, "unknown plaincode class id %llu (%zu known)",
                     (unsigned long long)id64, dst.registry().size());
        const KlassId id = static_cast<KlassId>(id64);
        const auto &d = dst.registry().klass(id);

        if (d.isArray()) {
            std::size_t len_at = r.pos();
            std::uint64_t n = r.varint();
            // Allocation cap: every element owes wire bytes (at least
            // one varint byte per reference token, the element size
            // otherwise), so bound the count by remaining() before
            // allocating and before the n * esz products below can
            // overflow.
            const unsigned wire_esz =
                d.elemType() == FieldType::Reference
                    ? 1
                    : fieldTypeBytes(d.elemType());
            decode_check(n <= r.remaining() / wire_esz,
                         DecodeStatus::BadLength, len_at,
                         "array length %llu exceeds remaining stream",
                         (unsigned long long)n);
            setPhase(sink, "copy");
            chargeStreamlined(sink, costs_.alloc);
            Addr obj = dst.allocateArray(d.elemType(), n);
            if (sink) {
                sink->store(obj, 24);
            }
            ObjectView v(dst, obj);
            if (d.elemType() == FieldType::Reference) {
                // Tokens stay in their slots until the resolve pass.
                for (std::uint64_t i = 0; i < n; ++i) {
                    chargeStreamlined(sink, costs_.fieldSet);
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
                        sink->computeStreamlined(costs_.bulkPerBlock);
                    }
                }
            }
            continue;
        }

        // Field slots are mandatory at their schema-fixed widths, so
        // the whole record either fits or the stream is truncated.
        setPhase(sink, "copy");
        chargeStreamlined(sink, costs_.alloc);
        Addr obj = dst.allocateInstance(id);
        if (sink) {
            sink->store(obj, 16);
        }
        ObjectView v(dst, obj);
        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            chargeStreamlined(sink, costs_.fieldSet);
            if (f.type == FieldType::Reference) {
                v.setRef(i, r.varint());
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

    const std::size_t decoded = dst.objectCount() - first;
    setPhase(sink, "patch");
    forEachRefSlot(dst, first, [&](Addr at) {
        chargeStreamlined(sink, 2);
        const std::uint64_t token = dst.load64(at);
        Addr target = 0;
        if (token != kNullRef) {
            decode_check(token - 1 < decoded, DecodeStatus::BadHandle,
                         r.pos(),
                         "plaincode ref token %llu out of range "
                         "(%zu objects)",
                         (unsigned long long)token, decoded);
            target = dst.objects()[first + token - 1];
        }
        dst.store64(at, target);
        if (sink) {
            sink->store(at, 8);
        }
    });

    decode_check(decoded != 0, DecodeStatus::Malformed, r.pos(),
                 "empty plaincode stream (no object records)");
    return dst.objects()[first];
}

} // namespace cereal
