#include "serde/hps_serde.hh"

#include <cstring>
#include <deque>
#include <unordered_set>

#include "heap/object.hh"
#include "heap/object_table.hh"
#include "serde/bytes.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

constexpr std::uint32_t kMagic = 0x31535048; // "HPS1"

/** Region offset of the segment header (fixed stream header size). */
constexpr std::size_t kRegionAt = 16;

std::uint64_t
encodeRef(std::uint64_t rel)
{
    return (rel << 1) | 1;
}

/** On-wire element width: references are tagged u64 tokens. */
unsigned
wireElemBytes(const KlassDescriptor &d)
{
    return d.elemType() == FieldType::Reference
               ? 8
               : fieldTypeBytes(d.elemType());
}

std::uint32_t
le32at(const std::vector<std::uint8_t> &buf, std::size_t at)
{
    std::uint32_t v;
    std::memcpy(&v, buf.data() + at, 4);
    return v;
}

std::uint64_t
le64at(const std::vector<std::uint8_t> &buf, std::size_t at)
{
    std::uint64_t v;
    std::memcpy(&v, buf.data() + at, 8);
    return v;
}

} // namespace

const HpsImage::Segment &
HpsImage::at(std::uint64_t off) const
{
    auto it = byOffset_.find(off);
    panic_if(it == byOffset_.end(),
             "no HPS segment at region offset %llu",
             (unsigned long long)off);
    return segments_[it->second];
}

std::uint64_t
HpsImage::fieldRaw(const Segment &s, std::uint64_t idx) const
{
    panic_if(idx >= s.count, "HPS field index %llu out of range",
             (unsigned long long)idx);
    std::uint64_t v;
    std::memcpy(&v, s.body + idx * 8, 8);
    return v;
}

bool
HpsImage::refTarget(std::uint64_t enc, std::uint64_t *off)
{
    if (enc == 0) {
        return false;
    }
    *off = enc >> 1;
    return true;
}

std::vector<std::uint8_t>
HpsSerializer::serialize(Heap &src, Addr root, MemSink *sink)
{
    ByteWriter w(sink);
    w.u32(kMagic);
    // Segment count and region length are patched after the walk.
    std::size_t count_at = w.size();
    w.u32(0);
    std::size_t len_at = w.size();
    w.u64(0);

    // Region offsets are assigned at first encounter: segment sizes
    // are a pure function of the class (and array length), so the
    // layout is known before the target segment is written.
    // Segment offsets are not slot-aligned: the table holds each
    // object's handle + 1, and rels[handle] its offset.
    ObjectTable handles(src);
    std::vector<std::uint64_t> rels;
    std::deque<Addr> queue;
    std::uint64_t assigned_bytes = 0;

    std::unordered_map<KlassId, std::uint32_t> type_ids;
    std::vector<KlassId> type_table;

    auto seg_bytes_of = [&](Addr obj) -> std::uint64_t {
        ObjectView v(src, obj);
        const auto &d = v.klass();
        if (d.isArray()) {
            return 12 + v.length() * wireElemBytes(d);
        }
        return 4 + std::uint64_t{d.numFields()} * 8;
    };

    auto ref_rel = [&](Addr obj) -> std::uint64_t {
        panic_if(obj == 0, "ref_rel(null)");
        chargeProbe(sink, costs_.handleProbe, obj);
        std::uint32_t &e = handles[obj];
        if (e != 0) {
            return rels[e - 1];
        }
        e = ObjectTable::entry(rels.size());
        const std::uint64_t rel = assigned_bytes;
        assigned_bytes += 4 + seg_bytes_of(obj);
        rels.push_back(rel);
        queue.push_back(obj);
        return rel;
    };

    auto type_id_of = [&](KlassId id) -> std::uint32_t {
        auto it = type_ids.find(id);
        if (it != type_ids.end()) {
            return it->second;
        }
        auto tid = static_cast<std::uint32_t>(type_table.size());
        type_ids.emplace(id, tid);
        type_table.push_back(id);
        return tid;
    };

    auto ref_token = [&](Addr target) -> std::uint64_t {
        return target == 0 ? 0 : encodeRef(ref_rel(target));
    };

    // The emit loop both walks (pointer chase + layout probes) and
    // packs; attribute it to "copy" with the type table as "metadata".
    setPhase(sink, "copy");
    ref_rel(root);
    std::uint32_t seg_count = 0;
    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();
        ++seg_count;

        if (sink) {
            sink->loadDep(obj, 16); // header: resolve class
        }
        charge(sink, costs_.perSegment);

        ObjectView v(src, obj);
        const auto &d = v.klass();
        w.u32(static_cast<std::uint32_t>(seg_bytes_of(obj)));
        w.u32(type_id_of(v.klassId()));

        if (d.isArray()) {
            const std::uint64_t n = v.length();
            w.u64(n);
            if (d.elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    if (sink) {
                        sink->load(v.elemAddr(i), 8);
                    }
                    charge(sink, costs_.fieldCopy);
                    w.u64(ref_token(v.getRefElem(i)));
                }
            } else {
                const unsigned esz = fieldTypeBytes(d.elemType());
                const Addr bytes = n * esz;
                if (sink) {
                    sink->load(v.elemAddr(0), 0); // position marker
                    for (Addr off = 0; off < bytes; off += 64) {
                        auto chunk = static_cast<std::uint32_t>(
                            std::min<Addr>(64, bytes - off));
                        sink->load(v.elemAddr(0) + off, chunk);
                        sink->compute(costs_.bulkPerBlock);
                    }
                }
                w.raw(src.view(v.elemAddr(0), bytes), bytes);
            }
            continue;
        }

        for (std::uint32_t i = 0; i < d.numFields(); ++i) {
            const auto &f = d.fields()[i];
            charge(sink, costs_.fieldCopy);
            if (sink) {
                sink->load(v.fieldAddr(i), 8);
            }
            if (f.type == FieldType::Reference) {
                w.u64(ref_token(v.getRef(i)));
            } else {
                w.u64(v.getRaw(i));
            }
        }
    }

    w.patchU32(count_at, seg_count);
    w.patchU32(len_at, static_cast<std::uint32_t>(assigned_bytes));
    w.patchU32(len_at + 4,
               static_cast<std::uint32_t>(assigned_bytes >> 32));

    // Trailing type table: id -> class name.
    setPhase(sink, "metadata");
    w.u32(static_cast<std::uint32_t>(type_table.size()));
    for (KlassId id : type_table) {
        const auto &d = src.registry().klass(id);
        w.str(d.name());
        charge(sink, d.name().size());
    }

    return w.take();
}

HpsImage
HpsSerializer::attach(const std::vector<std::uint8_t> &stream,
                      const KlassRegistry &reg, MemSink *sink) const
{
    ByteReader r(stream, sink);
    setPhase(sink, "metadata");
    decode_check(r.u32() == kMagic, DecodeStatus::BadMagic, 0,
                 "bad HPS stream magic");
    std::uint32_t seg_count = r.u32();
    std::uint64_t data_bytes = r.u64();
    decode_check(data_bytes <= r.remaining(), DecodeStatus::BadLength, 8,
                 "segment region (%llu B) exceeds stream (%zu B left)",
                 (unsigned long long)data_bytes, r.remaining());
    panic_if(r.pos() != kRegionAt, "HPS header layout drift");
    r.skip(data_bytes);

    // Trailing type table first: segment validation needs the classes.
    std::size_t count_at = r.pos();
    std::uint32_t type_count = r.u32();
    // Each table entry is at least a 2 B length prefix.
    decode_check(type_count <= r.remaining() / 2, DecodeStatus::BadLength,
                 count_at, "type table count %u exceeds remaining stream",
                 type_count);
    std::vector<KlassId> types(type_count);
    for (std::uint32_t i = 0; i < type_count; ++i) {
        std::size_t name_at = r.pos();
        std::string type_name = r.str();
        KlassId id = reg.idByName(type_name);
        decode_check(id != kBadKlassId, DecodeStatus::BadClass, name_at,
                     "unknown class '%s' in HPS stream",
                     type_name.c_str());
        types[i] = id;
        charge(sink, 2 * type_name.size());
    }
    decode_check(r.done(), DecodeStatus::Malformed, r.pos(),
                 "trailing bytes after HPS type table");

    // Single bounds-checked validation sweep over the segment region.
    // Only structural words are touched (length prefixes, type ids,
    // array counts, reference tokens) — primitive payload bytes are
    // never read, which is the zero-copy receive-side story.
    setPhase(sink, "walk");
    HpsImage image;
    std::unordered_set<std::uint64_t> starts;
    struct PendingRef
    {
        std::size_t at; // absolute stream offset (error reporting)
        std::uint64_t enc;
    };
    std::vector<PendingRef> refs;

    std::uint64_t off = 0;
    while (off < data_bytes) {
        const std::size_t seg_at = kRegionAt + off;
        const std::uint64_t avail = data_bytes - off;
        charge(sink, costs_.validatePerSegment);
        if (sink) {
            sink->load(kStreamBase + seg_at, 8);
        }
        decode_check(avail >= 8, DecodeStatus::Truncated, seg_at,
                     "segment prefix at +%llu overruns region",
                     (unsigned long long)off);
        std::uint64_t seg_bytes = le32at(stream, seg_at);
        decode_check(seg_bytes >= 4 && seg_bytes <= avail - 4,
                     DecodeStatus::BadLength, seg_at,
                     "segment length %llu at +%llu exceeds region",
                     (unsigned long long)seg_bytes,
                     (unsigned long long)off);
        std::uint32_t tid = le32at(stream, seg_at + 4);
        decode_check(tid < types.size(), DecodeStatus::BadClass,
                     seg_at + 4, "bad HPS type id %u at +%llu", tid,
                     (unsigned long long)off);
        KlassId id = types[tid];
        const auto &d = reg.klass(id);

        HpsImage::Segment seg;
        seg.offset = off;
        seg.klass = id;
        seg.body = stream.data() + seg_at + 8;
        seg.bodyBytes = static_cast<std::uint32_t>(seg_bytes - 4);

        if (d.isArray()) {
            decode_check(seg_bytes >= 12, DecodeStatus::Truncated,
                         seg_at, "array segment at +%llu lacks a count",
                         (unsigned long long)off);
            if (sink) {
                sink->load(kStreamBase + seg_at + 8, 8);
            }
            std::uint64_t n = le64at(stream, seg_at + 8);
            const unsigned esz = wireElemBytes(d);
            // Overflow-safe bound before the n * esz product.
            decode_check(n <= (seg_bytes - 12) / esz,
                         DecodeStatus::BadLength, seg_at + 8,
                         "array count %llu at +%llu exceeds segment",
                         (unsigned long long)n, (unsigned long long)off);
            decode_check(seg_bytes == 12 + n * esz,
                         DecodeStatus::Malformed, seg_at,
                         "array segment at +%llu: length %llu does not "
                         "match count %llu",
                         (unsigned long long)off,
                         (unsigned long long)seg_bytes,
                         (unsigned long long)n);
            seg.count = n;
            if (d.elemType() == FieldType::Reference) {
                // Elements follow the prefix, type id, and u64 count.
                for (std::uint64_t i = 0; i < n; ++i) {
                    const std::size_t at = seg_at + 16 + i * 8;
                    if (sink) {
                        sink->load(kStreamBase + at, 8);
                    }
                    refs.push_back({at, le64at(stream, at)});
                }
            }
        } else {
            const std::uint64_t want =
                4 + std::uint64_t{d.numFields()} * 8;
            decode_check(seg_bytes == want, DecodeStatus::Malformed,
                         seg_at,
                         "instance segment at +%llu: length %llu, class "
                         "'%s' wants %llu",
                         (unsigned long long)off,
                         (unsigned long long)seg_bytes,
                         d.name().c_str(), (unsigned long long)want);
            seg.count = d.numFields();
            for (std::uint32_t i = 0; i < d.numFields(); ++i) {
                if (d.fields()[i].type != FieldType::Reference) {
                    continue;
                }
                const std::size_t at = seg_at + 8 + std::size_t{i} * 8;
                if (sink) {
                    sink->load(kStreamBase + at, 8);
                }
                refs.push_back({at, le64at(stream, at)});
            }
        }

        image.byOffset_.emplace(off, image.segments_.size());
        image.segments_.push_back(seg);
        starts.insert(off);
        off += 4 + seg_bytes;
    }
    decode_check(image.segments_.size() == seg_count,
                 DecodeStatus::Malformed, 4,
                 "segment count %u does not match region (%zu found)",
                 seg_count, image.segments_.size());
    decode_check(!image.segments_.empty(), DecodeStatus::Malformed,
                 kRegionAt, "empty HPS stream (no segments)");

    // Deferred reference audit: every non-null token must be tagged and
    // land on a segment prefix.
    for (const auto &p : refs) {
        if (p.enc == 0) {
            continue;
        }
        charge(sink, costs_.validatePerRef);
        decode_check(p.enc & 1, DecodeStatus::Malformed, p.at,
                     "untagged non-null HPS reference %#llx",
                     (unsigned long long)p.enc);
        std::uint64_t rel = p.enc >> 1;
        decode_check(starts.count(rel) != 0, DecodeStatus::BadHandle,
                     p.at,
                     "reference offset +%llu is not a segment start",
                     (unsigned long long)rel);
    }

    return image;
}

Addr
HpsSerializer::deserialize(const std::vector<std::uint8_t> &stream,
                           Heap &dst, MemSink *sink)
{
    // The narrated work of an HPS receive is attach() alone; the heap
    // materialization below exists so the common Serializer round-trip
    // contract (and the cross-backend differential oracle) holds, and
    // is deliberately unnarrated — a real consumer reads the HpsImage
    // views in place.
    HpsImage image = attach(stream, dst.registry(), sink);

    std::unordered_map<std::uint64_t, Addr> addr_of;
    for (const auto &s : image.segments()) {
        const auto &d = dst.registry().klass(s.klass);
        Addr obj = d.isArray() ? dst.allocateArray(d.elemType(), s.count)
                               : dst.allocateInstance(s.klass);
        addr_of.emplace(s.offset, obj);
    }

    auto resolve = [&](std::uint64_t enc) -> Addr {
        std::uint64_t off;
        if (!HpsImage::refTarget(enc, &off)) {
            return 0;
        }
        return addr_of.at(off);
    };

    for (const auto &s : image.segments()) {
        const auto &d = dst.registry().klass(s.klass);
        ObjectView v(dst, addr_of.at(s.offset));
        if (d.isArray()) {
            if (d.elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < s.count; ++i) {
                    std::uint64_t enc;
                    std::memcpy(&enc, s.body + 8 + i * 8, 8);
                    v.setRefElem(i, resolve(enc));
                }
            } else if (s.count > 0) {
                const unsigned esz = fieldTypeBytes(d.elemType());
                dst.storeBytes(v.elemAddr(0), s.body + 8,
                               s.count * esz);
            }
        } else {
            for (std::uint32_t i = 0; i < d.numFields(); ++i) {
                std::uint64_t raw = image.fieldRaw(s, i);
                if (d.fields()[i].type == FieldType::Reference) {
                    v.setRef(i, resolve(raw));
                } else {
                    v.setRaw(i, raw);
                }
            }
        }
    }

    return addr_of.at(image.root().offset);
}

} // namespace cereal
