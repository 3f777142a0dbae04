#include "serde/skyway_serde.hh"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "heap/object.hh"
#include "heap/object_table.hh"
#include "serde/bytes.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

constexpr std::uint32_t kMagic = 0x534b5957; // "SKYW"

/** Encode a reference slot: null stays 0, else tagged relative offset. */
std::uint64_t
encodeRef(std::uint64_t rel)
{
    return (rel << 1) | 1;
}

} // namespace

std::vector<std::uint8_t>
SkywaySerializer::serialize(Heap &src, Addr root, MemSink *sink)
{
    ByteWriter w(sink);
    w.u32(kMagic);

    // Relative addresses are assigned at first encounter: the stream
    // data section is laid out in BFS discovery order.
    ObjectTable rel_of(src); // relative address / 8 + 1
    std::deque<Addr> queue;
    std::uint64_t assigned_bytes = 0;

    std::unordered_map<KlassId, std::uint32_t> type_ids;
    std::vector<KlassId> type_table;

    auto ref_rel = [&](Addr obj) -> std::uint64_t {
        panic_if(obj == 0, "ref_rel(null)");
        chargeProbe(sink, costs_.handleProbe, obj);
        std::uint32_t &e = rel_of[obj];
        if (e != 0) {
            return std::uint64_t{e - 1} * 8;
        }
        const std::uint64_t rel = assigned_bytes;
        assigned_bytes += src.objectBytes(obj);
        e = ObjectTable::entry(rel / 8);
        queue.push_back(obj);
        return rel;
    };

    auto type_id_of = [&](KlassId id) -> std::uint32_t {
        auto it = type_ids.find(id);
        if (it != type_ids.end()) {
            return it->second;
        }
        // Automatic type registration: first encounter assigns an ID.
        auto tid = static_cast<std::uint32_t>(type_table.size());
        type_ids.emplace(id, tid);
        type_table.push_back(id);
        return tid;
    };

    // Reserve the data-section length; patched once known.
    std::size_t len_at = w.size();
    w.u64(0);

    // Skyway is a copy machine: the slot loop below both walks (the
    // first-word pointer chase + ref_rel probes) and copies; attribute
    // it to "copy", with the trailing type table as "metadata".
    setPhase(sink, "copy");
    ref_rel(root);
    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();
        charge(sink, costs_.perObject);

        ObjectView v(src, obj);
        const unsigned slots = v.slots();
        const SlotBitmap bitmap = src.instanceBitmap(obj);
        const unsigned header_slots = src.registry().headerSlots();

        for (unsigned s = 0; s < slots; ++s) {
            if (sink) {
                // The first word of each object is reached by chasing
                // the discovering reference; the rest stream.
                if (s == 0) {
                    sink->loadDep(obj, 8);
                } else {
                    sink->load(obj + Addr{s} * 8, 8);
                }
                sink->compute(costs_.copyPerWord);
            }
            std::uint64_t word = src.load64(obj + Addr{s} * 8);
            if (s == 1) {
                // Klass pointer -> integer type ID.
                word = type_id_of(v.klassId());
            } else if (s >= header_slots && bitmap[s]) {
                // Reference -> relative address.
                charge(sink, costs_.refAdjust);
                word = word ? encodeRef(ref_rel(word)) : 0;
            }
            w.u64(word);
        }
    }
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

Addr
SkywaySerializer::deserialize(const std::vector<std::uint8_t> &stream,
                              Heap &dst, MemSink *sink)
{
    ByteReader r(stream, sink);
    decode_check(r.u32() == kMagic, DecodeStatus::BadMagic, 0,
                 "bad Skyway stream magic");
    std::uint64_t data_bytes = r.u64();
    decode_check(data_bytes <= r.remaining(), DecodeStatus::BadLength,
                 4, "data section (%llu B) exceeds stream (%zu B left)",
                 (unsigned long long)data_bytes, r.remaining());
    decode_check(data_bytes % 8 == 0, DecodeStatus::Malformed, 4,
                 "data section length %llu not slot-aligned",
                 (unsigned long long)data_bytes);

    // Bulk copy of the whole data section into fresh heap space — the
    // "simple memory copy" Skyway is built around.
    setPhase(sink, "copy");
    Addr base = dst.allocateRaw(data_bytes);
    {
        dst.storeBytes(base, r.next(data_bytes), data_bytes);
        if (sink) {
            for (Addr off = 0; off < data_bytes; off += 64) {
                auto chunk = static_cast<std::uint32_t>(
                    std::min<Addr>(64, data_bytes - off));
                sink->store(base + off, chunk);
                sink->compute(costs_.bulkPerBlock);
            }
        }
    }

    // Type table: resolve stream type IDs to registry classes.
    setPhase(sink, "metadata");
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
        KlassId id = dst.registry().idByName(type_name);
        decode_check(id != kBadKlassId, DecodeStatus::BadClass, name_at,
                     "unknown class '%s' in Skyway stream",
                     type_name.c_str());
        types[i] = id;
        charge(sink, 2 * type_name.size());
    }
    decode_check(r.done(), DecodeStatus::Malformed, r.pos(),
                 "trailing bytes after Skyway type table");

    // Validation pre-pass over the copied image: every object header
    // must name a known type, every object must fit inside the data
    // section, and array lengths (which came off the wire) must not
    // overflow the slot arithmetic. Records the set of valid object
    // start offsets so the fix-up pass can reject references that
    // point between objects.
    setPhase(sink, "walk");
    const unsigned header_slots = dst.registry().headerSlots();
    const auto &reg = dst.registry();
    std::unordered_set<Addr> starts;
    {
        Addr off = 0;
        while (off < data_bytes) {
            const Addr avail = data_bytes - off;
            decode_check(avail >= Addr{header_slots} * 8,
                         DecodeStatus::Truncated, 12 + off,
                         "object header at +%llu overruns data section",
                         (unsigned long long)off);
            std::uint64_t tid = dst.load64(base + off + 8);
            decode_check(tid < types.size(), DecodeStatus::BadClass,
                         12 + off, "bad Skyway type id %llu at +%llu",
                         (unsigned long long)tid, (unsigned long long)off);
            KlassId id = types[tid];
            const auto &d = reg.klass(id);
            std::uint64_t slots;
            if (d.isArray()) {
                decode_check(avail >= Addr{header_slots + 1} * 8,
                             DecodeStatus::Truncated, 12 + off,
                             "array header at +%llu overruns data section",
                             (unsigned long long)off);
                std::uint64_t len = dst.load64(
                    base + off + Addr{reg.arrayLengthSlot()} * 8);
                const unsigned esz = fieldTypeBytes(d.elemType());
                // Overflow-safe bound before the len * esz product.
                decode_check(len <= avail / esz, DecodeStatus::BadLength,
                             12 + off,
                             "array length %llu at +%llu exceeds data "
                             "section",
                             (unsigned long long)len,
                             (unsigned long long)off);
                slots = header_slots + 1 + (len * esz + 7) / 8;
            } else {
                slots = reg.instanceSlots(id);
            }
            decode_check(slots * 8 <= avail, DecodeStatus::Truncated,
                         12 + off,
                         "object at +%llu (%llu slots) overruns data "
                         "section",
                         (unsigned long long)off,
                         (unsigned long long)slots);
            starts.insert(off);
            off += slots * 8;
        }
    }
    decode_check(!starts.empty(), DecodeStatus::Malformed, 12,
                 "empty Skyway stream (no objects in data section)");

    // Sequential fix-up pass: restore klass pointers, rebase references.
    setPhase(sink, "patch");
    Addr off = 0;
    Addr root = 0;
    bool first = true;
    while (off < data_bytes) {
        Addr obj = base + off;
        charge(sink, costs_.fixupPerObject);

        if (sink) {
            sink->load(obj + 8, 8);
        }
        std::uint64_t tid = dst.load64(obj + 8);
        KlassId id = types[tid]; // validated by the pre-pass
        dst.store64(obj + 8, dst.registry().metadataAddr(id));
        if (sink) {
            sink->store(obj + 8, 8);
        }
        if (dst.registry().hasCerealHeaderExt()) {
            // Stale visited counters from the sender must not leak.
            dst.store64(obj + 16, 0);
        }

        dst.noteObject(obj);
        if (first) {
            root = obj;
            first = false;
        }

        const unsigned slots = dst.objectSlots(obj);
        const SlotBitmap bitmap = dst.instanceBitmap(obj);
        for (unsigned s = header_slots; s < slots; ++s) {
            if (!bitmap[s]) {
                continue;
            }
            charge(sink, costs_.refAdjust);
            Addr slot_addr = obj + Addr{s} * 8;
            if (sink) {
                sink->load(slot_addr, 8);
            }
            std::uint64_t enc = dst.load64(slot_addr);
            if (enc != 0) {
                // Non-null references carry the tag bit and must land on
                // an object start inside the data section.
                decode_check(enc & 1, DecodeStatus::Malformed,
                             12 + off + Addr{s} * 8,
                             "untagged non-null reference %#llx at +%llu",
                             (unsigned long long)enc,
                             (unsigned long long)off);
                Addr rel = enc >> 1;
                decode_check(starts.count(rel) != 0,
                             DecodeStatus::BadHandle,
                             12 + off + Addr{s} * 8,
                             "reference offset +%llu is not an object "
                             "start",
                             (unsigned long long)rel);
                dst.store64(slot_addr, base + rel);
                if (sink) {
                    sink->store(slot_addr, 8);
                }
            }
        }
        off += Addr{slots} * 8;
    }
    return root;
}

} // namespace cereal
