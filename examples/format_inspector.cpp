/**
 * @file
 * Example: inspect the Cereal serialization format byte by byte.
 *
 * Serializes the object graph from the paper's Figure 4 (four objects;
 * objA referencing objB and objD, objB referencing objC) and dumps the
 * three decoupled structures — value array, packed reference array,
 * packed layout bitmaps — with their end maps, annotated. A compact
 * way to *see* Sections IV-A/IV-B.
 *
 *   $ ./examples/format_inspector
 */

#include <cstdio>
#include <span>

#include "cereal/cereal_serializer.hh"
#include "heap/object.hh"

using namespace cereal;

namespace {

void
hexdump(const char *title, std::span<const std::uint8_t> bytes)
{
    std::printf("%s (%zu bytes):", title, bytes.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (i % 16 == 0) {
            std::printf("\n  %04zx:", i);
        }
        std::printf(" %02x", bytes[i]);
    }
    std::printf("\n");
}

void
bindump(const char *title, std::span<const std::uint8_t> bytes)
{
    std::printf("%s:", title);
    for (std::uint8_t b : bytes) {
        std::printf(" ");
        for (int i = 7; i >= 0; --i) {
            std::printf("%d", (b >> i) & 1);
        }
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    KlassRegistry registry;
    // Figure 4's shapes: a holder with two references and a payload,
    // plus small leaf objects.
    KlassId holder = registry.add("ObjA", {{"refB", FieldType::Reference},
                                           {"val", FieldType::Long},
                                           {"refD", FieldType::Reference}});
    KlassId node = registry.add("ObjB", {{"refC", FieldType::Reference},
                                         {"val", FieldType::Long}});
    KlassId leaf = registry.add("Leaf", {{"val", FieldType::Long}});

    Heap heap(registry);
    Addr obj_c = heap.allocateInstance(leaf);
    ObjectView(heap, obj_c).setLong(0, 0xCC);
    Addr obj_d = heap.allocateInstance(leaf);
    ObjectView(heap, obj_d).setLong(0, 0xDD);
    Addr obj_b = heap.allocateInstance(node);
    ObjectView(heap, obj_b).setRef(0, obj_c);
    ObjectView(heap, obj_b).setLong(1, 0xBB);
    Addr obj_a = heap.allocateInstance(holder);
    ObjectView(heap, obj_a).setRef(0, obj_b);
    ObjectView(heap, obj_a).setLong(1, 0xAA);
    ObjectView(heap, obj_a).setRef(2, obj_d);

    CerealSerializer ser;
    ser.registerAll(registry);
    CerealStream s = ser.serializeToStream(heap, obj_a);

    std::printf("== Cereal stream for the Figure-4 style graph ==\n");
    std::printf("objects: %u   total deserialized image: %u bytes\n",
                s.objectCount, s.totalGraphBytes);
    std::printf("reference slots: %llu   bitmap bits: %llu\n\n",
                (unsigned long long)s.refEntries,
                (unsigned long long)s.bitmapBits);

    std::printf("value array (%zu x 8B slots: mark word, class ID, "
                "cleared ext slot, then primitive fields):\n",
                s.valueArray.size());
    for (std::size_t i = 0; i < s.valueArray.size(); ++i) {
        std::printf("  [%2zu] %016llx\n", i,
                    (unsigned long long)s.valueArray[i]);
    }
    std::printf("\n");

    hexdump("packed reference array buckets", s.refBuckets);
    bindump("reference end map  (bit i set = bucket i ends an entry)",
            s.refEndMap);
    std::printf("  entries decode as (relative address / 8) + 1; "
                "0 = null\n\n");

    hexdump("packed layout bitmap buckets", s.bitmapBuckets);
    bindump("bitmap end map", s.bitmapEndMap);
    std::printf("  each entry: marker bit, then one bit per 8 B slot "
                "(1 = reference)\n\n");

    std::printf("sizes: packed stream %llu B vs unpacked baseline %llu "
                "B (Section IV-A) -> %.1f%% saved by object packing\n",
                (unsigned long long)s.serializedBytes(),
                (unsigned long long)s.baselineBytes(),
                (1.0 - static_cast<double>(s.serializedBytes()) /
                           static_cast<double>(s.baselineBytes())) *
                    100);

    // Round-trip proof.
    Heap dst(registry, 0x9'0000'0000ULL);
    Addr root = ser.deserializeStream(s, dst);
    std::printf("\nreconstructed at %#llx: objA.val=%#llx, "
                "objA.refB->val=%#llx, objA.refB->refC->val=%#llx, "
                "objA.refD->val=%#llx\n",
                (unsigned long long)root,
                (unsigned long long)ObjectView(dst, root).getLong(1),
                (unsigned long long)ObjectView(
                    dst, ObjectView(dst, root).getRef(0))
                    .getLong(1),
                (unsigned long long)ObjectView(
                    dst, ObjectView(dst, ObjectView(dst, root).getRef(0))
                             .getRef(0))
                    .getLong(0),
                (unsigned long long)ObjectView(
                    dst, ObjectView(dst, root).getRef(2))
                    .getLong(0));
    return 0;
}
