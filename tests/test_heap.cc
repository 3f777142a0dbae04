/**
 * @file
 * Unit tests for the JVM heap model: klass registry layout computation,
 * object allocation and header format, field/array accessors, layout
 * bitmaps, the Cereal header extension, and the heap-indexed
 * ObjectTable.
 */

#include <gtest/gtest.h>

#include <vector>

#include "heap/heap.hh"
#include "heap/object.hh"
#include "heap/object_table.hh"

namespace cereal {
namespace {

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest() : reg(/*cereal_header_ext=*/true), heap(reg)
    {
        point = reg.add("Point", {{"x", FieldType::Long},
                                  {"y", FieldType::Long}});
        node = reg.add("Node", {{"value", FieldType::Int},
                                {"next", FieldType::Reference},
                                {"label", FieldType::Reference}});
    }

    KlassRegistry reg;
    Heap heap;
    KlassId point;
    KlassId node;
};

TEST_F(HeapTest, HeaderGeometryWithExtension)
{
    EXPECT_EQ(reg.headerSlots(), 3u);
    EXPECT_TRUE(reg.hasCerealHeaderExt());
    // Point: 3 header slots + 2 fields.
    EXPECT_EQ(reg.instanceSlots(point), 5u);
}

TEST_F(HeapTest, HeaderGeometryWithoutExtension)
{
    KlassRegistry plain(false);
    KlassId p = plain.add("P", {{"x", FieldType::Long}});
    EXPECT_EQ(plain.headerSlots(), 2u);
    EXPECT_EQ(plain.instanceSlots(p), 3u);
}

TEST_F(HeapTest, AllocationAssignsHeader)
{
    Addr obj = heap.allocateInstance(point);
    ObjectView v(heap, obj);
    EXPECT_EQ(v.klassId(), point);
    EXPECT_EQ(v.slots(), 5u);
    EXPECT_EQ(v.bytes(), 40u);
    // Mark word carries a 31-bit identity hash.
    EXPECT_LE(v.identityHash(), 0x7fffffffu);
    // Extension word starts cleared.
    EXPECT_EQ(v.extWord(), 0u);
}

TEST_F(HeapTest, DistinctIdentityHashes)
{
    Addr a = heap.allocateInstance(point);
    Addr b = heap.allocateInstance(point);
    EXPECT_NE(ObjectView(heap, a).identityHash(),
              ObjectView(heap, b).identityHash());
}

TEST_F(HeapTest, FieldAccessors)
{
    Addr obj = heap.allocateInstance(point);
    ObjectView v(heap, obj);
    v.setLong(0, -123456789);
    v.setDouble(1, 2.718281828);
    EXPECT_EQ(v.getLong(0), -123456789);
    EXPECT_DOUBLE_EQ(v.getDouble(1), 2.718281828);

    v.setInt(0, -42);
    EXPECT_EQ(v.getInt(0), -42);
}

TEST_F(HeapTest, ReferenceFields)
{
    Addr a = heap.allocateInstance(node);
    Addr b = heap.allocateInstance(node);
    ObjectView va(heap, a);
    va.setRef(1, b);
    EXPECT_EQ(va.getRef(1), b);
    EXPECT_EQ(va.getRef(2), 0u); // null by default
}

TEST_F(HeapTest, LayoutBitmapMarksReferences)
{
    const auto &bm = reg.layoutBitmap(node);
    // Slots: mark, klass, ext, value, next, label.
    ASSERT_EQ(bm.size(), 6u);
    EXPECT_FALSE(bm[0]);
    EXPECT_FALSE(bm[1]);
    EXPECT_FALSE(bm[2]);
    EXPECT_FALSE(bm[3]);
    EXPECT_TRUE(bm[4]);
    EXPECT_TRUE(bm[5]);
}

TEST_F(HeapTest, PrimitiveArrayPacksElements)
{
    Addr arr = heap.allocateArray(FieldType::Int, 10);
    ObjectView v(heap, arr);
    EXPECT_TRUE(v.isArray());
    EXPECT_EQ(v.length(), 10u);
    // 3 header slots + length slot + ceil(40/8) = 9 slots.
    EXPECT_EQ(v.slots(), 9u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        v.setElem(i, i * 1000 + 7);
    }
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(v.getElem(i), i * 1000 + 7);
    }
}

TEST_F(HeapTest, CharArrayPacking)
{
    Addr arr = heap.allocateArray(FieldType::Char, 7);
    ObjectView v(heap, arr);
    // 14 bytes of data -> 2 slots.
    EXPECT_EQ(v.slots(), 3u + 1u + 2u);
    v.setElem(0, 'H');
    v.setElem(6, 'z');
    EXPECT_EQ(v.getElem(0), static_cast<std::uint64_t>('H'));
    EXPECT_EQ(v.getElem(6), static_cast<std::uint64_t>('z'));
}

TEST_F(HeapTest, ReferenceArrayBitmap)
{
    Addr arr = heap.allocateArray(FieldType::Reference, 3);
    auto bm = heap.instanceBitmap(arr);
    // mark, klass, ext, length, then 3 reference slots.
    ASSERT_EQ(bm.size(), 7u);
    EXPECT_FALSE(bm[3]);
    EXPECT_TRUE(bm[4]);
    EXPECT_TRUE(bm[5]);
    EXPECT_TRUE(bm[6]);
}

TEST_F(HeapTest, PrimitiveArrayBitmapAllZero)
{
    Addr arr = heap.allocateArray(FieldType::Long, 4);
    auto bm = heap.instanceBitmap(arr);
    ASSERT_EQ(bm.size(), 3u + 1u + 4u);
    for (std::size_t i = 0; i < bm.size(); ++i) {
        EXPECT_FALSE(bm[i]);
    }
}

TEST_F(HeapTest, ExtWordPackUnpack)
{
    std::uint64_t w = extword::make(0xBEEF, 7, 0x123456789ALL);
    EXPECT_EQ(extword::serialCounter(w), 0xBEEF);
    EXPECT_EQ(extword::unitId(w), 7);
    EXPECT_EQ(extword::relAddr(w), 0x123456789Au);
}

TEST_F(HeapTest, MarkWordPackUnpack)
{
    std::uint64_t m = markword::make(0x7fffffff, 5, 0x3f);
    EXPECT_EQ(markword::hash(m), 0x7fffffffu);
    EXPECT_EQ(markword::sync(m), 5);
    EXPECT_EQ(markword::gc(m), 0x3f);
}

TEST_F(HeapTest, ClearCerealMetadata)
{
    Addr a = heap.allocateInstance(point);
    Addr b = heap.allocateInstance(node);
    ObjectView(heap, a).setExtWord(extword::make(3, 1, 100));
    ObjectView(heap, b).setExtWord(extword::make(4, 2, 200));
    heap.clearCerealMetadata();
    EXPECT_EQ(ObjectView(heap, a).extWord(), 0u);
    EXPECT_EQ(ObjectView(heap, b).extWord(), 0u);
}

TEST_F(HeapTest, CerealCounterIsPerHeapAndClearsOnWrap)
{
    Heap other(reg, 0x5'0000'0000ULL);
    EXPECT_EQ(heap.nextCerealCounter(), 1);
    EXPECT_EQ(heap.nextCerealCounter(), 2);
    EXPECT_EQ(other.nextCerealCounter(), 1);

    Addr a = heap.allocateInstance(point);
    ObjectView(heap, a).setExtWord(extword::make(2, 9, 100));
    for (int i = 3; i <= 0xffff; ++i) {
        heap.nextCerealCounter();
    }
    EXPECT_EQ(ObjectView(heap, a).extWord(), extword::make(2, 9, 100));
    // The wrap clears every mark, then restarts the count at 1.
    EXPECT_EQ(heap.nextCerealCounter(), 1);
    EXPECT_EQ(ObjectView(heap, a).extWord(), 0u);
}

TEST(ObjectTableTest, ZeroInitialisedAtNonDefaultBase)
{
    KlassRegistry reg;
    KlassId point = reg.add("Point", {{"x", FieldType::Long}});
    Heap heap(reg, 0x7'4000'0000ULL);
    std::vector<Addr> objs;
    for (int i = 0; i < 1000; ++i) {
        objs.push_back(heap.allocateInstance(point));
    }
    ObjectTable table(heap);
    for (Addr o : objs) {
        EXPECT_EQ(table[o], 0u);
        EXPECT_EQ(table.index(o), (o - heap.base()) / 16);
    }
    EXPECT_EQ(table.index(heap.base()), 0u);
    table[objs[7]] = ObjectTable::entry(41);
    EXPECT_EQ(table[objs[7]], 42u);
    EXPECT_EQ(table[objs[6]], 0u);
    EXPECT_EQ(table[objs[8]], 0u);
    EXPECT_EQ(ObjectTable::slot(heap, objs.back()),
              (objs.back() - heap.base()) / 8);

    // A table of 2 MiB or more takes the huge-page allocation path.
    Addr big = heap.allocateArray(FieldType::Long, Addr{1} << 20);
    Addr last = heap.allocateInstance(point);
    ObjectTable large(heap);
    EXPECT_EQ(large[big], 0u);
    EXPECT_EQ(large[last], 0u);
    large[last] = ObjectTable::entry(7);
    EXPECT_EQ(large[last], 8u);
    EXPECT_EQ(large[objs[7]], 0u);
}

TEST(ObjectTableTest, AddressOutsideTheHeapPanics)
{
    KlassRegistry reg;
    KlassId point = reg.add("Point", {{"x", FieldType::Long}});
    Heap heap(reg, 0x7'4000'0000ULL);
    Addr a = heap.allocateInstance(point);
    ObjectTable table(heap);
    EXPECT_DEATH(table[heap.base() - 8], "outside the heap");
    EXPECT_DEATH(table[heap.top()], "outside the heap");
    EXPECT_DEATH(table[a + 4], "outside the heap");
    // The arena is captured at construction: later objects are outside.
    Addr b = heap.allocateInstance(point);
    EXPECT_DEATH(table[b], "outside the heap");
    EXPECT_DEATH(ObjectTable::slot(heap, heap.top()), "outside the heap");
    EXPECT_DEATH(ObjectTable::entry(0xffffffffULL), "exceeds 32 bits");
}

TEST_F(HeapTest, OutOfBoundsAccessPanics)
{
    EXPECT_DEATH(heap.load64(heap.base() + heap.usedBytes() + 64),
                 "out of bounds");
}

TEST_F(HeapTest, DuplicateClassNameFatal)
{
    EXPECT_DEATH(
        {
            KlassRegistry r2;
            r2.add("Dup", {});
            r2.add("Dup", {});
        },
        "registered twice");
}

TEST_F(HeapTest, MetadataAddressesResolve)
{
    Addr meta = reg.metadataAddr(node);
    EXPECT_EQ(reg.idByMetadataAddr(meta), node);
    EXPECT_GE(reg.metadataBytes(node), 16u);
    // Object klass pointers hold the metadata address.
    Addr obj = heap.allocateInstance(node);
    EXPECT_EQ(heap.load64(obj + 8), meta);
}

TEST(KlassIndex, UnalignedMetadataBaseResolvesEveryClass)
{
    // The first block sits at the unaligned base itself; later blocks
    // start at the 64 B boundary after their predecessor.
    const Addr base = 0x0800'0000'0028ULL;
    KlassRegistry reg(true, base);
    std::vector<FieldDesc> wide;
    for (int i = 0; i < 600; ++i) {
        // 603 slots -> 10 bitmap words -> an 88 B block over two slots.
        wide.push_back({"f" + std::to_string(i), FieldType::Reference});
    }
    const std::vector<KlassId> ids = {
        reg.add("A", {{"x", FieldType::Long}}),
        reg.add("Wide", wide),
        reg.arrayKlass(FieldType::Int),
        reg.add("Empty", {}),
    };
    EXPECT_EQ(reg.metadataAddr(ids[0]), base);
    EXPECT_GT(reg.metadataBytes(ids[1]), 64u);
    for (KlassId id : ids) {
        EXPECT_EQ(reg.idByMetadataAddr(reg.metadataAddr(id)), id)
            << reg.klass(id).name();
        if (id != ids[0]) {
            EXPECT_EQ(reg.metadataAddr(id) % 64, 0u);
        }
    }
}

TEST(KlassIndex, AddressesOffBlockStartsAreBad)
{
    const Addr base = 0x0800'0000'0028ULL;
    KlassRegistry reg(true, base);
    std::vector<FieldDesc> wide;
    for (int i = 0; i < 600; ++i) {
        wide.push_back({"f" + std::to_string(i), FieldType::Long});
    }
    const KlassId a = reg.add("A", {{"x", FieldType::Long}});
    const KlassId w = reg.add("Wide", wide);
    const KlassId last = reg.add("B", {{"y", FieldType::Reference}});

    // Inside a block: one word in, and the second slot a wide block
    // covers.
    EXPECT_EQ(reg.idByMetadataAddr(reg.metadataAddr(a) + 8), kBadKlassId);
    EXPECT_EQ(reg.idByMetadataAddr(reg.metadataAddr(w) + 64), kBadKlassId);
    // Below the base: inside its 64 B slot, the slot before, and 0.
    EXPECT_EQ(reg.idByMetadataAddr(base - 8), kBadKlassId);
    EXPECT_EQ(reg.idByMetadataAddr(base - 64), kBadKlassId);
    EXPECT_EQ(reg.idByMetadataAddr(0), kBadKlassId);
    // Past the last class.
    EXPECT_EQ(reg.idByMetadataAddr(reg.metadataAddr(last) + 64),
              kBadKlassId);
    EXPECT_EQ(reg.idByMetadataAddr(~Addr{0}), kBadKlassId);
}

TEST_F(HeapTest, ArrayKlassCanonicalised)
{
    KlassId a = reg.arrayKlass(FieldType::Int);
    KlassId b = reg.arrayKlass(FieldType::Int);
    EXPECT_EQ(a, b);
    EXPECT_NE(reg.arrayKlass(FieldType::Long), a);
    EXPECT_EQ(reg.klass(a).name(), "int[]");
}

TEST_F(HeapTest, IdByNameLookup)
{
    EXPECT_EQ(reg.idByName("Point"), point);
    EXPECT_EQ(reg.idByName("NoSuch"), kBadKlassId);
}

TEST_F(HeapTest, ObjectCountTracksAllocations)
{
    EXPECT_EQ(heap.objectCount(), 0u);
    heap.allocateInstance(point);
    heap.allocateArray(FieldType::Int, 3);
    EXPECT_EQ(heap.objectCount(), 2u);
}

} // namespace
} // namespace cereal
