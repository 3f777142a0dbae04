/**
 * @file
 * Tests for the Cereal serialization format: the object-packing scheme
 * (property tests over random values/bit strings), stream
 * encode/decode, and full functional round trips including the
 * header-strip variant and visited-counter wrap behaviour.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cereal/cereal_serializer.hh"
#include "cereal/format.hh"
#include "heap/object.hh"
#include "heap/walker.hh"
#include "serde/decode_error.hh"
#include "sim/rng.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using workloads::MicroBench;
using workloads::MicroWorkloads;

/** SlotBitmap words (bit i = bit i % 64 of word i / 64) of @p bits. */
std::vector<std::uint64_t>
toWords(const std::vector<bool> &bits)
{
    std::vector<std::uint64_t> w(bits.size() / 64 + 1, 0);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        w[i / 64] |= std::uint64_t{bits[i]} << (i % 64);
    }
    return w;
}

std::vector<bool>
toBools(const SlotBitmap &bm)
{
    std::vector<bool> out(bm.size());
    for (std::size_t i = 0; i < bm.size(); ++i) {
        out[i] = bm[i];
    }
    return out;
}

TEST(ObjectPacker, SingleSmallValue)
{
    ObjectPacker p;
    p.packValue(5); // '101' + marker -> 1 byte
    EXPECT_EQ(p.buckets().size(), 1u);
    EXPECT_EQ(p.entries(), 1u);
    ObjectUnpacker u(p.buckets(), p.endMap());
    EXPECT_EQ(u.nextValue(), 5u);
    EXPECT_TRUE(u.done());
}

TEST(ObjectPacker, ZeroTakesOneBucket)
{
    ObjectPacker p;
    p.packValue(0); // just the marker
    EXPECT_EQ(p.buckets().size(), 1u);
    ObjectUnpacker u(p.buckets(), p.endMap());
    EXPECT_EQ(u.nextValue(), 0u);
}

TEST(ObjectPacker, PaperExampleCompression)
{
    // Packing drops leading zeros: four small references that would
    // take 32 B raw fit in a few buckets (Figure 5's point).
    ObjectPacker p;
    for (std::uint64_t v : {0x08u, 0x10u, 0x18u, 0x28u}) {
        p.packValue(v);
    }
    EXPECT_EQ(p.buckets().size(), 4u);   // 1 byte each
    EXPECT_EQ(p.endMap().size(), 1u);    // 4 end bits in one byte
    EXPECT_LT(p.packedBytes(), 4u * 8u); // far below 8 B/ref
}

TEST(ObjectPacker, MultiBucketValue)
{
    ObjectPacker p;
    p.packValue(0x1234567890ULL); // 37 significant bits + marker -> 5 B
    EXPECT_EQ(p.buckets().size(), 5u);
    ObjectUnpacker u(p.buckets(), p.endMap());
    EXPECT_EQ(u.nextValue(), 0x1234567890ULL);
}

TEST(ObjectPacker, MaxValueRoundTrips)
{
    ObjectPacker p;
    p.packValue(~0ULL);
    ObjectUnpacker u(p.buckets(), p.endMap());
    EXPECT_EQ(u.nextValue(), ~0ULL);
}

TEST(ObjectPacker, ValueSequenceProperty)
{
    // Property: any sequence of values round-trips in order.
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        ObjectPacker p;
        std::vector<std::uint64_t> vals;
        const int n = 1 + static_cast<int>(rng.below(200));
        for (int i = 0; i < n; ++i) {
            // Mix magnitudes: mostly small (realistic rel addrs), some
            // huge.
            std::uint64_t v = rng.chance(0.1)
                                  ? rng.next()
                                  : rng.below(1 << 20);
            vals.push_back(v);
            p.packValue(v);
        }
        ObjectUnpacker u(p.buckets(), p.endMap());
        for (std::uint64_t v : vals) {
            ASSERT_EQ(u.nextValue(), v);
        }
        EXPECT_TRUE(u.done());
    }
}

TEST(ObjectPacker, BitStringPreservesLeadingZeros)
{
    // Bitmaps start with header zeros; they must survive packing.
    const std::vector<bool> bm = {false, false, false, true, false, true};
    const auto words = toWords(bm);
    ObjectPacker p;
    p.packBits(SlotBitmap(words.data(), bm.size()));
    ObjectUnpacker u(p.buckets(), p.endMap());
    std::vector<std::uint64_t> buf;
    EXPECT_EQ(toBools(u.nextBits(buf)), bm);
}

TEST(ObjectPacker, BitStringSequenceProperty)
{
    Rng rng(123);
    std::vector<std::uint64_t> buf;
    for (int trial = 0; trial < 50; ++trial) {
        ObjectPacker p;
        std::vector<std::vector<bool>> all;
        const int n = 1 + static_cast<int>(rng.below(60));
        for (int i = 0; i < n; ++i) {
            std::vector<bool> bits;
            const int len = static_cast<int>(rng.below(70));
            for (int b = 0; b < len; ++b) {
                bits.push_back(rng.chance(0.3));
            }
            all.push_back(bits);
            const auto words = toWords(bits);
            p.packBits(SlotBitmap(words.data(), bits.size()));
        }
        ObjectUnpacker u(p.buckets(), p.endMap());
        for (const auto &bits : all) {
            ASSERT_EQ(toBools(u.nextBits(buf)), bits);
        }
        EXPECT_TRUE(u.done());
    }
}

/**
 * Bit-by-bit reference packer, written straight from Figure 5: the
 * entry's bits behind a marker '1', MSB first, left-padded with zeros
 * to whole buckets, one end-map bit per bucket.
 */
struct ReferencePacker
{
    std::vector<std::uint8_t> buckets;
    std::vector<std::uint8_t> endMap;

    void
    packBits(const std::vector<bool> &bits)
    {
        std::vector<bool> run{true};
        run.insert(run.end(), bits.begin(), bits.end());
        const std::size_t bytes = (run.size() + 7) / 8;
        const std::size_t pad = bytes * 8 - run.size();
        for (std::size_t b = 0; b < bytes; ++b) {
            unsigned v = 0;
            for (unsigned i = 0; i < 8; ++i) {
                const std::size_t g = b * 8 + i;
                v = (v << 1) | (g >= pad && run[g - pad] ? 1u : 0u);
            }
            buckets.push_back(static_cast<std::uint8_t>(v));
            if ((buckets.size() - 1) / 8 >= endMap.size()) {
                endMap.push_back(0);
            }
        }
        const std::size_t last = buckets.size() - 1;
        endMap[last / 8] |= static_cast<std::uint8_t>(1u << (last % 8));
    }

    void
    packValue(std::uint64_t v)
    {
        std::vector<bool> bits;
        for (int i = 63; i >= 0; --i) {
            const bool bit = (v >> i) & 1;
            if (bit || !bits.empty()) {
                bits.push_back(bit);
            }
        }
        packBits(bits);
    }
};

TEST(ObjectPacker, ValuesMatchReferencePackerAtEveryWidth)
{
    Rng rng(2027);
    ObjectPacker p;
    ReferencePacker ref;
    std::vector<std::uint64_t> vals;
    for (unsigned w = 0; w <= 64; ++w) {
        if (w == 0) {
            vals.push_back(0);
            continue;
        }
        const std::uint64_t top = std::uint64_t{1} << (w - 1);
        const std::uint64_t ones = top | (top - 1); // 2^w - 1
        vals.push_back(top);
        vals.push_back(ones);
        vals.push_back(top | (rng.next() & (top - 1)));
    }
    for (std::uint64_t v : vals) {
        ObjectPacker one;
        ReferencePacker one_ref;
        one.packValue(v);
        one_ref.packValue(v);
        ASSERT_EQ(one.buckets(), one_ref.buckets) << std::hex << v;
        ASSERT_EQ(one.endMap(), one_ref.endMap) << std::hex << v;
        p.packValue(v);
        ref.packValue(v);
    }
    // The same values back to back: end-map bytes shared across entries.
    EXPECT_EQ(p.buckets(), ref.buckets);
    EXPECT_EQ(p.endMap(), ref.endMap);
    EXPECT_EQ(p.entries(), vals.size());
    ObjectUnpacker u(p.buckets(), p.endMap());
    for (std::uint64_t v : vals) {
        ASSERT_EQ(u.nextValue(), v);
    }
    EXPECT_TRUE(u.done());
}

TEST(ObjectPacker, BitStringsMatchReferencePacker)
{
    Rng rng(2027);
    ObjectPacker p;
    ReferencePacker ref;
    std::vector<std::vector<bool>> all;
    for (int len = 0; len <= 300; ++len) {
        std::vector<bool> bits;
        for (int b = 0; b < len; ++b) {
            bits.push_back(rng.chance(0.5));
        }
        const auto words = toWords(bits);
        p.packBits(SlotBitmap(words.data(), bits.size()));
        ref.packBits(bits);
        all.push_back(std::move(bits));
    }
    // Array-style runs: header zeros then a block of reference slots.
    for (std::size_t len : {3u, 4u, 12u, 64u, 65u, 200u}) {
        std::vector<bool> bits(len, false);
        for (std::size_t i = 4; i < len; ++i) {
            bits[i] = true;
        }
        p.packBits(SlotBitmap::run(len, 4, std::max<std::size_t>(4, len)));
        ref.packBits(bits);
        all.push_back(std::move(bits));
    }
    EXPECT_EQ(p.buckets(), ref.buckets);
    EXPECT_EQ(p.endMap(), ref.endMap);

    ObjectUnpacker u(p.buckets(), p.endMap());
    std::vector<std::uint64_t> buf;
    for (const auto &bits : all) {
        ASSERT_EQ(toBools(u.nextBits(buf)), bits) << bits.size();
    }
    EXPECT_TRUE(u.done());
}

/** Status and offset of the DecodeError @p fn throws. */
template <typename Fn>
std::pair<DecodeStatus, std::size_t>
decodeFailure(Fn fn)
{
    try {
        fn();
    } catch (const DecodeError &e) {
        return {e.status(), e.offset()};
    }
    ADD_FAILURE() << "expected a DecodeError";
    return {DecodeStatus::Malformed, ~std::size_t{0}};
}

using Failure = std::pair<DecodeStatus, std::size_t>;

TEST(ObjectUnpacker, MissingMarkerIsMalformedAtRunStart)
{
    // Entry 0 = 0x05; entry 1 spans buckets 1-2, both zero.
    const std::vector<std::uint8_t> buckets = {0x05, 0x00, 0x00};
    const std::vector<std::uint8_t> end_map = {0x05};
    ObjectUnpacker u(buckets, end_map);
    EXPECT_EQ(u.nextValue(), 1u);
    EXPECT_EQ(decodeFailure([&] { u.nextValue(); }),
              Failure(DecodeStatus::Malformed, 1));
    ObjectUnpacker bits(buckets, end_map);
    std::vector<std::uint64_t> buf;
    bits.nextBits(buf);
    EXPECT_EQ(decodeFailure([&] { bits.nextBits(buf); }),
              Failure(DecodeStatus::Malformed, 1));
}

TEST(ObjectUnpacker, ValueWiderThan64BitsIsMalformed)
{
    // Entry 0 = 0; entry 1: nine buckets whose first has the marker at
    // bit 1, leaving 65 payload bits.
    std::vector<std::uint8_t> buckets = {0x01, 0x03};
    buckets.insert(buckets.end(), 8, 0xff);
    const std::vector<std::uint8_t> end_map = {0x01, 0x02};
    ObjectUnpacker u(buckets, end_map);
    EXPECT_EQ(u.nextValue(), 0u);
    EXPECT_EQ(decodeFailure([&] { u.nextValue(); }),
              Failure(DecodeStatus::Malformed, 1));
    // As a bit string the same run is fine: 65 bits, all ones.
    ObjectUnpacker bits(buckets, end_map);
    std::vector<std::uint64_t> buf;
    bits.nextBits(buf);
    EXPECT_EQ(toBools(bits.nextBits(buf)), std::vector<bool>(65, true));
}

TEST(ObjectUnpacker, UnterminatedRunIsTruncatedAtBucketEnd)
{
    const std::vector<std::uint8_t> buckets = {0x01, 0x05, 0x07};
    const std::vector<std::uint8_t> end_map = {0x01};
    ObjectUnpacker u(buckets, end_map);
    EXPECT_EQ(u.nextValue(), 0u);
    EXPECT_EQ(decodeFailure([&] { u.nextValue(); }),
              Failure(DecodeStatus::Truncated, 3));
}

TEST(ObjectUnpacker, ShortEndMapIsTruncatedAtFirstUncoveredBucket)
{
    // Nine buckets, one end-map byte: bucket 8 has no end bit to read.
    const std::vector<std::uint8_t> buckets(9, 0x01);
    const std::vector<std::uint8_t> end_map = {0x00};
    ObjectUnpacker u(buckets, end_map);
    EXPECT_EQ(decodeFailure([&] { u.nextValue(); }),
              Failure(DecodeStatus::Truncated, 8));
}

TEST(ObjectPacker, EndMapSizeIsBucketCountOverEight)
{
    ObjectPacker p;
    for (int i = 0; i < 100; ++i) {
        p.packValue(static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(p.endMap().size(), (p.buckets().size() + 7) / 8);
}

TEST(RelRefEncoding, NullAndValuesDistinct)
{
    EXPECT_EQ(kNullRefToken, 0u);
    EXPECT_EQ(encodeRelRef(0), 1u);
    EXPECT_EQ(decodeRelRef(encodeRelRef(0)), 0u);
    EXPECT_EQ(decodeRelRef(encodeRelRef(0x1238)), 0x1238u);
}

TEST(CerealStreamCodec, EncodeDecodeRoundTrip)
{
    CerealStream s;
    s.valueArray = {1, 2, 3, 0xdeadbeef};
    s.refBuckets = {0xaa, 0xbb};
    s.refEndMap = {0x3};
    s.bitmapBuckets = {0x17};
    s.bitmapEndMap = {0x1};
    s.totalGraphBytes = 96;
    s.objectCount = 2;
    s.refEntries = 2;
    s.bitmapBits = 12;
    s.headerStripped = true;

    auto bytes = s.encode();
    CerealStream d = CerealStream::decode(bytes);
    EXPECT_EQ(d.valueArray, s.valueArray);
    EXPECT_EQ(d.refBuckets, s.refBuckets);
    EXPECT_EQ(d.refEndMap, s.refEndMap);
    EXPECT_EQ(d.bitmapBuckets, s.bitmapBuckets);
    EXPECT_EQ(d.bitmapEndMap, s.bitmapEndMap);
    EXPECT_EQ(d.totalGraphBytes, 96u);
    EXPECT_EQ(d.objectCount, 2u);
    EXPECT_EQ(d.refEntries, 2u);
    EXPECT_EQ(d.bitmapBits, 12u);
    EXPECT_TRUE(d.headerStripped);
}

class CerealRoundTrip : public ::testing::Test
{
  protected:
    CerealRoundTrip() : micro(reg), src(reg), dst(reg, 0x9'0000'0000ULL)
    {
        ser.registerAll(reg);
    }

    void
    check(Addr root)
    {
        auto stream = ser.serialize(src, root);
        Addr nr = ser.deserialize(stream, dst);
        std::string why;
        EXPECT_TRUE(graphEquals(src, root, dst, nr, &why)) << why;
    }

    KlassRegistry reg;
    MicroWorkloads micro;
    Heap src, dst;
    CerealSerializer ser;
};

TEST_F(CerealRoundTrip, AllMicrobenchShapes)
{
    for (auto mb : workloads::allMicroBenches()) {
        Heap s(reg, 0x40'0000'0000ULL +
                        0x2'0000'0000ULL * static_cast<Addr>(mb));
        Heap d(reg, 0x60'0000'0000ULL +
                        0x2'0000'0000ULL * static_cast<Addr>(mb));
        Addr root = micro.build(s, mb, 2048, 7);
        auto stream = ser.serialize(s, root);
        Addr nr = ser.deserialize(stream, d);
        std::string why;
        EXPECT_TRUE(graphEquals(s, root, d, nr, &why))
            << workloads::microBenchName(mb) << ": " << why;
    }
}

TEST_F(CerealRoundTrip, IdentityHashPreservedWithoutStrip)
{
    Rng rng(5);
    Addr root = micro.buildList(src, 5, rng);
    auto stream = ser.serialize(src, root);
    Addr nr = ser.deserialize(stream, dst);
    std::string why;
    EXPECT_TRUE(graphEquals(src, root, dst, nr, &why,
                            /*compare_identity_hash=*/true))
        << why;
}

TEST_F(CerealRoundTrip, HeaderStripRegeneratesHashes)
{
    CerealSerializer strip_ser(CerealOptions{/*headerStrip=*/true});
    strip_ser.registerAll(reg);
    Rng rng(5);
    Addr root = micro.buildList(src, 20, rng);
    auto plain = ser.serialize(src, root);
    auto stripped = strip_ser.serialize(src, root);
    EXPECT_LT(stripped.size(), plain.size());
    // Graph structure still round-trips (hashes excluded).
    Addr nr = strip_ser.deserialize(stripped, dst);
    std::string why;
    EXPECT_TRUE(graphEquals(src, root, dst, nr, &why)) << why;
}

TEST_F(CerealRoundTrip, SharedObjectsAndCycles)
{
    KlassId holder = reg.add("H", {{"a", FieldType::Reference},
                                   {"b", FieldType::Reference}});
    ser.registerClass(holder);
    Addr a = src.allocateInstance(holder);
    Addr b = src.allocateInstance(holder);
    ObjectView(src, a).setRef(0, b);
    ObjectView(src, a).setRef(1, b); // shared
    ObjectView(src, b).setRef(0, a); // cycle
    check(a);
}

TEST_F(CerealRoundTrip, RepeatedSerializationsUseCounter)
{
    // The visited counter must distinguish runs without clearing.
    Rng rng(5);
    Addr root = micro.buildList(src, 10, rng);
    for (int i = 0; i < 5; ++i) {
        Heap d(reg, 0x70'0000'0000ULL + 0x1'0000'0000ULL *
                                            static_cast<Addr>(i));
        auto stream = ser.serialize(src, root);
        Addr nr = ser.deserialize(stream, d);
        std::string why;
        ASSERT_TRUE(graphEquals(src, root, d, nr, &why)) << why;
    }
}

TEST_F(CerealRoundTrip, UnitIdWrapDoesNotAliasVisitedMarks)
{
    // Unit ids are 8 bits, so serializer #257 gets #1's id again; a
    // per-serializer counter would also give both first runs counter
    // 1. On a heap #1 already serialized, #257 must still see no
    // object as visited and produce the same stream.
    Rng rng(5);
    Addr root = micro.buildTree(src, 8, 4681, rng);
    std::vector<std::unique_ptr<CerealSerializer>> sers;
    for (int i = 0; i < 257; ++i) {
        sers.push_back(std::make_unique<CerealSerializer>());
        sers.back()->registerAll(reg);
    }
    ASSERT_EQ(sers.front()->unitId(), sers.back()->unitId());
    const CerealStream first = sers.front()->serializeToStream(src, root);
    ASSERT_EQ(first.objectCount, 4681u);
    const CerealStream again = sers.back()->serializeToStream(src, root);
    EXPECT_EQ(again.objectCount, first.objectCount);
    EXPECT_EQ(again.encode(), first.encode());
}

TEST_F(CerealRoundTrip, TotalGraphBytesMatchesWalkerStats)
{
    Rng rng(5);
    Addr root = micro.buildTree(src, 2, 63, rng);
    auto s = ser.serializeToStream(src, root);
    auto gs = GraphWalker(src).stats(root);
    EXPECT_EQ(s.totalGraphBytes, gs.totalBytes);
    EXPECT_EQ(s.objectCount, gs.objectCount);
}

TEST_F(CerealRoundTrip, RefEntriesCountEveryReferenceSlot)
{
    KlassId holder = reg.add("H2", {{"a", FieldType::Reference},
                                    {"b", FieldType::Reference}});
    ser.registerClass(holder);
    Addr a = src.allocateInstance(holder); // two null refs
    auto s = ser.serializeToStream(src, a);
    EXPECT_EQ(s.refEntries, 2u);
    EXPECT_EQ(s.objectCount, 1u);
}

TEST_F(CerealRoundTrip, GraphPackingBeatsBaselineFormat)
{
    // Reference-heavy graphs are where packing pays (Table IV).
    Rng rng(11);
    Addr root = micro.buildGraph(src, 128, 127, rng);
    auto s = ser.serializeToStream(src, root);
    EXPECT_LT(s.serializedBytes(), s.baselineBytes() / 2);
}

TEST_F(CerealRoundTrip, UnregisteredClassIsFatal)
{
    KlassId secret = reg.add("Secret", {{"v", FieldType::Long}});
    Addr o = src.allocateInstance(secret);
    CerealSerializer fresh; // nothing registered
    EXPECT_DEATH(fresh.serialize(src, o), "not registered");
}

TEST_F(CerealRoundTrip, DeserializedObjectsNotedInHeap)
{
    Rng rng(5);
    Addr root = micro.buildList(src, 8, rng);
    auto stream = ser.serialize(src, root);
    EXPECT_EQ(dst.objectCount(), 0u);
    ser.deserialize(stream, dst);
    EXPECT_EQ(dst.objectCount(), 8u);
}

} // namespace
} // namespace cereal
