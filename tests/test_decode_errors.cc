/**
 * @file
 * Negative-path decode tests: the error-handling contract of the six
 * deserializers (see src/serde/decode_error.hh) and, via the shared
 * corpus sweep, the cluster partition-frame codec.
 *
 *  - ByteReader primitives report underflow and malformed varints as
 *    DecodeError, with and without an attached MemSink;
 *  - each decoder maps each class of structural corruption (pinned
 *    against the golden vectors) to the right DecodeStatus;
 *  - the truncation sweep proves that *every* proper prefix of every
 *    golden stream yields a clean error — never a crash, never a
 *    false success;
 *  - the committed regression corpus (tests/corpus) replays through
 *    all seven decoders (six serializers plus the partition frame)
 *    with zero contract violations;
 *  - the Cereal decoder's verdict, status and offset, on every proper
 *    prefix and on seeded byte mutations of three streams matches a
 *    pinned golden file, so a faster codec cannot move a single one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cereal/cereal_serializer.hh"
#include "cluster/frame.hh"
#include "fuzz/corpus.hh"
#include "fuzz/fuzzer.hh"
#include "heap/heap.hh"
#include "heap/object.hh"
#include "serde/bytes.hh"
#include "serde/decode_error.hh"
#include "serde/registry.hh"
#include "sim/rng.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr Addr kTestHeapBase = 0x9'0000'0000ULL;

// ---------------------------------------------------------------------
// ByteReader primitives
// ---------------------------------------------------------------------

DecodeStatus
statusOf(const std::function<void(ByteReader &)> &op, const Bytes &buf,
         MemSink *sink = nullptr)
{
    ByteReader r(buf, sink);
    try {
        op(r);
    } catch (const DecodeError &e) {
        return e.status();
    }
    ADD_FAILURE() << "expected a DecodeError";
    return DecodeStatus::Malformed;
}

TEST(ByteReaderNegative, RawPastEndThrowsTruncated)
{
    const Bytes buf = {1, 2, 3};
    std::uint32_t v;
    EXPECT_EQ(statusOf([&](ByteReader &r) { r.u32(); }, buf),
              DecodeStatus::Truncated);
    EXPECT_EQ(statusOf([&](ByteReader &r) { r.raw(&v, 4); }, buf),
              DecodeStatus::Truncated);
}

TEST(ByteReaderNegative, HugeLengthDoesNotWrapPosArithmetic)
{
    // Regression: `pos_ + n > size` wrapped for n near SIZE_MAX and
    // let the read through; the comparison must run against
    // remaining() instead.
    const Bytes buf = {1, 2, 3, 4};
    // Volatile so the compiler can't see the impossible memcpy bound
    // at compile time (it never reaches memcpy: raw() throws first).
    volatile std::size_t huge = SIZE_MAX - 2;
    EXPECT_EQ(statusOf([&](ByteReader &r) { r.skip(SIZE_MAX); }, buf),
              DecodeStatus::Truncated);
    EXPECT_EQ(statusOf(
                  [&](ByteReader &r) {
                      std::uint8_t dst;
                      r.skip(1); // non-zero pos_ so the sum wraps
                      r.raw(&dst, huge);
                  },
                  buf),
              DecodeStatus::Truncated);
}

TEST(ByteReaderNegative, VarintOverTenBytesThrowsBadVarint)
{
    const Bytes buf(11, 0xff);
    EXPECT_EQ(statusOf([](ByteReader &r) { r.varint(); }, buf),
              DecodeStatus::BadVarint);
}

TEST(ByteReaderNegative, VarintOverflowing64BitsThrowsBadVarint)
{
    // Nine full continuation bytes (63 bits) plus a tenth byte with
    // more than one payload bit.
    Bytes buf(9, 0xff);
    buf.push_back(0x02);
    EXPECT_EQ(statusOf([](ByteReader &r) { r.varint(); }, buf),
              DecodeStatus::BadVarint);
}

TEST(ByteReaderNegative, MaximalValidVarintStillDecodes)
{
    Bytes buf(9, 0xff);
    buf.push_back(0x01);
    ByteReader r(buf);
    EXPECT_EQ(r.varint(), ~std::uint64_t{0});
    EXPECT_TRUE(r.done());
}

TEST(ByteReaderNegative, NonTerminatedVarintThrowsTruncated)
{
    const Bytes buf = {0xff, 0xff};
    EXPECT_EQ(statusOf([](ByteReader &r) { r.varint(); }, buf),
              DecodeStatus::Truncated);
}

TEST(ByteReaderNegative, SameContractWithMemSinkAttached)
{
    // The sink-narrating path must take the bounds checks before it
    // notes any traffic, and the sink must only ever see real reads.
    CountingSink sink;
    const Bytes buf = {1, 2, 3};
    EXPECT_EQ(statusOf([](ByteReader &r) { r.u32(); }, buf, &sink),
              DecodeStatus::Truncated);
    EXPECT_EQ(statusOf([](ByteReader &r) { r.skip(SIZE_MAX); }, buf,
                       &sink),
              DecodeStatus::Truncated);
    const Bytes overlong(11, 0xff);
    EXPECT_EQ(statusOf([](ByteReader &r) { r.varint(); }, overlong,
                       &sink),
              DecodeStatus::BadVarint);
    const Bytes unterminated = {0xff, 0xff};
    EXPECT_EQ(statusOf([](ByteReader &r) { r.varint(); }, unterminated,
                       &sink),
              DecodeStatus::Truncated);
    // Only the successful byte reads were narrated: none from the
    // failed u32/skip, 10 from the overlong varint's consumed bytes,
    // 2 from the unterminated one.
    EXPECT_EQ(sink.loadBytes, 12u);
}

// ---------------------------------------------------------------------
// Structural corruption -> DecodeStatus, per format
// ---------------------------------------------------------------------

class DecodeErrors : public ::testing::Test
{
  protected:
    Bytes
    golden(const std::string &format)
    {
        for (const auto &e : fuzzer.corpus()) {
            if (e.format == format) {
                return e.bytes;
            }
        }
        ADD_FAILURE() << "no corpus entry for " << format;
        return {};
    }

    /** Byte offset of @p pattern inside @p hay (must exist). */
    std::size_t
    offsetOf(const Bytes &hay, const Bytes &pattern)
    {
        auto it = std::search(hay.begin(), hay.end(), pattern.begin(),
                              pattern.end());
        EXPECT_NE(it, hay.end());
        return static_cast<std::size_t>(it - hay.begin());
    }

    /** Decode @p bytes with @p format; expect failure with @p want. */
    void
    expectStatus(const std::string &format, const Bytes &bytes,
                 DecodeStatus want)
    {
        Heap dst(fuzzer.registry(), kTestHeapBase);
        auto res = fuzzer.serializer(format).tryDeserialize(bytes, dst);
        ASSERT_FALSE(res.ok()) << format << ": decode unexpectedly ok";
        EXPECT_EQ(res.error().status(), want)
            << format << ": " << res.error().what();
    }

    DecoderFuzzer fuzzer;
};

TEST_F(DecodeErrors, EachFormatRejectsForeignAndEmptyStreams)
{
    const std::vector<std::string> formats = {
        "java", "kryo", "skyway", "cereal", "plaincode", "hps"};
    for (const auto &decoder : formats) {
        Heap dst(fuzzer.registry(), kTestHeapBase);
        EXPECT_FALSE(
            fuzzer.serializer(decoder).tryDeserialize({}, dst).ok())
            << decoder << " accepted an empty stream";
        for (const auto &producer : formats) {
            if (producer == decoder) {
                continue;
            }
            expectStatus(decoder, golden(producer),
                         DecodeStatus::BadMagic);
        }
    }
}

TEST_F(DecodeErrors, JavaHugeArrayCountIsBadLength)
{
    Bytes b = golden("java");
    // The int[3] length word, immediately followed by elements 1,2,3.
    std::size_t at = offsetOf(
        b, {3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0});
    b[at] = b[at + 1] = b[at + 2] = b[at + 3] = 0xff;
    expectStatus("java", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, JavaUnknownRecordTagIsBadTag)
{
    Bytes b = golden("java");
    // Last record's TC_OBJECT (0x73), followed by TC_REFERENCE (0x71).
    std::size_t at = offsetOf(b, {0x73, 0x71});
    b[at] = 0x7a;
    expectStatus("java", b, DecodeStatus::BadTag);
}

TEST_F(DecodeErrors, JavaClassdescHandleOutOfRangeIsBadHandle)
{
    Bytes b = golden("java");
    std::size_t at = offsetOf(b, {0x73, 0x71}) + 2;
    b[at] = 0x63; // classdesc back-reference handle 0x63: never issued
    expectStatus("java", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, JavaObjectHandleOutOfRangeIsBadHandle)
{
    Bytes b = golden("java");
    // The root Pair's fields: a = handle 1 (n1), b = handle 2 (the
    // int[3]), tag = 0x7f.
    std::size_t at =
        offsetOf(b, {1, 0, 0, 0, 2, 0, 0, 0, 0x7f, 0, 0, 0});
    b[at] = 0x63; // object handle 0x63: the stream carries four objects
    expectStatus("java", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, JavaUnknownClassNameIsBadClass)
{
    Bytes b = golden("java");
    std::size_t at = offsetOf(b, {'P', 'a', 'i', 'r'});
    b[at] = 'Q';
    expectStatus("java", b, DecodeStatus::BadClass);
}

TEST_F(DecodeErrors, KryoUnregisteredClassIdIsBadClass)
{
    Bytes b = golden("kryo");
    b[4] = 0xff; // first record's class id u32
    b[7] = 0x7f;
    expectStatus("kryo", b, DecodeStatus::BadClass);
}

TEST_F(DecodeErrors, KryoOverlongVarintIsBadVarint)
{
    Bytes b = golden("kryo");
    // Keep magic + class id + null-check byte, then feed an 11-byte
    // all-continuation run where a field varint is expected.
    b.resize(9);
    b.insert(b.end(), 11, 0xff);
    expectStatus("kryo", b, DecodeStatus::BadVarint);
}

TEST_F(DecodeErrors, KryoHugeArrayLengthIsBadLength)
{
    Bytes b = golden("kryo");
    // int[] record: class id 2, then the length varint (3).
    std::size_t at = offsetOf(b, {2, 0, 0, 0, 3}) + 4;
    b[at] = 0x7f; // 127 elements * 4 B each cannot fit in what's left
    expectStatus("kryo", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, KryoRefTokenOutOfRangeIsBadHandle)
{
    Bytes b = golden("kryo");
    // Root record: u32 class id at 4, null-check byte at 8, then field
    // `a` as a varint token (handle + 1).
    ASSERT_EQ(b[8], 1);
    ASSERT_EQ(b[9], 2); // token 2 = handle 1 (n1)
    b[9] = 0x7f;        // handle 126: the stream carries four objects
    expectStatus("kryo", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, RefArrayElementOutOfRangeIsBadHandle)
{
    // The golden graph has no reference array, so build one: a root
    // Object[2] holding two Nodes. Each handle-numbered decoder gets
    // its stream with element 1's handle out of range.
    KlassRegistry reg;
    const KlassId node = reg.add(
        "Node", {{"value", FieldType::Long}, {"next", FieldType::Reference}});
    Heap src(reg);
    const Addr n1 = src.allocateInstance(node);
    const Addr n2 = src.allocateInstance(node);
    const Addr arr = src.allocateArray(FieldType::Reference, 2);
    ObjectView(src, arr).setRefElem(0, n1);
    ObjectView(src, arr).setRefElem(1, n2);

    // Element 1's handle or token. java: u32 length 2, then u32
    // handles 1 and 2. kryo: magic, u32 class id, length varint 2,
    // then varint tokens 2 and 3 (handle + 1). plaincode: magic, class
    // id varint, length varint 2, then tokens 2 and 3.
    for (const std::string format : {"java", "kryo", "plaincode"}) {
        auto ser = serde::makeSerializer(format, &reg);
        Bytes b = ser->serialize(src, arr);
        const bool java = format == "java";
        const std::size_t at =
            java ? offsetOf(b, {2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}) + 8
                 : format == "kryo" ? 10 : 7;
        ASSERT_EQ(b[at], java ? 2 : 3) << format;
        {
            Heap dst(reg, kTestHeapBase);
            ASSERT_TRUE(ser->tryDeserialize(b, dst).ok()) << format;
        }
        b[at] = 0x63; // the stream carries three objects
        Heap dst(reg, kTestHeapBase);
        auto res = ser->tryDeserialize(b, dst);
        ASSERT_FALSE(res.ok()) << format << ": decode unexpectedly ok";
        EXPECT_EQ(res.error().status(), DecodeStatus::BadHandle)
            << format << ": " << res.error().what();
    }
}

TEST_F(DecodeErrors, SkywayHugeDataSectionIsBadLength)
{
    Bytes b = golden("skyway");
    std::fill(b.begin() + 4, b.begin() + 12, 0xff);
    expectStatus("skyway", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, SkywayUnknownTypeIdIsBadClass)
{
    Bytes b = golden("skyway");
    b[20] = 0xe7; // first object's type-id slot -> 999
    b[21] = 0x03;
    expectStatus("skyway", b, DecodeStatus::BadClass);
}

TEST_F(DecodeErrors, SkywayMidObjectReferenceIsBadHandle)
{
    Bytes b = golden("skyway");
    ASSERT_EQ(b[36], 0x61); // root's first ref slot: tagged offset 0x30
    b[36] = 0x0d;           // tagged offset 6: inside an object
    expectStatus("skyway", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, SkywayUntaggedReferenceIsMalformed)
{
    Bytes b = golden("skyway");
    ASSERT_EQ(b[36], 0x61);
    b[36] = 0x60; // non-null but tag bit clear
    expectStatus("skyway", b, DecodeStatus::Malformed);
}

TEST_F(DecodeErrors, CerealClassIdAbove32BitsIsBadClass)
{
    Bytes b = golden("cereal");
    // First object's class-id value entry (second value-array word).
    // 2^32 + 1 would alias to the valid class id 1 under a truncating
    // u32 cast; the decoder must validate the full 64-bit value.
    const std::size_t at = 69 + 8;
    const std::uint64_t evil = (std::uint64_t{1} << 32) | 1;
    std::memcpy(b.data() + at, &evil, 8);
    expectStatus("cereal", b, DecodeStatus::BadClass);
}

TEST_F(DecodeErrors, CerealSectionSizeOverflowIsBadLength)
{
    Bytes b = golden("cereal");
    std::fill(b.begin() + 13, b.begin() + 21, 0xff); // value-array size
    expectStatus("cereal", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, CerealOutOfGraphRefTokenIsBadHandle)
{
    Bytes b = golden("cereal");
    std::fill(b.begin() + 69 + 18 * 8, b.begin() + 69 + 18 * 8 + 4,
              0xff); // packed reference buckets
    expectStatus("cereal", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, CerealTruncatedStreamIsTruncated)
{
    Bytes b = golden("cereal");
    b.resize(40);
    expectStatus("cereal", b, DecodeStatus::Truncated);
}

// The plaincode golden stream (45 B) is magic, then width-classed BFS
// records: root Pair at 4 (varint klass id, varint ref tokens, 4 B int
// tag), Node n1 at 11 (klass, 8 B long value, varint ref), int[3] at
// 21 (klass, varint length, packed 4 B elements), Node n2 at 35.
// Reference tokens are 0 for null, else BFS handle + 1.

TEST_F(DecodeErrors, PlaincodeUnknownKlassIdIsBadClass)
{
    Bytes b = golden("plaincode");
    // Root record's klass id varint: 0xff continues into the next
    // byte (token 2, top bit clear), decoding to id 383 — far past
    // the three registered klasses.
    b[4] = 0xff;
    expectStatus("plaincode", b, DecodeStatus::BadClass);
}

TEST_F(DecodeErrors, PlaincodeHugeArrayLengthIsBadLength)
{
    Bytes b = golden("plaincode");
    // The int[3] record's length varint: 127 elements of 4 B can
    // never fit in the remaining stream, and the allocation cap must
    // trip before any memory is reserved.
    ASSERT_EQ(b[22], 3);
    b[22] = 0x7f;
    expectStatus("plaincode", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, PlaincodeOutOfGraphRefTokenIsBadHandle)
{
    Bytes b = golden("plaincode");
    ASSERT_EQ(b[5], 2); // root's field `a`: token 2 = BFS handle 1
    b[5] = 0x7f;        // handle 126: the stream only carries four
    expectStatus("plaincode", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, PlaincodeTruncatedMidRecordIsTruncated)
{
    Bytes b = golden("plaincode");
    b.resize(15); // cuts Node n1 inside its 8 B value slot
    expectStatus("plaincode", b, DecodeStatus::Truncated);
}

// The hps golden stream (147 B) is magic, u32 segment count, u64
// region size, then the segment region at byte 16: root Pair segment
// at 16 (u32 size prefix, u32 type id, one u64 per field), Node at
// 48, int[3] at 72 (prefix, type id, u64 count, packed elements),
// Node at 100; the name table follows at 124. References encode the
// target's region-relative prefix offset as (rel << 1) | 1.

TEST_F(DecodeErrors, HpsUnknownTypeIdIsBadClass)
{
    Bytes b = golden("hps");
    b[20] = 0xff; // root segment's type id: 0 -> 255, table has 3
    expectStatus("hps", b, DecodeStatus::BadClass);
}

TEST_F(DecodeErrors, HpsHugeSegmentSizeIsBadLength)
{
    Bytes b = golden("hps");
    std::fill(b.begin() + 16, b.begin() + 20, 0xff); // root's prefix
    expectStatus("hps", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, HpsHugeArrayCountIsBadLength)
{
    Bytes b = golden("hps");
    // The int[3] segment's u64 count at 80: the count must agree with
    // the segment size, which cannot hold more than three elements.
    std::fill(b.begin() + 80, b.begin() + 88, 0xff);
    expectStatus("hps", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, HpsMidSegmentReferenceIsBadHandle)
{
    Bytes b = golden("hps");
    ASSERT_EQ(b[24], 0x41); // root's field `a`: tagged rel offset 32
    b[24] = 0x11;           // tagged rel offset 8: inside a segment
    expectStatus("hps", b, DecodeStatus::BadHandle);
}

TEST_F(DecodeErrors, HpsUntaggedReferenceIsMalformed)
{
    Bytes b = golden("hps");
    ASSERT_EQ(b[24], 0x41);
    b[24] = 0x40; // non-null but tag bit clear
    expectStatus("hps", b, DecodeStatus::Malformed);
}

TEST_F(DecodeErrors, HpsSegmentCountMismatchIsMalformed)
{
    Bytes b = golden("hps");
    ASSERT_EQ(b[4], 4); // header claims four segments
    b[4] = 5;           // region only carries four
    expectStatus("hps", b, DecodeStatus::Malformed);
}

TEST_F(DecodeErrors, HpsHugeDataRegionIsBadLength)
{
    Bytes b = golden("hps");
    std::fill(b.begin() + 8, b.begin() + 16, 0xff); // u64 region size
    expectStatus("hps", b, DecodeStatus::BadLength);
}

TEST_F(DecodeErrors, HpsInstanceSizeMismatchIsMalformed)
{
    Bytes b = golden("hps");
    ASSERT_EQ(b[16], 0x1c); // root Pair: 4 type id + 3 fields * 8
    b[16] = 0x1b;           // one byte short of the schema's size
    expectStatus("hps", b, DecodeStatus::Malformed);
}

// ---------------------------------------------------------------------
// Truncation sweep
// ---------------------------------------------------------------------

TEST(TruncationSweep, EveryProperPrefixFailsCleanly)
{
    DecoderFuzzer fuzzer;
    for (const auto &entry : fuzzer.corpus()) {
        if (entry.format == "cluster") {
            // The partition-frame codec has no heap; sweep it through
            // its own non-throwing decoder.
            for (std::size_t n = 0; n < entry.bytes.size(); ++n) {
                Bytes prefix(entry.bytes.begin(),
                             entry.bytes.begin() +
                                 static_cast<std::ptrdiff_t>(n));
                EXPECT_FALSE(tryDecodeFrame(prefix).ok())
                    << entry.format << ": prefix of " << n << "/"
                    << entry.bytes.size()
                    << " bytes decoded successfully";
            }
            EXPECT_TRUE(tryDecodeFrame(entry.bytes).ok())
                << entry.format;
            continue;
        }
        auto &ser = fuzzer.serializer(entry.format);
        for (std::size_t n = 0; n < entry.bytes.size(); ++n) {
            Bytes prefix(entry.bytes.begin(),
                         entry.bytes.begin() +
                             static_cast<std::ptrdiff_t>(n));
            Heap dst(fuzzer.registry(), kTestHeapBase);
            auto res = ser.tryDeserialize(prefix, dst);
            EXPECT_FALSE(res.ok())
                << entry.format << ": prefix of " << n << "/"
                << entry.bytes.size() << " bytes decoded successfully";
        }
        // Sanity: the whole stream still decodes.
        Heap dst(fuzzer.registry(), kTestHeapBase);
        EXPECT_TRUE(ser.tryDeserialize(entry.bytes, dst).ok())
            << entry.format;
    }
}

// ---------------------------------------------------------------------
// Committed corpus regression replay
// ---------------------------------------------------------------------

TEST(FuzzCorpus, CommittedCorpusReplaysWithoutViolations)
{
    DecoderFuzzer fuzzer;
    auto extra = loadCorpusDir(CEREAL_CORPUS_DIR);
    EXPECT_GE(extra.size(), 24u)
        << "tests/corpus is missing committed regression entries";
    fuzzer.addCorpus(std::move(extra));

    auto stats = fuzzer.replayCorpus();
    for (const auto &f : stats.findings) {
        ADD_FAILURE() << f.kind << " on " << f.format << " decoder, "
                      << "corpus entry " << f.seedName << ": "
                      << f.detail;
    }
    // The seven golden seeds (six serializers + the partition frame)
    // decode with their own decoder (and any corpus entry a fix
    // turned valid again); everything else errors.
    EXPECT_GE(stats.decodeOk, 7u);
    EXPECT_GT(stats.decodeError, 0u);
    EXPECT_EQ(stats.roundTrips, stats.decodeOk);
    // The corpus pins a spread of error classes, not one.
    EXPECT_GE(stats.byStatus.size(), 5u);
}

// ---------------------------------------------------------------------
// Cereal decoder verdicts, pinned
// ---------------------------------------------------------------------

/** "ok", or the decode error's status and offset. */
std::string
cerealVerdict(CerealSerializer &ser, KlassRegistry &reg,
              const Bytes &bytes)
{
    Heap dst(reg, kTestHeapBase);
    const auto res = ser.tryDeserialize(bytes, dst);
    if (res.ok()) {
        return "ok";
    }
    return strfmt("%s %zu", decodeStatusName(res.error().status()),
                  res.error().offset());
}

/**
 * Verdicts on @p bytes, one line each: every proper prefix (runs of
 * equal verdicts folded into one "prefix <from>-<to>" line), then
 * 2,000 seeded mutations that each flip one to three bytes.
 */
void
writeVerdicts(std::ostream &out, const std::string &name,
              KlassRegistry &reg, CerealSerializer &ser,
              const Bytes &bytes)
{
    std::size_t from = 0;
    std::string run;
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        const std::string v =
            n < bytes.size()
                ? cerealVerdict(ser, reg,
                                Bytes(bytes.begin(),
                                      bytes.begin() +
                                          static_cast<std::ptrdiff_t>(n)))
                : std::string();
        if (n > 0 && v != run) {
            out << name << " prefix " << from << "-" << n - 1 << " " << run
                << "\n";
            from = n;
        }
        run = v;
    }
    Rng rng(0xce4ea1);
    for (int i = 0; i < 2000; ++i) {
        Bytes m = bytes;
        const auto flips = rng.range(1, 3);
        for (std::uint64_t f = 0; f < flips; ++f) {
            m[rng.below(m.size())] ^=
                static_cast<std::uint8_t>(rng.range(1, 255));
        }
        out << name << " mutation " << i << " "
            << cerealVerdict(ser, reg, m) << "\n";
    }
}

/** TreeWide with 73 nodes (root, 8 children, 64 leaves). */
Addr
buildSmallTreeWide(KlassRegistry &reg, Heap &heap)
{
    workloads::MicroWorkloads micro(reg);
    return micro.build(heap, workloads::MicroBench::TreeWide,
                       19'173'960 / 73, 42);
}

/**
 * An Object[] of primitive arrays of every element width, a reference
 * array with a null, a shared element and a nested array, and a node.
 */
Addr
buildArrayHeavy(KlassRegistry &reg, Heap &heap)
{
    const KlassId node = reg.add("Node", {{"value", FieldType::Long},
                                          {"next", FieldType::Reference}});
    const Addr n = heap.allocateInstance(node);
    ObjectView(heap, n).setLong(0, 0x0123456789abcdefLL);
    auto prim = [&](FieldType t, std::uint64_t len) {
        const Addr a = heap.allocateArray(t, len);
        ObjectView v(heap, a);
        for (std::uint64_t i = 0; i < len; ++i) {
            v.setElem(i, 0x9e3779b97f4a7c15ULL * (i + 1));
        }
        return a;
    };
    const Addr bytes = prim(FieldType::Byte, 13);
    const Addr chars = prim(FieldType::Char, 5);
    const Addr ints = prim(FieldType::Int, 3);
    const Addr longs = prim(FieldType::Long, 4);
    const Addr doubles = prim(FieldType::Double, 2);
    const Addr empty = prim(FieldType::Short, 0);
    const Addr inner = heap.allocateArray(FieldType::Reference, 1);
    ObjectView(heap, inner).setRefElem(0, n);
    const Addr refs = heap.allocateArray(FieldType::Reference, 4);
    ObjectView rv(heap, refs);
    rv.setRefElem(0, n);
    rv.setRefElem(2, inner);
    rv.setRefElem(3, ints);
    const Addr root = heap.allocateArray(FieldType::Reference, 9);
    ObjectView root_v(heap, root);
    std::uint64_t i = 0;
    for (Addr a : {bytes, chars, ints, longs, doubles, empty, refs, n}) {
        root_v.setRefElem(i++, a);
    }
    return root;
}

TEST(CerealVerdicts, MatchTheGoldenFile)
{
    struct Shape
    {
        const char *name;
        Addr (*build)(KlassRegistry &, Heap &);
        bool headerStrip;
    };
    const Shape shapes[] = {{"tree-wide", buildSmallTreeWide, false},
                            {"arrays", buildArrayHeavy, false},
                            {"stripped", buildCorpusGraph, true}};
    std::ostringstream got;
    for (const auto &shape : shapes) {
        KlassRegistry reg;
        Heap src(reg, 0x1'0000'0000ULL);
        const Addr root = shape.build(reg, src);
        CerealSerializer ser(CerealOptions{shape.headerStrip});
        ser.registerAll(reg);
        const Bytes bytes = ser.serialize(src, root);
        ASSERT_EQ(cerealVerdict(ser, reg, bytes), "ok") << shape.name;
        writeVerdicts(got, shape.name, reg, ser, bytes);
    }

    const std::string path =
        std::string(CEREAL_GOLDEN_DIR) + "/cereal_verdicts.txt";
    if (std::getenv("CEREAL_UPDATE_GOLDEN")) {
        std::ofstream(path, std::ios::binary) << got.str();
        GTEST_SKIP() << "rewrote " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing " << path;
    std::stringstream want;
    want << in.rdbuf();
    // Line by line first, so a mismatch names the first verdict moved.
    std::istringstream a(got.str()), b(want.str());
    std::string la, lb;
    for (int line = 1; std::getline(b, lb); ++line) {
        ASSERT_TRUE(std::getline(a, la)) << "verdicts end at line " << line;
        ASSERT_EQ(la, lb) << "line " << line;
    }
    EXPECT_EQ(got.str(), want.str());
}

} // namespace
} // namespace cereal
