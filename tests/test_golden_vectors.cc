/**
 * @file
 * Golden-vector tests: each serializer's byte stream for a small fixed
 * object graph is pinned exactly. Any change to a wire format —
 * intentional or not — fails here first, with the actual bytes printed
 * so the vector can be regenerated deliberately.
 *
 * The graph covers the format-relevant features in minimal form: two
 * instance klasses, a long/int field mix, a reference cycle, a shared
 * object, and a primitive array.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "heap/object.hh"
#include "heap/walker.hh"
#include "serde/registry.hh"

namespace cereal {
namespace {

/**
 * The pinned graph. Registration order and every field value are part
 * of the contract: changing any of them invalidates the vectors.
 */
Addr
buildGoldenGraph(KlassRegistry &reg, Heap &heap)
{
    KlassId node = reg.add("Node", {{"value", FieldType::Long},
                                    {"next", FieldType::Reference}});
    KlassId pair = reg.add("Pair", {{"a", FieldType::Reference},
                                    {"b", FieldType::Reference},
                                    {"tag", FieldType::Int}});
    reg.arrayKlass(FieldType::Int);

    Addr n1 = heap.allocateInstance(node);
    Addr n2 = heap.allocateInstance(node);
    ObjectView v1(heap, n1), v2(heap, n2);
    v1.setLong(0, 0x1122334455667788LL);
    v1.setRef(1, n2);
    v2.setLong(0, -1);
    v2.setRef(1, n1); // cycle

    Addr arr = heap.allocateArray(FieldType::Int, 3);
    ObjectView av(heap, arr);
    av.setElem(0, 1);
    av.setElem(1, 2);
    av.setElem(2, 3);

    Addr root = heap.allocateInstance(pair);
    ObjectView rv(heap, root);
    rv.setRef(0, n1);
    rv.setRef(1, arr);
    rv.setInt(2, 0x7f);
    return root;
}

std::string
toHex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    s.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        s.push_back(digits[b >> 4]);
        s.push_back(digits[b & 0xf]);
    }
    return s;
}

// Golden vectors. Regenerate by running the failing test: it prints
// the actual hex stream on mismatch.
// java: 124 bytes
constexpr const char *kJava =
    "0500edac73720400506169720003004c0100614c010062490300746167010000"
    "00020000007f000000737204004e6f64650002004a050076616c75654c04006e"
    "65787488776655443322110300000075720500696e745b5d0149030000000100"
    "00000200000003000000737101000000ffffffffffffffff01000000";
// kryo: 52 bytes
constexpr const char *kKryo =
    "4f59524b01000000010203fe01000000000190deb3d68ad199a2220402000000"
    "0301000000020000000300000000000000010102";
// skyway: 211 bytes
constexpr const char *kSkyway =
    "57594b53b000000000000000eaf9e95d00000000000000000000000000000000"
    "000000006100000000000000b1000000000000007f0000000000000067452301"
    "0000000001000000000000000000000000000000887766554433221111010000"
    "00000000b9d96c1b000000000200000000000000000000000000000003000000"
    "000000000100000002000000030000000000000038ab51700000000001000000"
    "000000000000000000000000ffffffffffffffff610000000000000003000000"
    "04005061697204004e6f64650500696e745b5d";
// cereal: 223 bytes
constexpr const char *kCereal =
    "4c45524304000000b00000000012000000000000000400000000000000010000"
    "0000000000040000000000000001000000000000000400000000000000160000"
    "0000000000eaf9e95d00000000010000000000000000000000000000007f0000"
    "0000000000674523010000000000000000000000000000000000000000887766"
    "5544332211b9d96c1b0000000002000000000000000000000000000000030000"
    "00000000000100000002000000030000000000000038ab517000000000000000"
    "00000000000000000000000000ffffffffffffffff0f1c320f0f462140210f";
// plaincode: 45 bytes
constexpr const char *kPlaincode =
    "504c43310102037f000000008877665544332211040203010000000200000003"
    "00000000ffffffffffffffff02";
// hps: 147 bytes
constexpr const char *kHps =
    "48505331040000006c000000000000001c000000000000004100000000000000"
    "71000000000000007f0000000000000014000000010000008877665544332211"
    "a900000000000000180000000200000003000000000000000100000002000000"
    "030000001400000001000000ffffffffffffffff410000000000000003000000"
    "04005061697204004e6f64650500696e745b5d";

const char *const kVectors[] = {kJava,   kKryo,      kSkyway,
                                kCereal, kPlaincode, kHps};

/**
 * Holds no pointers: gtest prints a value parameter byte by byte into
 * the listed test name, and a pointer would put a per-run (ASLR) heap
 * address there. The vector is named by its index into kVectors.
 */
struct GoldenCase
{
    char name[32];
    std::size_t vector;

    const char *hex() const { return kVectors[vector]; }
};

class GoldenVectors : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenVectors, StreamBytesAreExact)
{
    KlassRegistry reg;
    Heap heap(reg, 0x1'0000'0000ULL);
    Addr root = buildGoldenGraph(reg, heap);
    auto ser = serde::makeSerializer(GetParam().name, &reg);
    auto bytes = ser->serialize(heap, root);
    if (std::getenv("CEREAL_UPDATE_GOLDEN") != nullptr) {
        // Regen mode: print a paste-ready vector instead of failing.
        std::string hex = toHex(bytes);
        std::printf("// %s: %zu bytes\n", GetParam().name,
                    bytes.size());
        for (std::size_t i = 0; i < hex.size(); i += 64) {
            std::printf("    \"%s\"%s\n", hex.substr(i, 64).c_str(),
                        i + 64 < hex.size() ? "" : ";");
        }
        return;
    }
    EXPECT_EQ(toHex(bytes), GetParam().hex())
        << GetParam().name
        << " wire format changed; if intentional, update the vector "
           "with the actual hex above (or rerun with "
           "CEREAL_UPDATE_GOLDEN=1 for a paste-ready block)";
}

TEST_P(GoldenVectors, GoldenBytesDeserializeIsomorphically)
{
    // The pinned bytes must stay readable: decode the golden vector
    // (not a fresh serialization) and compare against the live graph.
    const char *hex = GetParam().hex();
    std::vector<std::uint8_t> bytes;
    for (const char *p = hex; p[0] && p[1]; p += 2) {
        auto nib = [](char c) {
            return static_cast<std::uint8_t>(
                c <= '9' ? c - '0' : c - 'a' + 10);
        };
        bytes.push_back(
            static_cast<std::uint8_t>(nib(p[0]) << 4 | nib(p[1])));
    }

    KlassRegistry reg;
    Heap heap(reg, 0x1'0000'0000ULL);
    Addr root = buildGoldenGraph(reg, heap);
    auto ser = serde::makeSerializer(GetParam().name, &reg);
    Heap dst(reg, 0x9'0000'0000ULL);
    Addr nr = ser->deserialize(bytes, dst);
    std::string why;
    EXPECT_TRUE(graphEquals(heap, root, dst, nr, &why))
        << GetParam().name << ": " << why;
}

INSTANTIATE_TEST_SUITE_P(
    AllSerializers, GoldenVectors,
    ::testing::Values(GoldenCase{"java", 0}, GoldenCase{"kryo", 1},
                      GoldenCase{"skyway", 2}, GoldenCase{"cereal", 3},
                      GoldenCase{"plaincode", 4}, GoldenCase{"hps", 5}),
    [](const auto &info) { return std::string(info.param.name); });

// The registry must agree with the vector list above: a backend added
// there without a pinned vector here is a silent coverage hole.
TEST(GoldenVectors, EveryRegisteredBackendHasAVector)
{
    EXPECT_EQ(serde::backends().size(), 6u);
}

} // namespace
} // namespace cereal
