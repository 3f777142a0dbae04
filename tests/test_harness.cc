/**
 * @file
 * Integration tests for the measurement harness: the full
 * software/accelerator measurement pipelines used by every figure
 * bench, checked for internal consistency (verified round trips,
 * sane bandwidths, expected orderings between serializers).
 */

#include <gtest/gtest.h>

#include "heap/walker.hh"
#include "serde/java_serde.hh"
#include "serde/kryo_serde.hh"
#include "serde/registry.hh"
#include "serde/skyway_serde.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using namespace workloads;

class HarnessTest : public ::testing::Test
{
  protected:
    HarnessTest() : micro(reg), src(reg)
    {
        Rng rng(11);
        root = micro.buildTree(src, 2, 2047, rng);
    }

    KlassRegistry reg;
    MicroWorkloads micro;
    Heap src;
    Addr root;
};

TEST_F(HarnessTest, SoftwareMeasurementIsConsistent)
{
    JavaSerializer java;
    auto m = measureSoftware(java, src, root); // verify=true inside
    EXPECT_EQ(m.serializer, "java");
    EXPECT_EQ(m.objects, 2047u);
    EXPECT_GT(m.serSeconds, 0.0);
    EXPECT_GT(m.deserSeconds, 0.0);
    EXPECT_GT(m.streamBytes, 2047u * 8);
    EXPECT_GT(m.serIpc, 0.1);
    EXPECT_LT(m.serIpc, 6.0);
    EXPECT_GE(m.serBandwidth, 0.0);
    EXPECT_LE(m.serBandwidth, 1.0);
    EXPECT_GT(m.serEnergyJ, 0.0);
}

TEST_F(HarnessTest, KryoFasterThanJava)
{
    JavaSerializer java;
    KryoSerializer kryo;
    kryo.registerAll(reg);
    auto mj = measureSoftware(java, src, root);
    auto mk = measureSoftware(kryo, src, root);
    EXPECT_LT(mk.serSeconds, mj.serSeconds);
    EXPECT_LT(mk.deserSeconds, mj.deserSeconds);
    EXPECT_LT(mk.streamBytes, mj.streamBytes);
}

TEST_F(HarnessTest, CerealFasterThanSoftware)
{
    KryoSerializer kryo;
    kryo.registerAll(reg);
    auto mk = measureSoftware(kryo, src, root);
    auto mc = measureCereal(src, root);
    EXPECT_EQ(mc.serializer, "cereal");
    EXPECT_LT(mc.serSeconds, mk.serSeconds);
    EXPECT_LT(mc.deserSeconds, mk.deserSeconds);
    // The accelerator uses far more bandwidth than software.
    EXPECT_GT(mc.deserBandwidth, mk.deserBandwidth);
    // And far less energy than TDP-burning software.
    EXPECT_LT(mc.serEnergyJ, mk.serEnergyJ);
}

TEST_F(HarnessTest, VanillaSlowerThanPipelined)
{
    AccelConfig vanilla;
    vanilla.pipelined = false;
    auto mv = measureCereal(src, root, vanilla);
    auto mc = measureCereal(src, root);
    EXPECT_GT(mv.serSeconds, mc.serSeconds);
    EXPECT_GT(mv.deserSeconds, mc.deserSeconds);
    // Format is unchanged by the timing config.
    EXPECT_EQ(mv.streamBytes, mc.streamBytes);
}

TEST_F(HarnessTest, HeaderStripShrinksStream)
{
    auto plain = measureCereal(src, root);
    auto stripped = measureCereal(src, root, AccelConfig(),
                                  CerealOptions{/*headerStrip=*/true});
    EXPECT_LT(stripped.streamBytes, plain.streamBytes);
    // One 8 B mark word per object saved.
    EXPECT_EQ(plain.streamBytes - stripped.streamBytes, 2047u * 8);
}

TEST_F(HarnessTest, SkywayMeasurable)
{
    SkywaySerializer sky;
    auto m = measureSoftware(sky, src, root);
    EXPECT_GT(m.serSeconds, 0.0);
    // Skyway streams are bigger (headers + ref slots included).
    JavaSerializer java;
    auto mj = measureSoftware(java, src, root);
    EXPECT_GT(m.streamBytes, mj.streamBytes / 2);
}

TEST(HarnessObjects, CountMatchesTheWalkerOnEveryShape)
{
    // The harness takes the count from the round-trip check (software)
    // or the stream (Cereal) rather than from a walk of its own, and
    // from a walk only when nothing is verified.
    for (MicroBench mb : allMicroBenches()) {
        KlassRegistry reg;
        MicroWorkloads micro(reg);
        Heap src(reg);
        const Addr root = micro.build(src, mb, 4096, 42);
        const std::uint64_t want =
            GraphWalker(src).stats(root).objectCount;
        ASSERT_GT(want, 1u) << microBenchName(mb);
        for (const std::string &name : serde::availableBackends()) {
            auto ser = serde::makeSerializer(name, &reg);
            EXPECT_EQ(measureSoftware(*ser, src, root).objects, want)
                << name << " on " << microBenchName(mb);
            EXPECT_EQ(measureSoftware(*ser, src, root, CoreConfig(),
                                      /*verify=*/false)
                          .objects,
                      want)
                << name << " unverified on " << microBenchName(mb);
        }
        EXPECT_EQ(measureCereal(src, root).objects, want)
            << microBenchName(mb);
        EXPECT_EQ(measureCereal(src, root, AccelConfig(), CerealOptions(),
                                /*verify=*/false)
                      .objects,
                  want)
            << microBenchName(mb);
    }
}

TEST_F(HarnessTest, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 4.0, 4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST_F(HarnessTest, CorruptedRoundTripPanics)
{
    // A serializer that corrupts its output must be caught by the
    // harness's isomorphism check.
    class Corrupting : public JavaSerializer
    {
      public:
        std::string name() const override { return "corrupting"; }
        std::vector<std::uint8_t>
        serialize(Heap &heap, Addr r, MemSink *sink) override
        {
            auto bytes = JavaSerializer::serialize(heap, r, sink);
            bytes[bytes.size() / 2] ^= 0x40; // flip a data bit
            return bytes;
        }
    };
    Corrupting bad;
    EXPECT_DEATH(measureSoftware(bad, src, root), "round trip broken");
}

} // namespace
} // namespace cereal
