/**
 * @file
 * Tests for the Cereal accelerator timing model: MAI window and
 * coalescing, TLB, SU/DU pipeline behaviour (including the Vanilla
 * ablation), device scheduling, the area/power model against Table V,
 * and the full API (Initialize/RegisterClass/WriteObject/ReadObject).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cereal/api.hh"
#include "cereal/area_power.hh"
#include "heap/object.hh"
#include "heap/walker.hh"
#include "sim/flat.hh"
#include "sim/rng.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using workloads::MicroBench;
using workloads::MicroWorkloads;

class AccelFixture : public ::testing::Test
{
  protected:
    AccelFixture()
        : dram("dram", eq), micro(reg), src(reg),
          dst(reg, 0x9'0000'0000ULL)
    {
    }

    EventQueue eq;
    Dram dram;
    KlassRegistry reg;
    MicroWorkloads micro;
    Heap src, dst;
};

TEST(MaiTest, WindowLimitsOutstanding)
{
    EventQueue eq;
    Dram dram("dram", eq);
    Mai mai_small(dram, 2);
    // With 2 entries, the 10th random read must start far later than
    // with 64 entries.
    EventQueue eq2;
    Dram dram2("dram2", eq2);
    Mai mai_big(dram2, 64);
    Tick small_done = 0, big_done = 0;
    for (int i = 0; i < 32; ++i) {
        Addr a = static_cast<Addr>(i) * 1'000'000; // all row misses
        small_done = std::max(small_done, mai_small.read(a, 8, 0));
        big_done = std::max(big_done, mai_big.read(a, 8, 0));
    }
    EXPECT_GT(small_done, big_done);
}

TEST(MaiTest, CoalescesSameBlockReads)
{
    EventQueue eq;
    Dram dram("dram", eq);
    Mai mai(dram, 64);
    Tick t1 = mai.read(0x1000, 8, 0);
    Tick t2 = mai.read(0x1008, 8, 0); // same 64 B block, in flight
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(mai.coalescedHits(), 1u);
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(MaiTest, LineBufferServesRecentBlocks)
{
    EventQueue eq;
    Dram dram("dram", eq);
    Mai mai(dram, 64);
    Tick t1 = mai.read(0x1000, 8, 0);
    // Issue after t1: the in-flight entry retired, but the block still
    // sits in the MAI's 4 KB data buffer — no second DRAM access.
    Tick t2 = mai.read(0x1008, 8, t1 + 1);
    EXPECT_EQ(mai.coalescedHits(), 1u);
    EXPECT_EQ(dram.accesses(), 1u);
    EXPECT_EQ(t2, t1 + 1);
}

TEST(MaiTest, LineBufferEvictsFifo)
{
    EventQueue eq;
    Dram dram("dram", eq);
    Mai mai(dram, 2); // 2-entry buffer
    Tick t = mai.read(0x0000, 8, 0);
    t = std::max(t, mai.read(0x1000, 8, t));
    t = std::max(t, mai.read(0x2000, 8, t)); // evicts block 0x0000
    auto before = dram.accesses();
    mai.read(0x0000, 8, t + 1);
    EXPECT_EQ(dram.accesses(), before + 1); // real access again
}

TEST(MaiTest, MultiBurstRead)
{
    EventQueue eq;
    Dram dram("dram", eq);
    Mai mai(dram, 64);
    mai.read(0, 256, 0);
    EXPECT_EQ(dram.accesses(), 4u);
}

/**
 * The MAI as it was with two tables, an in-flight map and a line-buffer
 * map, kept as the reference for the one-table model.
 */
class TwoTableMai
{
  public:
    TwoTableMai(Dram &dram, unsigned entries, Tlb *tlb)
        : dram_(&dram), entries_(entries), tlb_(tlb)
    {
    }

    Tick read(Addr addr, Addr bytes, Tick issue)
    {
        return span(addr, bytes, false, issue);
    }

    Tick write(Addr addr, Addr bytes, Tick issue)
    {
        return span(addr, bytes, true, issue);
    }

    Tick
    atomicRmw(Addr addr, Tick issue)
    {
        return blockAccess(roundDown(addr, 64), false, issue);
    }

    std::uint64_t coalescedHits() const { return coalesced_; }
    std::uint64_t requests() const { return requests_; }

  private:
    Tick
    span(Addr addr, Addr bytes, bool write, Tick issue)
    {
        if (bytes == 0) {
            return issue;
        }
        Tick done = issue;
        for (Addr b = roundDown(addr, 64);
             b <= roundDown(addr + bytes - 1, 64); b += 64) {
            done = std::max(done, blockAccess(b, write, issue));
        }
        return done;
    }

    Tick
    acquireSlot(Tick issue)
    {
        while (!outstanding_.empty() && outstanding_.front() <= issue) {
            outstanding_.pop_front();
        }
        while (outstanding_.size() >= entries_) {
            issue = std::max(issue, outstanding_.front());
            outstanding_.pop_front();
        }
        return issue;
    }

    Tick
    blockAccess(Addr block, bool write, Tick issue)
    {
        ++requests_;
        if (!write) {
            if (const Tick *t = inflight_.find(block); t && *t > issue) {
                ++coalesced_;
                return *t;
            }
            if (const Tick *t = lineBuffer_.find(block)) {
                ++coalesced_;
                return std::max(issue, *t);
            }
        }
        if (tlb_) {
            issue += tlb_->lookup(block);
        }
        issue = acquireSlot(issue);
        Tick done = dram_->access(block, write, issue).completeTick;
        outstanding_.push_back(done);
        if (!write) {
            inflight_.assign(block, done);
            if (lineBuffer_.assign(block, done)) {
                lineFifo_.push_back(block);
                if (lineFifo_.size() > entries_) {
                    lineBuffer_.erase(lineFifo_.front());
                    lineFifo_.pop_front();
                }
            }
            if (inflight_.size() > entries_ * 4) {
                inflight_.eraseIf([issue](Tick t) { return t <= issue; });
            }
        }
        return done;
    }

    Dram *dram_;
    unsigned entries_;
    Tlb *tlb_;
    sim::RingQueue<Tick> outstanding_;
    sim::AddrMap<Tick> inflight_;
    sim::AddrMap<Tick> lineBuffer_;
    sim::RingQueue<Addr> lineFifo_;
    std::uint64_t coalesced_ = 0;
    std::uint64_t requests_ = 0;
};

TEST(MaiTest, MatchesTwoTableReferenceOnRandomStreams)
{
    std::uint64_t seed = 11;
    for (unsigned entries : {4u, 7u, 16u, 64u, 256u}) {
        for (bool with_tlb : {false, true}) {
            EventQueue eq_a, eq_b;
            Dram dram_a("a", eq_a), dram_b("b", eq_b);
            Tlb tlb_a(8, 4096, 120), tlb_b(8, 4096, 120);
            Mai dut(dram_a, entries, with_tlb ? &tlb_a : nullptr);
            TwoTableMai ref(dram_b, entries, with_tlb ? &tlb_b : nullptr);
            Rng rng(seed++);
            // 16x the line buffer's blocks: buffer hits, evictions,
            // in-flight joins and the in-flight prune all occur.
            const Addr span = Addr{entries} * 64 * 16;
            Tick now = 0;
            for (int i = 0; i < 40000; ++i) {
                // Issue ticks drift forward but often step back, as the
                // SU's discovered references do.
                now += rng.below(4000);
                const Tick issue = now - std::min<Tick>(now, rng.below(20000));
                const Addr addr = 0x40000000 + rng.below(span);
                const Addr bytes = 1 + rng.below(256);
                Tick got, want;
                switch (rng.below(3)) {
                  case 0:
                    got = dut.read(addr, bytes, issue);
                    want = ref.read(addr, bytes, issue);
                    break;
                  case 1:
                    got = dut.write(addr, bytes, issue);
                    want = ref.write(addr, bytes, issue);
                    break;
                  default:
                    got = dut.atomicRmw(addr, issue);
                    want = ref.atomicRmw(addr, issue);
                    break;
                }
                ASSERT_EQ(got, want) << "op " << i << ", " << entries
                                     << " entries, tlb " << with_tlb;
            }
            EXPECT_EQ(dut.coalescedHits(), ref.coalescedHits());
            EXPECT_EQ(dut.requests(), ref.requests());
            EXPECT_GT(dut.coalescedHits(), 0u);
        }
    }
}

TEST(TlbTest, HitAfterFill)
{
    Tlb tlb(4, Addr{1} << 30, 100);
    EXPECT_GT(tlb.lookup(0x1234), 0u);
    EXPECT_EQ(tlb.lookup(0x9999), 0u); // same 1 GB page
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, LruEviction)
{
    Tlb tlb(2, 4096, 50);
    tlb.lookup(0 << 12);
    tlb.lookup(1 << 12);
    tlb.lookup(2 << 12);               // evicts page 0
    EXPECT_GT(tlb.lookup(0 << 12), 0u); // miss again
}

TEST_F(AccelFixture, SuCompletesAndCountsObjects)
{
    Rng rng(1);
    Addr root = micro.buildTree(src, 2, 255, rng);
    Mai mai(dram, 64);
    SerializationUnit su(mai, AccelConfig());
    auto r = su.serialize(src, root, 1000, 0x100'0000'0000ULL);
    EXPECT_EQ(r.objects, 255u);
    // Every tree node's two child refs pass the HM, plus the root.
    EXPECT_GE(r.refs, 255u);
    EXPECT_GT(r.done, 1000u);
    EXPECT_GT(r.bytesRead, 255u * 48);
    EXPECT_GT(r.metadataCacheHits, 200u); // one class, hot
}

TEST_F(AccelFixture, SuCountsOnlyTheGraphRootedMidHeap)
{
    // Three disjoint graphs in one heap; the SU walks the middle one.
    Rng rng(9);
    Addr before = micro.buildTree(src, 2, 127, rng);
    Addr root = micro.buildGraph(src, 300, 8, rng);
    Addr after = micro.buildList(src, 200, rng);
    const GraphStats gs = GraphWalker(src).stats(root);
    ASSERT_LT(gs.objectCount, src.objectCount());
    Mai mai(dram, 64);
    SerializationUnit su(mai, AccelConfig());
    auto r = su.serialize(src, root, 0, 0x100'0000'0000ULL);
    EXPECT_EQ(r.objects, gs.objectCount);
    EXPECT_EQ(GraphWalker(src).stats(before).objectCount + gs.objectCount +
                  GraphWalker(src).stats(after).objectCount,
              src.objectCount());
}

TEST_F(AccelFixture, SuPipeliningBeatsVanilla)
{
    Rng rng(2);
    Addr root = micro.buildTree(src, 8, 4096, rng);

    EventQueue eq_a;
    Dram dram_a("a", eq_a);
    Mai mai_a(dram_a, 64);
    AccelConfig piped;
    SerializationUnit su_piped(mai_a, piped);
    Tick t_piped =
        su_piped.serialize(src, root, 0, 0x100'0000'0000ULL).done;

    EventQueue eq_b;
    Dram dram_b("b", eq_b);
    Mai mai_b(dram_b, 64);
    AccelConfig vanilla;
    vanilla.pipelined = false;
    SerializationUnit su_van(mai_b, vanilla);
    Tick t_van = su_van.serialize(src, root, 0, 0x100'0000'0000ULL).done;

    EXPECT_LT(t_piped, t_van);
}

TEST_F(AccelFixture, DuReconstructorCountMatters)
{
    Rng rng(3);
    Addr root = micro.buildGraph(src, 512, 64, rng);
    CerealSerializer ser;
    ser.registerAll(reg);
    auto stream = ser.serializeToStream(src, root);

    auto run = [&](unsigned recons) {
        EventQueue eq2;
        Dram d2("d", eq2);
        Mai mai(d2, 64);
        AccelConfig cfg;
        cfg.blockReconstructors = recons;
        cfg.brPerBlock = 16; // make reconstruction the bottleneck
        DeserializationUnit du(mai, cfg);
        return du.deserialize(stream, 0x100'0000'0000ULL,
                              0x9'0000'0000ULL, 0)
            .done;
    };
    EXPECT_LT(run(4), run(1));
}

TEST_F(AccelFixture, DuBlocksCoverImage)
{
    Rng rng(4);
    Addr root = micro.buildList(src, 300, rng);
    CerealSerializer ser;
    ser.registerAll(reg);
    auto stream = ser.serializeToStream(src, root);
    Mai mai(dram, 64);
    DeserializationUnit du(mai, AccelConfig());
    auto r = du.deserialize(stream, 0x100'0000'0000ULL,
                            0x9'0000'0000ULL, 0);
    EXPECT_EQ(r.blocks, (stream.totalGraphBytes + 63) / 64);
    EXPECT_EQ(r.bytesWritten, stream.totalGraphBytes);
    EXPECT_GT(r.bytesRead, 0u);
}

TEST_F(AccelFixture, DeviceSchedulesAcrossUnits)
{
    Rng rng(5);
    CerealDevice dev(dram);
    std::vector<Addr> roots;
    for (int i = 0; i < 4; ++i) {
        roots.push_back(micro.buildList(src, 500, rng));
    }
    // Submit all at tick 0: each should land on a distinct SU.
    std::set<unsigned> units;
    for (Addr r : roots) {
        units.insert(dev.serialize(src, r, 0).unit);
    }
    EXPECT_EQ(units.size(), 4u);
}

TEST_F(AccelFixture, DeviceSerialisesOnBusyUnits)
{
    Rng rng(6);
    AccelConfig one_unit;
    one_unit.numSU = 1;
    CerealDevice dev(dram, one_unit);
    Addr r1 = micro.buildList(src, 500, rng);
    Addr r2 = micro.buildList(src, 500, rng);
    auto a = dev.serialize(src, r1, 0);
    auto b = dev.serialize(src, r2, 0);
    EXPECT_EQ(a.unit, 0u);
    EXPECT_EQ(b.unit, 0u);
    EXPECT_GE(b.start, a.done); // queued behind the first op
}

TEST(AreaPower, TotalsMatchTableV)
{
    AreaPowerModel m;
    EXPECT_NEAR(m.totalAreaMm2(), 3.857, 0.01);
    EXPECT_NEAR(m.totalPowerMw(), 1231.6, 1.0);
    // Paper: 612.5x less area than the host die, 113.7x less power.
    EXPECT_NEAR(AreaPowerModel::kHostDieAreaMm2 / m.totalAreaMm2(), 612.5,
                2.0);
    EXPECT_NEAR(AreaPowerModel::kHostTdpWatts /
                    (m.totalPowerMw() * 1e-3),
                113.7, 1.0);
}

TEST(AreaPower, SubtotalsMatchTableV)
{
    AreaPowerModel m;
    double ser_area = 0, ser_power = 0;
    for (const auto &mod : m.serializerModules()) {
        ser_area += mod.totalArea();
        ser_power += mod.totalPower();
    }
    EXPECT_NEAR(ser_area, 0.464, 0.005);
    EXPECT_NEAR(ser_power, 264.8, 0.5);

    double de_area = 0, de_power = 0;
    for (const auto &mod : m.deserializerModules()) {
        de_area += mod.totalArea();
        de_power += mod.totalPower();
    }
    EXPECT_NEAR(de_area, 2.248, 0.005);
    EXPECT_NEAR(de_power, 956.8, 0.5);
}

TEST(AreaPower, EnergyScalesWithTime)
{
    AreaPowerModel m;
    EXPECT_GT(m.serializeEnergyJ(1.0), 0.0);
    EXPECT_DOUBLE_EQ(m.serializeEnergyJ(2.0), 2 * m.serializeEnergyJ(1.0));
    // Software at TDP dwarfs the accelerator for equal time.
    EXPECT_GT(AreaPowerModel::softwareEnergyJ(1.0),
              100 * m.deserializeEnergyJ(1.0));
}

class ApiFixture : public AccelFixture
{
};

TEST_F(ApiFixture, WriteReadRoundTrip)
{
    Rng rng(7);
    Addr root = micro.buildTree(src, 2, 127, rng);
    CerealContext ctx(dram);
    ctx.registerAll(reg);

    ObjectOutputStream oos;
    auto w = ctx.writeObject(oos, src, root);
    EXPECT_FALSE(w.softwareFallback);
    EXPECT_GT(w.timing.done, w.timing.submit);

    ObjectInputStream ois(oos.bytes());
    auto r = ctx.readObject(ois, dst);
    std::string why;
    EXPECT_TRUE(graphEquals(src, root, dst, r.root, &why)) << why;
    EXPECT_TRUE(ois.done());
}

TEST_F(ApiFixture, MultipleRecordsInOneStream)
{
    Rng rng(8);
    CerealContext ctx(dram);
    ctx.registerAll(reg);
    Addr r1 = micro.buildList(src, 20, rng);
    Addr r2 = micro.buildTree(src, 2, 31, rng);

    ObjectOutputStream oos;
    ctx.writeObject(oos, src, r1);
    ctx.writeObject(oos, src, r2);
    EXPECT_EQ(oos.records(), 2u);

    ObjectInputStream ois(oos.bytes());
    auto a = ctx.readObject(ois, dst);
    auto b = ctx.readObject(ois, dst);
    EXPECT_TRUE(graphEquals(src, r1, dst, a.root));
    EXPECT_TRUE(graphEquals(src, r2, dst, b.root));
}

TEST_F(ApiFixture, SharedConflictFallsBackToSoftware)
{
    Rng rng(9);
    Addr root = micro.buildList(src, 100, rng);
    CerealContext ctx(dram);
    ctx.registerAll(reg);

    ObjectOutputStream oos;
    auto hw = ctx.writeObject(oos, src, root, 0, false);
    auto sw = ctx.writeObject(oos, src, root, 0, true);
    EXPECT_TRUE(sw.softwareFallback);
    // The fallback still produced a valid record...
    ObjectInputStream ois(oos.bytes());
    ctx.readObject(ois, dst);
    auto r2 = ctx.readObject(ois, dst);
    EXPECT_TRUE(graphEquals(src, root, dst, r2.root));
    // ...but costs far more time than the accelerator path.
    EXPECT_GT(sw.timing.latencySeconds, hw.timing.latencySeconds);
}

TEST_F(ApiFixture, DeviceBusyTimeAccumulates)
{
    Rng rng(10);
    Addr root = micro.buildList(src, 200, rng);
    CerealContext ctx(dram);
    ctx.registerAll(reg);
    EXPECT_EQ(ctx.device().suBusyTicks(), 0u);
    ObjectOutputStream oos;
    ctx.writeObject(oos, src, root);
    EXPECT_GT(ctx.device().suBusyTicks(), 0u);
    ObjectInputStream ois(oos.bytes());
    ctx.readObject(ois, dst);
    EXPECT_GT(ctx.device().duBusyTicks(), 0u);
}

} // namespace
} // namespace cereal
