/**
 * @file
 * Unit tests for the memory system: DDR4 timing/bandwidth model and the
 * set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/rng.hh"

namespace cereal {
namespace {

class DramTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    DramConfig cfg;
};

TEST_F(DramTest, ZeroLoadLatencyNear40ns)
{
    Dram dram("dram", eq, cfg);
    auto res = dram.access(0x1000, false, 0);
    double latency_ns = static_cast<double>(res.completeTick) / 1e3;
    // Table I: zero-load latency 40 ns. First access misses the row
    // buffer (activate included).
    EXPECT_GT(latency_ns, 30.0);
    EXPECT_LT(latency_ns, 60.0);
}

TEST_F(DramTest, RowHitFasterThanRowMiss)
{
    Dram dram("dram", eq, cfg);
    // Same row: second access should be a row hit and faster.
    auto miss = dram.access(0x0, false, 0);
    Tick t1 = miss.completeTick;
    auto hit = dram.access(64 * cfg.numChannels, false, t1);
    EXPECT_FALSE(miss.rowHit);
    EXPECT_TRUE(hit.rowHit);
    EXPECT_LT(hit.completeTick - t1, t1);
}

TEST_F(DramTest, PeakBandwidthMatchesTableI)
{
    // 4 channels x 19.2 GB/s = 76.8 GB/s.
    EXPECT_NEAR(cfg.peakBandwidth() / 1e9, 76.8, 1.0);
}

TEST_F(DramTest, StreamingApproachesPeakBandwidth)
{
    Dram dram("dram", eq, cfg);
    // Stream 16 MB sequentially with unlimited outstanding requests:
    // every burst is issued at tick 0 and the banks/buses serialise.
    const Addr total = 16 * 1024 * 1024;
    Tick done = 0;
    for (Addr a = 0; a < total; a += 64) {
        done = std::max(done, dram.access(a, false, 0).completeTick);
    }
    double util = dram.utilization(0, done);
    EXPECT_GT(util, 0.80);
    EXPECT_LE(util, 1.01);
}

TEST_F(DramTest, SingleStreamIsLatencyBound)
{
    Dram dram("dram", eq, cfg);
    // One access at a time (dependent chain): utilization collapses.
    Tick t = 0;
    const int n = 1000;
    for (int i = 0; i < n; ++i) {
        t = dram.access(static_cast<Addr>(i) * 4096, false, t).completeTick;
    }
    double util = dram.utilization(0, t);
    EXPECT_LT(util, 0.05);
}

TEST_F(DramTest, AccessRangeSplitsIntoBursts)
{
    Dram dram("dram", eq, cfg);
    dram.accessRange(0, 256, false, 0);
    EXPECT_EQ(dram.accesses(), 4u);
    EXPECT_EQ(dram.bytesRead(), 256u);

    // Unaligned range spanning two bursts.
    dram.accessRange(60, 8, true, 0);
    EXPECT_EQ(dram.accesses(), 6u);
    EXPECT_EQ(dram.bytesRead(), 256u);
    EXPECT_EQ(dram.bytesWritten(), 128u);
}

TEST_F(DramTest, RowSizeMustBePowerOfTwoBursts)
{
    cfg.rowBytes = 8000;
    EXPECT_DEATH(Dram("dram", eq, cfg), "row size");
    cfg.rowBytes = cfg.burstBytes / 2;
    EXPECT_DEATH(Dram("dram", eq, cfg), "row size");
}

TEST_F(DramTest, DecodeMatchesDivisionReferenceOnRandomAddresses)
{
    Dram dram("dram", eq, cfg);
    // Reference decode by division: bursts interleave over channels,
    // then rows of bursts over banks, then rows.
    const Addr bursts_per_row = cfg.rowBytes / cfg.burstBytes;
    std::vector<Addr> open_row(cfg.numChannels * cfg.banksPerChannel,
                               kBadAddr);
    Rng rng(2027);
    Addr addr = 0;
    Tick t = 0;
    std::uint64_t row_hits = 0;
    for (int i = 0; i < 20000; ++i) {
        // Half the accesses stride on from the last one, so rows get
        // reused; the rest land anywhere in 1 GiB.
        addr = rng.below(2) ? addr + 64 * rng.below(16)
                            : rng.below(Addr{1} << 30);
        const Addr granule = addr / cfg.burstBytes;
        const unsigned ch = static_cast<unsigned>(granule % cfg.numChannels);
        const Addr row_in_channel =
            granule / cfg.numChannels / bursts_per_row;
        const unsigned bank =
            static_cast<unsigned>(row_in_channel % cfg.banksPerChannel);
        const Addr row = row_in_channel / cfg.banksPerChannel;
        Addr &open = open_row[ch * cfg.banksPerChannel + bank];

        const std::uint64_t before = dram.channelBytes(ch);
        const DramResult res = dram.access(addr, rng.below(4) == 0, t);
        ASSERT_EQ(dram.channelBytes(ch), before + cfg.burstBytes)
            << "access " << i << " addr " << addr;
        ASSERT_EQ(ch, (addr / 64) % 4);
        ASSERT_EQ(res.rowHit, open == row) << "access " << i;
        open = row;
        row_hits += res.rowHit;
        t = res.completeTick;
    }
    EXPECT_EQ(dram.rowHits(), row_hits);
    EXPECT_GT(row_hits, 0u);
    EXPECT_LT(row_hits, 20000u);
}

TEST(CacheTest, HitAfterFill)
{
    Cache c(CacheConfig::l1());
    auto first = c.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    auto second = c.access(0x1000, false);
    EXPECT_TRUE(second.hit);
    // Same line, different byte.
    EXPECT_TRUE(c.access(0x103f, false).hit);
    // Next line misses.
    EXPECT_FALSE(c.access(0x1040, false).hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheTest, LruEvictsOldest)
{
    // Tiny 2-way cache: 2 sets of 2 ways, 64 B lines -> 256 B.
    Cache c(CacheConfig{256, 2, 64, 1});
    // Three lines mapping to set 0 (stride = 128 B for 2 sets).
    c.access(0 * 128, false);
    c.access(2 * 128, false);
    c.access(4 * 128, false); // evicts line 0
    EXPECT_FALSE(c.access(0, false).hit);
    // Line 2*128 was least-recently used after the previous access
    // filled line 0 over 4*128's... verify the re-access pattern:
    EXPECT_TRUE(c.contains(0));
}

TEST(CacheTest, DirtyEvictionReportsWriteback)
{
    Cache c(CacheConfig{256, 2, 64, 1});
    c.access(0 * 128, true); // dirty
    c.access(2 * 128, false);
    auto res = c.access(4 * 128, false); // evicts dirty line 0
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, 0u);
}

TEST(CacheTest, CleanEvictionNoWriteback)
{
    Cache c(CacheConfig{256, 2, 64, 1});
    c.access(0 * 128, false);
    c.access(2 * 128, false);
    auto res = c.access(4 * 128, false);
    EXPECT_FALSE(res.writeback);
}

TEST(CacheTest, VictimAddressRoundTrips)
{
    Cache c(CacheConfig{256, 2, 64, 1});
    const Addr probe = 0x12340080; // maps to set 1
    c.access(probe, true);
    // Force eviction of `probe` by filling its set.
    Addr conflict1 = probe + 128;
    Addr conflict2 = probe + 256;
    c.access(conflict1, false);
    auto res = c.access(conflict2, false);
    ASSERT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, roundDown(probe, 64));
}

TEST(CacheTest, FlushDropsEverything)
{
    Cache c(CacheConfig::l1());
    c.access(0x1000, true);
    c.flush();
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_EQ(c.accesses(), 0u);
}

TEST(CacheTest, CapacityMissBehaviour)
{
    Cache c(CacheConfig::l1()); // 32 KB
    // Touch 64 KB; re-touching the first half must miss again.
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        c.access(a, false);
    }
    c.resetStats();
    for (Addr a = 0; a < 16 * 1024; a += 64) {
        c.access(a, false);
    }
    EXPECT_GT(c.missRate(), 0.99);
}

TEST(CacheTest, GeometryConfigsValid)
{
    // The three Table I levels construct without panicking.
    Cache l1(CacheConfig::l1());
    Cache l2(CacheConfig::l2());
    Cache l3(CacheConfig::l3());
    EXPECT_EQ(l1.config().sizeBytes, 32u * 1024);
    EXPECT_EQ(l2.config().sizeBytes, 1024u * 1024);
    EXPECT_EQ(l3.config().sizeBytes, 11u * 1024 * 1024);
}

TEST(CacheTest, NonPowerOfTwoSetCountPanics)
{
    // 3 sets of 2 ways, 64 B lines.
    EXPECT_DEATH(Cache(CacheConfig{3 * 2 * 64, 2, 64, 1}), "not 2\\^n");
}

/**
 * Reference LRU cache: each set is a list of (line, dirty) in recency
 * order, most recent first, with no way positions at all.
 */
class RefLruCache
{
  public:
    explicit RefLruCache(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.sizeBytes / (cfg.lineBytes * cfg.ways))
    {
    }

    CacheAccessResult
    access(Addr addr, bool write)
    {
        const Addr line = addr / cfg_.lineBytes;
        auto &set = sets_[line % sets_.size()];
        auto it = std::find_if(set.begin(), set.end(), [line](const Way &w) {
            return w.line == line;
        });
        if (it != set.end()) {
            Way hit{line, it->dirty || write};
            set.erase(it);
            set.insert(set.begin(), hit);
            return {true, false, kBadAddr};
        }
        CacheAccessResult res{false, false, kBadAddr};
        if (set.size() == cfg_.ways) {
            if (set.back().dirty) {
                res.writeback = true;
                res.victimAddr = set.back().line * cfg_.lineBytes;
            }
            set.pop_back();
        }
        set.insert(set.begin(), Way{line, write});
        return res;
    }

    bool
    contains(Addr addr) const
    {
        const Addr line = addr / cfg_.lineBytes;
        const auto &set = sets_[line % sets_.size()];
        return std::any_of(set.begin(), set.end(),
                           [line](const Way &w) { return w.line == line; });
    }

    void
    flush()
    {
        for (auto &set : sets_) {
            set.clear();
        }
    }

  private:
    struct Way
    {
        Addr line;
        bool dirty;
    };

    CacheConfig cfg_;
    std::vector<std::vector<Way>> sets_;
};

TEST(CacheTest, MatchesReferenceLruOnRandomStreams)
{
    const CacheConfig geometries[] = {
        {256, 2, 64, 1},            // 2 sets, 2 ways
        {4096, 1, 64, 1},           // direct mapped
        {8192, 4, 32, 1},           // 32 B lines
        {16 * 11 * 64, 11, 64, 1},  // 11 ways, as the L3
        CacheConfig::l1(),
        CacheConfig::l2(),          // 16 ways
        CacheConfig::l3(),          // 11 ways, 16384 sets
    };
    std::uint64_t seed = 7;
    for (const CacheConfig &cfg : geometries) {
        Cache dut(cfg);
        RefLruCache ref(cfg);
        Rng rng(seed++);
        // A footprint of 4x the capacity gives both hits and evictions;
        // eight accesses per line fill even the L3's sets.
        const Addr span = 4 * cfg.sizeBytes;
        const int n = static_cast<int>(
            std::max<Addr>(50000, 8 * cfg.sizeBytes / cfg.lineBytes));
        std::uint64_t hits = 0;
        std::uint64_t writebacks = 0;
        for (int i = 0; i < n; ++i) {
            if (i == n / 2) {
                // Flush mid-stream: both drop every line, and the
                // model's counters restart.
                dut.flush();
                ref.flush();
                ASSERT_EQ(dut.accesses(), 0u);
                hits = 0;
            }
            const Addr addr = 0x40000000 + rng.below(span);
            const bool write = rng.below(4) == 0;
            const CacheAccessResult got = dut.access(addr, write);
            const CacheAccessResult want = ref.access(addr, write);
            ASSERT_EQ(got.hit, want.hit) << "access " << i;
            ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
            ASSERT_EQ(got.victimAddr, want.victimAddr) << "access " << i;
            const Addr probe = 0x40000000 + rng.below(span);
            ASSERT_EQ(dut.contains(probe), ref.contains(probe))
                << "probe after access " << i;
            hits += got.hit;
            writebacks += got.writeback;
        }
        EXPECT_EQ(dut.hits(), hits);
        EXPECT_EQ(dut.misses(), static_cast<std::uint64_t>(n - n / 2) - hits);
        EXPECT_GT(hits, 0u) << cfg.sizeBytes << " B, " << cfg.ways;
        EXPECT_GT(writebacks, 0u) << cfg.sizeBytes << " B, " << cfg.ways;
    }
}

} // namespace
} // namespace cereal
