/**
 * @file
 * The sim-speed tier: tests for the simulator fast path.
 *
 *  - BufferPool / ContiguousBuffer semantics (capacity recycling,
 *    zeroing, growth in place, the reservation's limit), kept blocks
 *    (an output array grows in place and gets its block back, a reused
 *    table block reads zero, a ring keeps FIFO order as it grows) and
 *    the ObjectTable's one entry per 16 B.
 *  - A global-operator-new counting proof that the hot event loop
 *    allocates zero bytes per event (same technique as test_trace's
 *    null-sink guarantee), that Cereal serialization, functional
 *    and accelerator model, allocates nothing per object, that the
 *    packer's outputs are not grown by doubling, and that
 *    deserialization keeps no side table per reference or, in the
 *    DU, per output block.
 *  - Dram::accessRange batched fast path vs the per-burst access()
 *    loop: identical completion ticks, counters, latency accounting,
 *    and bank/bus state.
 *  - The observer effect, differentially: every stat an unobserved
 *    run reports must come back bit-identical from a run with a trace
 *    sink and a metrics recorder installed, at the harness level
 *    (measureSoftware / measureCereal) and the cluster level
 *    (runShuffle / runServingFrontend).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <thread>
#include <vector>

#include "cereal/accel/device.hh"
#include "cereal/cereal_serializer.hh"
#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "heap/object_table.hh"
#include "heap/walker.hh"
#include "mem/dram.hh"
#include "serde/java_serde.hh"
#include "serde/registry.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

#include "observed.hh"

// ------------------------------------------------- allocation counter
//
// Program-wide operator new replacement so the event-loop test can
// assert the hot path never touches the global allocator. Counting is
// cheap and thread-safe, so replacing it for the whole test binary is
// harmless (test_trace uses the same technique).

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_allocBytes{0};
} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    g_allocBytes += size;
    if (void *p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// ASan supplies its own nothrow form; std::stable_sort's temporary
// buffer uses it, so it must come from malloc too for free() to match.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocCount;
    g_allocBytes += size;
    return std::malloc(size ? size : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace cereal {
namespace {

using cluster::AdmissionPolicy;
using cluster::Backend;
using cluster::ClusterConfig;
using cluster::ClusterSim;
using cluster::LatencySummary;
using cluster::ServingConfig;
using cluster::runServingFrontend;

// ------------------------------------------------- buffer recycling

TEST(BufferPool, RetainsCapacityAcrossRoundTrips)
{
    sim::BufferPool pool;
    auto buf = pool.acquire();
    EXPECT_EQ(pool.misses(), 1u);
    buf.resize(300 * 1024);
    const std::size_t cap = buf.capacity();
    pool.release(std::move(buf));
    EXPECT_EQ(pool.parked(), 1u);

    auto again = pool.acquire();
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(pool.parked(), 0u);
    EXPECT_TRUE(again.empty());
    EXPECT_GE(again.capacity(), cap);
}

TEST(ContiguousBuffer, ZeroesClaimsAndPreservesAcrossGrowth)
{
    sim::ContiguousBuffer buf(64);
    buf.claimZeroed(48);
    ASSERT_GE(buf.size(), 48u);
    for (std::size_t i = 0; i < 48; ++i) {
        ASSERT_EQ(buf.data()[i], 0u);
    }
    std::memset(buf.data(), 0x5A, 48);

    // Growth past capacity preserves contents and zeroes the new span.
    buf.claimZeroed(1 << 20);
    ASSERT_GE(buf.capacity(), std::size_t{1} << 20);
    for (std::size_t i = 0; i < 48; ++i) {
        ASSERT_EQ(buf.data()[i], 0x5A);
    }
    for (std::size_t i = 48; i < (1 << 20); i += 4096) {
        ASSERT_EQ(buf.data()[i], 0u);
    }
    // Write up to the old end, then grow into a block of 2 MiB or more
    // (the huge-page path): every old byte survives and the newly
    // claimed span reads zero, though claiming writes nothing.
    const std::size_t old_end = buf.size();
    std::memset(buf.data(), 0xC3, old_end);
    const std::size_t big = std::size_t{3} << 20;
    buf.claimZeroed(big);
    ASSERT_GE(buf.capacity(), std::size_t{2} << 20);
    ASSERT_EQ(buf.size(), big);
    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + old_end,
                            [](std::uint8_t b) { return b == 0xC3; }));
    EXPECT_TRUE(std::all_of(buf.data() + old_end, buf.data() + big,
                            [](std::uint8_t b) { return b == 0; }));

    // Monotonic: shrinking claims are no-ops.
    const std::size_t size = buf.size();
    buf.claimZeroed(100);
    EXPECT_EQ(buf.size(), size);
}

TEST(ContiguousBuffer, GrowsInPlaceAndThrowsPastItsReservation)
{
    sim::ContiguousBuffer buf;
    buf.claimZeroed(100);
    std::uint8_t *const base = buf.data();
    std::size_t claimed = 0;
    // From one small page through several huge-page windows.
    for (std::size_t bytes = 100; bytes < (std::size_t{16} << 20);
         bytes *= 3) {
        buf.claimZeroed(bytes);
        ASSERT_EQ(buf.data(), base) << "moved at " << bytes << " B";
        ASSERT_TRUE(std::all_of(buf.data() + claimed, buf.data() + bytes,
                                [](std::uint8_t b) { return b == 0; }))
            << "claim to " << bytes << " B";
        std::memset(buf.data() + claimed, 0xA5, bytes - claimed);
        claimed = bytes;
    }
    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + claimed,
                            [](std::uint8_t b) { return b == 0xA5; }));

    // Past the reservation the claim throws before committing anything,
    // so no page is touched, and the buffer is as it was.
    const std::size_t cap = buf.capacity();
    EXPECT_THROW(
        buf.claimZeroed(sim::ContiguousBuffer::kReserveBytes + 1),
        std::bad_alloc);
    EXPECT_EQ(buf.data(), base);
    EXPECT_EQ(buf.size(), claimed);
    EXPECT_EQ(buf.capacity(), cap);
    sim::ContiguousBuffer fresh;
    EXPECT_THROW(
        fresh.claimZeroed(sim::ContiguousBuffer::kReserveBytes + 1),
        std::bad_alloc);
    EXPECT_EQ(fresh.data(), nullptr);
}

// --------------------------------------------- kept blocks

/** Run @p f on a thread of its own, so it starts with nothing kept. */
template <typename F>
void
onFreshThread(F f)
{
    std::thread(f).join();
}

TEST(KeptBlocks, OutputGrowsInPlaceTrimsAndComesBack)
{
    onFreshThread([] {
        constexpr std::size_t n = 600'000; // 4.8 MB, past kMinBytes
        const void *block = nullptr;
        {
            sim::GrowArray<std::uint64_t> a;
            for (std::size_t i = 0; i < n; ++i) {
                a.push_back(i * 0x9e3779b97f4a7c15ULL);
            }
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(a[i], i * 0x9e3779b97f4a7c15ULL) << i;
            }
            a.shrinkToFit();
            EXPECT_EQ(a.size(), n);
            EXPECT_LE(a.capacity() * 8, n * 8 + 4096);
            EXPECT_EQ(a[n - 1], (n - 1) * 0x9e3779b97f4a7c15ULL);
            block = a.data();
        }
        // The next array to outgrow kMinBytes on this thread gets the
        // kept block back.
        sim::GrowArray<std::uint64_t> b;
        b.resize(n);
        EXPECT_EQ(b.data(), block);
        // Small arrays stay on the global allocator and take nothing.
        sim::GrowArray<std::uint8_t> small = {1, 2, 3};
        EXPECT_NE(static_cast<const void *>(small.data()), block);
        EXPECT_EQ(small, (std::vector<std::uint8_t>{1, 2, 3}));
    });
}

TEST(KeptBlocks, ReusedTableBlocksReadZero)
{
    onFreshThread([] {
        constexpr std::size_t bytes = std::size_t{3} << 20;
        void *first = nullptr;
        {
            sim::ZeroedBlock t(bytes);
            first = t.get();
            std::memset(t.get(), 0xff, bytes);
        }
        // A smaller table takes the same block, cleared for its size.
        sim::ZeroedBlock t(bytes / 2);
        EXPECT_EQ(t.get(), first);
        const auto *p = static_cast<const std::uint8_t *>(t.get());
        EXPECT_TRUE(std::all_of(p, p + bytes / 2,
                                [](std::uint8_t b) { return b == 0; }));
    });
}

TEST(KeptBlocks, RingKeepsFifoOrderAcrossWrappedGrowth)
{
    // Pops between pushes make the ring wrap before each growth, and it
    // grows past kMinBytes into a mapping that grows in place.
    sim::RingQueue<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    std::uint64_t next = 0;
    for (int round = 0; round < 200'000; ++round) {
        for (int k = 0; k < 3; ++k) {
            ring.push_back(next);
            ref.push_back(next++);
        }
        ASSERT_EQ(ring.front(), ref.front()) << round;
        ring.pop_front();
        ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    while (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
    }
}

// --------------------------------------------- object table footprint

TEST(ObjectTableFootprint, SmallestAdjacentObjectsGetDistinctEntries)
{
    // The smallest object is its header alone: 16 B, or 24 B with the
    // Cereal extension word. Packed back to back, every one still has
    // its own entry in a table of one entry per 16 B.
    for (bool ext : {false, true}) {
        KlassRegistry reg(ext);
        const KlassId empty = reg.add("Empty", {});
        Heap heap(reg);
        std::vector<Addr> objs;
        for (int i = 0; i < 1000; ++i) {
            objs.push_back(heap.allocateInstance(empty));
        }
        ASSERT_EQ(objs[1] - objs[0], ext ? 24u : 16u);
        ObjectTable table(heap);
        EXPECT_EQ(table.size(), heap.usedBytes() / 16 + 1);
        for (std::size_t i = 0; i < objs.size(); ++i) {
            table[objs[i]] = ObjectTable::entry(i);
        }
        for (std::size_t i = 0; i < objs.size(); ++i) {
            ASSERT_EQ(table[objs[i]], i + 1) << "ext " << ext << " obj " << i;
        }
    }
}

// ------------------------------------------- zero-alloc event loop

TEST(EventLoop, HotPathAllocatesZeroBytesPerEvent)
{
    // A self-rescheduling chain: the callback fits the inline buffer
    // and the heap vector is pre-reserved, so after setup the loop
    // must never reach the global allocator.
    EventQueue eq;
    eq.reserve(64);
    std::uint64_t remaining = 100000;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        void
        operator()()
        {
            if (--*remaining > 0) {
                eq->scheduleIn(3, Chain{eq, remaining});
            }
        }
    };
    static_assert(sizeof(Chain) <= EventQueue::Callback::kInlineBytes,
                  "chain callback must stay inline");
    eq.scheduleIn(1, Chain{&eq, &remaining});

    const std::uint64_t before = g_allocCount.load();
    eq.runAll();
    const std::uint64_t after = g_allocCount.load();
    EXPECT_EQ(after - before, 0u)
        << "event loop allocated " << (after - before)
        << " times over 100000 events";
    EXPECT_EQ(remaining, 0u);
    EXPECT_EQ(eq.executedCount(), 100000u);
}

// ----------------------------------- allocation-free Cereal hot path

/** operator new calls one Cereal serialization makes, per layer. */
struct CerealAllocs
{
    std::uint64_t objects = 0;
    std::uint64_t functional = 0;
    std::uint64_t device = 0;
};

CerealAllocs
countCerealAllocs(std::uint64_t scale)
{
    KlassRegistry reg;
    workloads::MicroWorkloads micro(reg);
    Heap src(reg);
    const Addr root =
        micro.build(src, workloads::MicroBench::TreeWide, scale, 42);
    CerealSerializer ser;
    ser.registerAll(reg);
    EventQueue eq;
    Dram dram("dram", eq);
    CerealDevice dev(dram);

    CerealAllocs out;
    std::uint64_t before = g_allocCount.load();
    const CerealStream s = ser.serializeToStream(src, root);
    out.functional = g_allocCount.load() - before;
    out.objects = s.objectCount;

    before = g_allocCount.load();
    dev.serialize(src, root, 0);
    out.device = g_allocCount.load() - before;
    return out;
}

TEST(CerealHotPath, AllocationsDoNotGrowWithObjectCount)
{
    // 8x the objects: per-object allocation would add hundreds of
    // thousands of calls; buffers that grow by doubling add about
    // log2(8) = 3 each.
    const CerealAllocs small = countCerealAllocs(4096);
    const CerealAllocs large = countCerealAllocs(512);
    ASSERT_GT(large.objects, 7 * small.objects);
    EXPECT_LE(large.functional, small.functional + 24)
        << small.functional << " -> " << large.functional << " for "
        << small.objects << " -> " << large.objects << " objects";
    EXPECT_LE(large.device, small.device + 24)
        << small.device << " -> " << large.device << " for "
        << small.objects << " -> " << large.objects << " objects";
}

TEST(CerealHotPath, PackWritesItsOutputsOnce)
{
    // At scale 64, TreeWide's value array holds 9.1 MiB. Grown by
    // doubling it would sit in 16 MiB of capacity, and every smaller
    // power of two would have been requested and copied on the way.
    KlassRegistry reg;
    workloads::MicroWorkloads micro(reg);
    Heap src(reg);
    const Addr root =
        micro.build(src, workloads::MicroBench::TreeWide, 64, 42);
    CerealSerializer ser;
    ser.registerAll(reg);

    const std::uint64_t before = g_allocBytes.load();
    const CerealStream s = ser.serializeToStream(src, root);
    const std::uint64_t requested = g_allocBytes.load() - before;

    auto check = [](const char *name, const auto &a) {
        EXPECT_LE(a.capacity() * 4, a.size() * 5)
            << name << ": " << a.size() << " entries in a capacity of "
            << a.capacity();
    };
    check("value array", s.valueArray);
    check("reference buckets", s.refBuckets);
    check("reference end map", s.refEndMap);
    check("bitmap buckets", s.bitmapBuckets);
    check("bitmap end map", s.bitmapEndMap);
    EXPECT_LE(requested * 4, s.serializedBytes() * 5)
        << requested << " B requested for a " << s.serializedBytes()
        << " B stream";
}

// ------------------------------ in-place reference resolution

TEST(DecodeHotPath, NoSideTablePerReference)
{
    // TreeWide: 8 reference slots per object. A decoder that buffers a
    // 16 B fix-up entry per reference requests at least 128 B per
    // object, and more as its vector doubles. Resolving in place leaves the
    // destination heap's object list (8 B per object, grown by
    // doubling: at most 32 B per object requested) plus per-class and
    // per-call state; the arena itself comes from calloc.
    constexpr std::uint64_t kMaxBytesPerObject = 40;
    KlassRegistry reg;
    workloads::MicroWorkloads micro(reg);
    Heap src(reg);
    const Addr root =
        micro.build(src, workloads::MicroBench::TreeWide, 512, 42);

    auto check = [&](const char *name, const auto &decode) {
        Heap dst(reg, 0x9'0000'0000ULL);
        const std::uint64_t before = g_allocBytes.load();
        const Addr out = decode(dst);
        const std::uint64_t bytes = g_allocBytes.load() - before;
        ASSERT_TRUE(graphEquals(src, root, dst, out)) << name;
        EXPECT_LE(bytes, kMaxBytesPerObject * dst.objectCount())
            << name << ": " << bytes << " B requested for "
            << dst.objectCount() << " objects";
    };

    for (const char *name : {"java", "kryo", "plaincode"}) {
        auto ser = serde::makeSerializer(name, &reg);
        const std::vector<std::uint8_t> stream = ser->serialize(src, root);
        check(name, [&](Heap &dst) { return ser->deserialize(stream, dst); });
    }
    CerealSerializer cereal;
    cereal.registerAll(reg);
    const CerealStream s = cereal.serializeToStream(src, root);
    check("cereal", [&](Heap &dst) {
        return cereal.deserializeStream(s, dst);
    });
}

/** Bytes one DU deserialization requests, and its output blocks. */
std::pair<std::uint64_t, std::uint64_t>
duAllocBytes(std::uint64_t scale)
{
    KlassRegistry reg;
    workloads::MicroWorkloads micro(reg);
    Heap src(reg);
    const Addr root =
        micro.build(src, workloads::MicroBench::TreeWide, scale, 42);
    CerealSerializer ser;
    ser.registerAll(reg);
    const CerealStream s = ser.serializeToStream(src, root);
    EventQueue eq;
    Dram dram("dram", eq);
    CerealDevice dev(dram);
    const std::uint64_t before = g_allocBytes.load();
    dev.deserialize(s, 0x9'0000'0000ULL, 0);
    return {g_allocBytes.load() - before, (s.totalGraphBytes + 63) / 64};
}

TEST(DecodeHotPath, DuKeepsNoPlanPerOutputBlock)
{
    // The DU's timing walks TreeWide one 64 B output block at a time. A
    // plan stored for every block requests 24 B per block, more as its
    // vector grows; planned on demand, what is left is per call (the
    // bitmap word buffer, the prefetchers' rings of in-flight chunks,
    // the MAI's bounded tables), so 8x the blocks request no more.
    const auto [small_bytes, small_blocks] = duAllocBytes(4096);
    const auto [large_bytes, large_blocks] = duAllocBytes(512);
    ASSERT_GT(large_blocks, 7 * small_blocks);
    EXPECT_LE(large_bytes, small_bytes + 1024)
        << small_bytes << " -> " << large_bytes << " B for "
        << small_blocks << " -> " << large_blocks << " output blocks";
    EXPECT_LT(large_bytes, large_blocks)
        << large_bytes << " B for " << large_blocks << " output blocks";
}

// --------------------------------------------- DRAM batched ticking

/** Drive @p mem over [addr, addr+bytes) one burst at a time. */
Tick
perBurstRange(Dram &mem, const DramConfig &cfg, Addr addr, Addr bytes,
              bool write, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    Tick done = issue;
    Addr first = addr / cfg.burstBytes * cfg.burstBytes;
    Addr last = (addr + bytes - 1) / cfg.burstBytes * cfg.burstBytes;
    for (Addr a = first; a <= last; a += cfg.burstBytes) {
        done = std::max(done, mem.access(a, write, issue).completeTick);
    }
    return done;
}

TEST(DramBatch, AccessRangeMatchesPerBurstLoopExactly)
{
    // Two identically configured instances, one driven through the
    // batched accessRange fast path and one through the per-burst
    // access() loop. Completion ticks, every counter, the
    // double-accumulated latency sum, and the bank/bus state (probed
    // via a follow-up access) must be bit-identical.
    DramConfig cfg;
    EventQueue eqa, eqb;
    Dram a("a", eqa, cfg);
    Dram b("b", eqb, cfg);

    struct Op
    {
        Addr addr;
        Addr bytes;
        bool write;
    };
    // Sequential stream, row-crossing span, unaligned slice, write
    // traffic revisiting rows, and a zero-length no-op.
    const std::vector<Op> ops = {
        {0, 1 << 16, false},           {1 << 16, 3 * 8192, false},
        {12345, 1000, false},          {0, 1 << 15, true},
        {40 * 8192 + 7, 8192, true},   {123, 0, false},
        {5 << 20, 64, false},
    };

    Tick ta = 0, tb = 0;
    for (const Op &op : ops) {
        ta = a.accessRange(op.addr, op.bytes, op.write, ta);
        tb = perBurstRange(b, cfg, op.addr, op.bytes, op.write, tb);
        ASSERT_EQ(ta, tb);
        ASSERT_EQ(a.accesses(), b.accesses());
        ASSERT_EQ(a.rowHits(), b.rowHits());
        ASSERT_EQ(a.bytesRead(), b.bytesRead());
        ASSERT_EQ(a.bytesWritten(), b.bytesWritten());
        // Exact double equality: the fast path must accumulate the
        // latency sum in the same order as the per-burst loop.
        ASSERT_EQ(a.avgLatencyNs(), b.avgLatencyNs());
    }

    // Registered stats match too.
    for (const char *name : {"reads", "writes", "rowHits", "rowMisses"}) {
        const auto *ea = a.stats().find(name);
        const auto *eb = b.stats().find(name);
        ASSERT_NE(ea, nullptr);
        ASSERT_NE(eb, nullptr);
        EXPECT_EQ(static_cast<const stats::Scalar *>(ea->stat)->value(),
                  static_cast<const stats::Scalar *>(eb->stat)->value())
            << name;
    }

    // Bank and bus state: the next access must see identical timing.
    auto ra = a.access(4096, false, ta + 100);
    auto rb = b.access(4096, false, tb + 100);
    EXPECT_EQ(ra.completeTick, rb.completeTick);
    EXPECT_EQ(ra.rowHit, rb.rowHit);
}

// ------------------------------------------------- observer effect

class ObserverEffectTest : public ::testing::Test
{
  protected:
    ObserverEffectTest() : micro(reg), src(reg)
    {
        Rng rng(11);
        root = micro.buildTree(src, 2, 1023, rng);
    }

    KlassRegistry reg;
    workloads::MicroWorkloads micro;
    Heap src;
    Addr root;
};

/** Every SdMeasurement field, compared bit-exactly. */
void
expectSameMeasurement(const workloads::SdMeasurement &c,
                      const workloads::SdMeasurement &f)
{
    EXPECT_EQ(c.serializer, f.serializer);
    EXPECT_EQ(c.serSeconds, f.serSeconds);
    EXPECT_EQ(c.deserSeconds, f.deserSeconds);
    EXPECT_EQ(c.serBandwidth, f.serBandwidth);
    EXPECT_EQ(c.deserBandwidth, f.deserBandwidth);
    EXPECT_EQ(c.serIpc, f.serIpc);
    EXPECT_EQ(c.deserIpc, f.deserIpc);
    EXPECT_EQ(c.serLlcMissRate, f.serLlcMissRate);
    EXPECT_EQ(c.deserLlcMissRate, f.deserLlcMissRate);
    EXPECT_EQ(c.streamBytes, f.streamBytes);
    EXPECT_EQ(c.objects, f.objects);
    EXPECT_EQ(c.serEnergyJ, f.serEnergyJ);
    EXPECT_EQ(c.deserEnergyJ, f.deserEnergyJ);
}

TEST_F(ObserverEffectTest, SoftwareMeasurementIgnoresSinks)
{
    JavaSerializer java;
    expectSameMeasurement(
        workloads::measureSoftware(java, src, root),
        observed([&] { return workloads::measureSoftware(java, src, root); }));
}

TEST_F(ObserverEffectTest, CerealMeasurementIgnoresSinks)
{
    expectSameMeasurement(
        workloads::measureCereal(src, root),
        observed([&] { return workloads::measureCereal(src, root); }));
}

void
expectSameLatency(const LatencySummary &c, const LatencySummary &f)
{
    EXPECT_EQ(c.count, f.count);
    EXPECT_EQ(c.mean, f.mean);
    EXPECT_EQ(c.min, f.min);
    EXPECT_EQ(c.max, f.max);
    EXPECT_EQ(c.p50, f.p50);
    EXPECT_EQ(c.p95, f.p95);
    EXPECT_EQ(c.p99, f.p99);
    EXPECT_EQ(c.p999, f.p999);
}

ClusterConfig
clusterConfig(Backend backend = Backend::Java)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.backend = backend;
    cfg.scale = 256;
    return cfg;
}

// ClusterModeDiff compares an unobserved run with an observed one. The
// observed run builds its ClusterSim under the sinks too, so the node
// profile is measured while observed rather than served from the
// unobserved run's cache entry.

TEST(ClusterModeDiff, ShuffleIsModeInvariant)
{
    for (Backend b : {Backend::Java, Backend::Cereal}) {
        const auto c = ClusterSim(clusterConfig(b)).runShuffle();
        const auto f = observed(
            [&] { return ClusterSim(clusterConfig(b)).runShuffle(); });
        EXPECT_EQ(c.completionSeconds, f.completionSeconds);
        EXPECT_EQ(c.frames, f.frames);
        EXPECT_EQ(c.wireBytes, f.wireBytes);
        EXPECT_EQ(c.batches, f.batches);
        EXPECT_EQ(c.throughputMBps, f.throughputMBps);
        expectSameLatency(c.latency, f.latency);
    }
}

TEST(ClusterModeDiff, ServingIsModeInvariant)
{
    // The open loop: no admission control, no credit flow control.
    ServingConfig open;
    open.utilization = 0.7;
    open.requestsPerNode = 64;
    open.admission.policy = AdmissionPolicy::None;
    open.flow.enabled = false;
    const auto c = runServingFrontend(ClusterSim(clusterConfig()), open);
    const auto f = observed([&] {
        return runServingFrontend(ClusterSim(clusterConfig()), open);
    });
    EXPECT_EQ(c.offeredRps, f.offeredRps);
    EXPECT_EQ(c.goodputRps, f.goodputRps);
    EXPECT_EQ(c.requests, f.requests);
    EXPECT_EQ(c.completed, f.completed);
    EXPECT_EQ(c.durationSeconds, f.durationSeconds);
    expectSameLatency(c.latency, f.latency);
}

} // namespace
} // namespace cereal
