/**
 * @file
 * Tests for the cluster subsystem: partition-frame codec (round trip,
 * every negative status, all-prefix truncation sweep), fabric timing
 * (zero-load latency, per-flow fairness, incast serialization,
 * batching), the shared transport (header delivery, corrupt-frame
 * panic), and the event-driven cluster simulation (all-to-all
 * completeness, latency percentiles, load response, determinism, and
 * the Cereal-dominance property the bench asserts at full scale).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hh"
#include "cluster/fabric.hh"
#include "cluster/frame.hh"
#include "cluster/node.hh"
#include "cluster/serving.hh"
#include "cluster/transport.hh"

namespace cereal {
namespace {

using cluster::Backend;
using cluster::ClusterConfig;
using cluster::ClusterSim;
using cluster::ServingConfig;
using cluster::runServingFrontend;

Frame
goldenFrame()
{
    Frame f;
    f.format = 1;
    f.flags = kFrameFlagCompressed;
    f.srcNode = 2;
    f.dstNode = 5;
    f.partition = 13;
    f.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42, 0x42, 0x42};
    return f;
}

TEST(FrameCodec, RoundTripIsCanonical)
{
    Frame f = goldenFrame();
    auto bytes = encodeFrame(f);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());

    Frame d = decodeFrame(bytes);
    EXPECT_EQ(d.format, f.format);
    EXPECT_EQ(d.flags, f.flags);
    EXPECT_EQ(d.srcNode, f.srcNode);
    EXPECT_EQ(d.dstNode, f.dstNode);
    EXPECT_EQ(d.partition, f.partition);
    EXPECT_EQ(d.payload, f.payload);

    // Canonical: a decoded frame re-encodes to the exact input bytes
    // (the fuzzer's round-trip oracle relies on this).
    EXPECT_EQ(encodeFrame(d), bytes);
}

TEST(FrameCodec, EmptyPayloadRoundTrips)
{
    Frame f;
    f.format = 3;
    auto bytes = encodeFrame(f);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
    Frame d = decodeFrame(bytes);
    EXPECT_TRUE(d.payload.empty());
    EXPECT_EQ(encodeFrame(d), bytes);
}

DecodeStatus
statusOf(const std::vector<std::uint8_t> &bytes)
{
    auto res = tryDecodeFrame(bytes);
    EXPECT_FALSE(res.ok()) << "frame unexpectedly decoded";
    return res.ok() ? DecodeStatus::Malformed : res.error().status();
}

TEST(FrameCodec, EveryBackendFormatIdRoundTrips)
{
    // The codec must carry every registered backend — including the
    // post-paper plaincode (4) and hps (5) ids — and reject the first
    // unassigned id end-to-end.
    for (std::uint8_t id = 0; id < kFrameFormatCount; ++id) {
        Frame f = goldenFrame();
        f.format = id;
        auto res = tryDecodeFrame(encodeFrame(f));
        ASSERT_TRUE(res.ok()) << "format id " << unsigned(id);
        EXPECT_EQ(res.value().format, id);
    }
    Frame bad = goldenFrame();
    bad.format = kFrameFormatCount; // 6: one past the last backend
    auto bytes = encodeFrame(bad);
    auto res = tryDecodeFrame(bytes);
    ASSERT_FALSE(res.ok()) << "unassigned format id decoded";
    EXPECT_EQ(res.error().status(), DecodeStatus::BadClass);
}

TEST(FrameCodec, EveryNegativeStatusIsReachable)
{
    const auto golden = encodeFrame(goldenFrame());

    auto corrupt = [&](std::size_t at, std::uint8_t v) {
        auto b = golden;
        b[at] = v;
        return b;
    };

    // Magic byte wrong.
    EXPECT_EQ(statusOf(corrupt(0, 'X')), DecodeStatus::BadMagic);
    // Unsupported version.
    EXPECT_EQ(statusOf(corrupt(4, 2)), DecodeStatus::BadTag);
    // Unknown serializer format id.
    EXPECT_EQ(statusOf(corrupt(5, 9)), DecodeStatus::BadClass);
    // Reserved flag bit set (high byte of the u16 at offset 6).
    EXPECT_EQ(statusOf(corrupt(7, 0x80)), DecodeStatus::Malformed);
    // Payload byte flipped -> checksum mismatch.
    EXPECT_EQ(statusOf(corrupt(kFrameHeaderBytes, 0x00)),
              DecodeStatus::Malformed);

    // Payload shorter than declared.
    auto short_payload = golden;
    short_payload.pop_back();
    EXPECT_EQ(statusOf(short_payload), DecodeStatus::Truncated);

    // Trailing bytes after the declared payload.
    auto trailing = golden;
    trailing.push_back(0);
    EXPECT_EQ(statusOf(trailing), DecodeStatus::BadLength);

    // Declared length overflows the buffer massively (wrap-safety).
    auto huge = golden;
    for (std::size_t i = 20; i < 28; ++i) {
        huge[i] = 0xff; // payloadLen = 2^64-1
    }
    EXPECT_EQ(statusOf(huge), DecodeStatus::Truncated);
}

TEST(FrameCodec, EveryProperPrefixFailsCleanly)
{
    const auto golden = encodeFrame(goldenFrame());
    for (std::size_t n = 0; n < golden.size(); ++n) {
        std::vector<std::uint8_t> prefix(golden.begin(),
                                         golden.begin() + n);
        auto res = tryDecodeFrame(prefix);
        ASSERT_FALSE(res.ok()) << "prefix of " << n << " bytes decoded";
        if (n >= kFrameHeaderBytes) {
            // Header intact: the payload is what is missing.
            EXPECT_EQ(res.error().status(), DecodeStatus::Truncated)
                << "prefix " << n;
        }
    }
}

TEST(FrameCodec, FormatNamesMatchBackends)
{
    for (Backend b : cluster::allBackends()) {
        EXPECT_STREQ(frameFormatName(cluster::backendFormatId(b)),
                     cluster::backendName(b));
    }
    EXPECT_STREQ(frameFormatName(kFrameFormatCount), "?");
}

// ---------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------

struct Delivery
{
    Tick when;
    std::uint32_t dst;
    std::size_t bytes;
};

struct FabricHarness
{
    EventQueue eq;
    std::vector<Delivery> deliveries;
    Fabric fabric;

    explicit FabricHarness(unsigned nodes, NetConfig cfg = NetConfig())
        : fabric(eq, nodes, cfg,
                 [this](std::uint32_t dst,
                        std::vector<std::uint8_t> frame) {
                     deliveries.push_back(
                         {eq.now(), dst, frame.size()});
                 })
    {
    }
};

TEST(Fabric, ZeroLoadLatencyMatchesLinkModel)
{
    FabricHarness h(2);
    std::vector<std::uint8_t> frame(1000, 0xab);
    const Tick tx = h.fabric.txTicks(frame.size());
    const Tick prop = h.fabric.propagationTicks();

    h.fabric.send(0, 1, frame);
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 1u);
    // Store-and-forward: egress serialization + propagation + ingress
    // serialization.
    EXPECT_EQ(h.deliveries[0].when, tx + prop + tx);
    EXPECT_EQ(h.deliveries[0].dst, 1u);
    EXPECT_EQ(h.fabric.wireBytes(), frame.size());
}

TEST(Fabric, SameFlowStaysFifo)
{
    NetConfig cfg;
    cfg.batchBytes = 1; // one frame per batch
    FabricHarness h(2, cfg);
    for (int i = 1; i <= 4; ++i) {
        h.fabric.send(0, 1,
                      std::vector<std::uint8_t>(
                          static_cast<std::size_t>(i * 100), 0));
    }
    h.eq.runAll();
    ASSERT_EQ(h.deliveries.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.deliveries[i].bytes, (i + 1) * 100);
        if (i > 0) {
            EXPECT_GE(h.deliveries[i].when, h.deliveries[i - 1].when);
        }
    }
}

TEST(Fabric, RoundRobinSharesEgressAcrossFlows)
{
    NetConfig cfg;
    cfg.batchBytes = 1; // per-frame batches make the RR visible
    FabricHarness h(3, cfg);
    std::vector<std::uint8_t> frame(5000, 0);
    // Three frames to node 1 queued first, then one to node 2; fair
    // sharing must not make node 2 wait for the whole node-1 backlog.
    h.fabric.send(0, 1, frame);
    h.fabric.send(0, 1, frame);
    h.fabric.send(0, 1, frame);
    h.fabric.send(0, 2, frame);
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 4u);
    Tick to2 = 0, last_to1 = 0;
    for (const auto &d : h.deliveries) {
        if (d.dst == 2) {
            to2 = d.when;
        } else {
            last_to1 = std::max(last_to1, d.when);
        }
    }
    EXPECT_LT(to2, last_to1)
        << "flow to node 2 starved behind node 1's backlog";
}

TEST(Fabric, IncastSerializesAtIngress)
{
    FabricHarness h(4);
    std::vector<std::uint8_t> frame(20000, 0);
    const Tick tx = h.fabric.txTicks(frame.size());
    const Tick prop = h.fabric.propagationTicks();
    // Nodes 1..3 converge on node 0 simultaneously.
    for (std::uint32_t src = 1; src < 4; ++src) {
        h.fabric.send(src, 0, frame);
    }
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 3u);
    // All three egress links run in parallel, but node 0's ingress
    // admits one batch at a time: the last delivery pays ~3 ingress
    // serialization times.
    EXPECT_EQ(h.deliveries[0].when, tx + prop + tx);
    EXPECT_EQ(h.deliveries[1].when, tx + prop + 2 * tx);
    EXPECT_EQ(h.deliveries[2].when, tx + prop + 3 * tx);
}

TEST(Fabric, BatchingCoalescesSmallFrames)
{
    NetConfig cfg;
    cfg.batchBytes = 64 * 1024;
    FabricHarness h(2, cfg);
    // 32 x 1 KB to the same flow while the egress is busy with the
    // first frame: the rest coalesce into few batches.
    for (int i = 0; i < 32; ++i) {
        h.fabric.send(0, 1, std::vector<std::uint8_t>(1024, 0));
    }
    h.eq.runAll();
    EXPECT_EQ(h.deliveries.size(), 32u);
    EXPECT_LT(h.fabric.batches(), 8u);
    EXPECT_EQ(h.fabric.wireBytes(), 32u * 1024u);
}

TEST(Fabric, DeterministicAcrossRuns)
{
    auto drive = [] {
        NetConfig cfg;
        cfg.batchBytes = 4096;
        FabricHarness h(4, cfg);
        for (std::uint32_t src = 0; src < 4; ++src) {
            for (std::uint32_t dst = 0; dst < 4; ++dst) {
                if (src == dst) {
                    continue;
                }
                h.fabric.send(
                    src, dst,
                    std::vector<std::uint8_t>(
                        1000 + src * 100 + dst, 0));
            }
        }
        h.eq.runAll();
        std::vector<std::uint64_t> trace;
        for (const auto &d : h.deliveries) {
            trace.push_back(d.when);
            trace.push_back(d.dst);
            trace.push_back(d.bytes);
        }
        return trace;
    };
    EXPECT_EQ(drive(), drive());
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

TEST(Transport, DeliversTheDecodedHeaderAtTheDestination)
{
    EventQueue eq;
    std::vector<std::pair<std::uint32_t, FrameInfo>> got;
    cluster::Transport net(eq, 3, NetConfig(),
                           [&](std::uint32_t dst, const FrameInfo &info) {
                               got.push_back({dst, info});
                           });
    const std::vector<std::uint8_t> payload(100, 0x5a);
    FrameRef f;
    f.format = 2;
    f.dstNode = 2;
    f.partition = 0x12345678;
    f.payload = payload.data();
    f.payloadLen = payload.size();
    net.send(f, 77);
    eq.runAll();

    ASSERT_EQ(got.size(), 1u);
    const FrameInfo &info = got[0].second;
    EXPECT_EQ(got[0].first, 2u);
    EXPECT_EQ(info.format, 2);
    EXPECT_EQ(info.srcNode, 0u);
    EXPECT_EQ(info.partition, 0x12345678u);
    EXPECT_EQ(info.payloadLen, payload.size());
    EXPECT_EQ(info.checksum, 77u); // stored, not recomputed
    EXPECT_EQ(info.payload, nullptr); // the buffer is back in the pool
    EXPECT_EQ(net.fabric().wireBytes(),
              kFrameHeaderBytes + payload.size());
}

TEST(Transport, CorruptFrameIsFatal)
{
    EventQueue eq;
    cluster::Transport net(eq, 2, NetConfig(),
                           [](std::uint32_t, const FrameInfo &) {});
    FrameRef f;
    f.format = kFrameFormatCount; // no such serializer
    f.dstNode = 1;
    net.send(f, 0);
    EXPECT_DEATH(eq.runAll(), "corrupt frame");
}

// ---------------------------------------------------------------------
// Cluster simulation (tiny partitions: scale divisor floors the
// workload builders at their minimum record counts)
// ---------------------------------------------------------------------

ClusterConfig
tinyConfig(Backend b)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.backend = b;
    cfg.scale = 1 << 20;
    return cfg;
}

TEST(ClusterShuffle, AllPartitionsArriveWithOrderedPercentiles)
{
    ClusterSim sim(tinyConfig(Backend::Kryo));
    auto r = sim.runShuffle();

    EXPECT_EQ(r.frames, 12u); // 4 * 3 partitions
    EXPECT_EQ(r.latency.count, r.frames);
    EXPECT_EQ(r.wireBytes, r.frames * sim.frameBytes());
    EXPECT_GT(r.batches, 0u);
    EXPECT_GT(r.completionSeconds, 0.0);
    EXPECT_GT(r.throughputMBps, 0.0);

    EXPECT_LE(r.latency.min, r.latency.p50);
    EXPECT_LE(r.latency.p50, r.latency.p95);
    EXPECT_LE(r.latency.p95, r.latency.p99);
    EXPECT_LE(r.latency.p99, r.latency.max);
    // The last partition to finish defines completion.
    EXPECT_DOUBLE_EQ(r.completionSeconds, r.latency.max);
}

TEST(ClusterShuffle, WorkerQueueingShowsInTheTail)
{
    // Three serialize jobs share one worker: the third partition a
    // node emits waits ~2 service times, so max latency must exceed
    // min by at least one serialize time.
    ClusterSim sim(tinyConfig(Backend::Java));
    auto r = sim.runShuffle();
    EXPECT_GT(r.latency.max - r.latency.min,
              sim.profile().serSeconds * 0.9);
}

TEST(ClusterShuffle, DeterministicAcrossRuns)
{
    ClusterSim a(tinyConfig(Backend::Skyway));
    ClusterSim b(tinyConfig(Backend::Skyway));
    auto ra = a.runShuffle();
    auto rb = b.runShuffle();
    EXPECT_DOUBLE_EQ(ra.completionSeconds, rb.completionSeconds);
    EXPECT_DOUBLE_EQ(ra.latency.p99, rb.latency.p99);
    EXPECT_EQ(ra.wireBytes, rb.wireBytes);
    EXPECT_EQ(ra.batches, rb.batches);

    // And re-running on the same sim instance replays identically.
    auto ra2 = a.runShuffle();
    EXPECT_DOUBLE_EQ(ra.completionSeconds, ra2.completionSeconds);
    EXPECT_DOUBLE_EQ(ra.latency.p95, ra2.latency.p95);
}

/** The open loop: no admission control, no credit flow control. */
ServingConfig
openLoop(double utilization)
{
    ServingConfig cfg;
    cfg.utilization = utilization;
    cfg.requestsPerNode = 100;
    cfg.admission.policy = cluster::AdmissionPolicy::None;
    cfg.flow.enabled = false;
    return cfg;
}

TEST(ClusterServing, CompletesAllRequestsAndTailGrowsWithLoad)
{
    ClusterSim sim(tinyConfig(Backend::Kryo));
    auto low = runServingFrontend(sim, openLoop(0.4));
    auto high = runServingFrontend(sim, openLoop(0.95));

    EXPECT_EQ(low.completed, low.requests);
    EXPECT_EQ(high.completed, high.requests);
    EXPECT_GT(low.offeredRps, 0.0);
    EXPECT_GT(high.offeredRps, low.offeredRps);
    EXPECT_GT(high.goodputRps, low.goodputRps);
    // Open-loop queueing: more load, fatter tail.
    EXPECT_GE(high.latency.p99, low.latency.p99);
    EXPECT_LE(low.latency.p50, low.latency.p99);
}

TEST(ClusterServing, DeterministicAcrossRuns)
{
    ClusterSim a(tinyConfig(Backend::Cereal));
    ClusterSim b(tinyConfig(Backend::Cereal));
    auto ra = runServingFrontend(a, openLoop(0.7));
    auto rb = runServingFrontend(b, openLoop(0.7));
    EXPECT_DOUBLE_EQ(ra.goodputRps, rb.goodputRps);
    EXPECT_DOUBLE_EQ(ra.latency.p99, rb.latency.p99);
    EXPECT_DOUBLE_EQ(ra.durationSeconds, rb.durationSeconds);
}

TEST(ClusterServing, CerealDominatesJavaFrontier)
{
    // The bench asserts this across all backends and load points at
    // full scale; pin the headline pair here at test scale.
    ClusterSim java(tinyConfig(Backend::Java));
    ClusterSim cer(tinyConfig(Backend::Cereal));
    EXPECT_GT(cer.nodeCapacityRps(), java.nodeCapacityRps());

    auto js = runServingFrontend(java, openLoop(0.7));
    auto cs = runServingFrontend(cer, openLoop(0.7));
    EXPECT_GT(cs.goodputRps, js.goodputRps);
    EXPECT_LT(cs.latency.p99, js.latency.p99);

    EXPECT_LT(cer.runShuffle().completionSeconds,
              java.runShuffle().completionSeconds);
}

TEST(ClusterSim, ProfileAndFrameAreConsistent)
{
    ClusterSim sim(tinyConfig(Backend::Kryo));
    const auto &p = sim.profile();
    EXPECT_GT(p.serSeconds, 0.0);
    EXPECT_GT(p.deserSeconds, 0.0);
    EXPECT_GT(p.streamBytes, 0u);
    EXPECT_GT(p.objects, 0u);
    EXPECT_TRUE(p.compressed);
    EXPECT_EQ(sim.frameBytes(), kFrameHeaderBytes + p.payload.size());

    // Cereal ships the packed stream uncompressed.
    ClusterSim csim(tinyConfig(Backend::Cereal));
    EXPECT_FALSE(csim.profile().compressed);
}

} // namespace
} // namespace cereal
