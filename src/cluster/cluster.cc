#include "cluster/cluster.hh"

#include <algorithm>
#include <utility>

#include "cluster/transport.hh"
#include "sim/logging.hh"

namespace cereal {
namespace cluster {

LatencySummary
LatencySummary::of(const stats::Distribution &d)
{
    LatencySummary s;
    s.count = d.count();
    s.mean = d.mean();
    s.min = d.min();
    s.max = d.max();
    s.p50 = d.p50();
    s.p95 = d.p95();
    s.p99 = d.p99();
    s.p999 = d.p999();
    return s;
}

void
LatencySummary::writeJson(json::Writer &w,
                          const std::string &prefix) const
{
    w.kv(prefix + "_count", count);
    w.kv(prefix + "_mean_s", mean);
    w.kv(prefix + "_min_s", min);
    w.kv(prefix + "_max_s", max);
    w.kv(prefix + "_p50_s", p50);
    w.kv(prefix + "_p95_s", p95);
    w.kv(prefix + "_p99_s", p99);
    w.kv(prefix + "_p999_s", p999);
}

ClusterSim::ClusterSim(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    panic_if(cfg_.nodes < 2, "cluster needs at least 2 nodes");
    NodeConfig nc;
    nc.backend = cfg_.backend;
    nc.app = cfg_.app;
    nc.scale = cfg_.scale;
    nc.seed = cfg_.seed;
    cost_ = BackendCostModel::measure(nc);

    // Hash the payload once; every frame this cluster sends carries the
    // same profiled partition, so the send path stamps this cached
    // checksum into each header and the receive path compares the
    // header's copy with it.
    const NodeProfile &prof = cost_.profile();
    payloadChecksum_ = fnv1a64(prof.payload.data(), prof.payload.size());
    frameBytes_ = kFrameHeaderBytes + prof.payload.size();
}

double
ClusterSim::nodeCapacityRps() const
{
    // Worker budget: as origin the node pays the serialize cost per
    // request; with uniform destinations it receives one partition per
    // sent one in expectation, paying the deserialize cost. Each link
    // (egress and ingress) carries one frame per request.
    const double worker =
        cost_.serializeSeconds() + cost_.deserializeSeconds();
    const double wire = static_cast<double>(frameBytes_) * 8.0 /
                        (cfg_.net.bandwidthGbps * 1e9);
    const double bottleneck = std::max(worker, wire);
    panic_if(bottleneck <= 0, "degenerate node profile");
    return 1.0 / bottleneck;
}

FrameRef
ClusterSim::frame(std::uint32_t src, std::uint32_t dst,
                  std::uint32_t partition) const
{
    const NodeProfile &prof = cost_.profile();
    FrameRef f;
    f.format = backendFormatId(cfg_.backend);
    f.flags = prof.compressed ? kFrameFlagCompressed : 0;
    f.srcNode = src;
    f.dstNode = dst;
    f.partition = partition;
    f.payload = prof.payload.data();
    f.payloadLen = prof.payload.size();
    return f;
}

void
ClusterSim::checkPayloadDigest(const FrameInfo &info) const
{
    panic_if(info.checksum != payloadChecksum_ ||
                 info.payloadLen != cost_.profile().payload.size(),
             "fabric delivered a corrupt frame (payload digest"
             " mismatch on partition %u)", info.partition);
}

ShuffleResult
ClusterSim::runShuffle() const
{
    const unsigned n = cfg_.nodes;
    const Tick ser = secondsToTicks(cost_.serializeSeconds());
    const Tick deser = secondsToTicks(cost_.deserializeSeconds());

    EventQueue eq;
    stats::Distribution latency;
    latency.reserve(static_cast<std::size_t>(n) * (n - 1));
    Tick last_done = 0;

    // Every partition is enqueued at t = 0, so its latency is the tick
    // its deserialize finishes.
    Transport net(eq, n, cfg_.net,
                  [&](std::uint32_t dst, const FrameInfo &info) {
        checkPayloadDigest(info);
        net.worker(dst).enqueue(deser, "deser", [&] {
            latency.sample(ticksToSeconds(eq.now()));
            last_done = eq.now();
        });
    });

    // t = 0: every node enqueues one serialize job per peer.
    for (std::uint32_t src = 0; src < n; ++src) {
        for (std::uint32_t dst = 0; dst < n; ++dst) {
            if (dst == src) {
                continue;
            }
            const std::uint32_t partition = src * n + dst;
            net.worker(src).enqueue(ser, "ser", [&, src, dst, partition] {
                net.send(frame(src, dst, partition), payloadChecksum_);
            });
        }
    }

    eq.runAll();

    ShuffleResult out;
    out.completionSeconds = ticksToSeconds(last_done);
    out.frames = static_cast<std::uint64_t>(n) * (n - 1);
    out.wireBytes = net.fabric().wireBytes();
    out.batches = net.fabric().batches();
    out.throughputMBps = out.completionSeconds > 0
        ? static_cast<double>(out.wireBytes) /
              out.completionSeconds / 1e6
        : 0;
    out.latency = LatencySummary::of(latency);
    panic_if(out.latency.count != out.frames,
             "shuffle lost partitions (%llu of %llu finished)",
             (unsigned long long)out.latency.count,
             (unsigned long long)out.frames);
    return out;
}

} // namespace cluster
} // namespace cereal
