#include "cluster/cluster.hh"

#include <cmath>
#include <deque>
#include <unordered_map>
#include <utility>

#include "cluster/frame.hh"
#include "cluster/worker.hh"
#include "metrics/metrics.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

namespace cereal {
namespace cluster {

namespace {

Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(
        std::ceil(s * static_cast<double>(kTicksPerSecond)));
}

} // namespace

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
    // checksum and the receive path verifies against it by equality.
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

ShuffleResult
ClusterSim::runShuffle() const
{
    const unsigned n = cfg_.nodes;
    const NodeProfile &prof = cost_.profile();
    const Tick ser = secondsToTicks(cost_.serializeSeconds());
    const Tick deser = secondsToTicks(cost_.deserializeSeconds());

    EventQueue eq;
    const auto em = trace::current();
    std::vector<Worker> workers(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        workers[i].eq = &eq;
        workers[i].initMetrics(i);
        if (em.enabled()) {
            workers[i].trace =
                em.sub(("node" + std::to_string(i)).c_str());
        }
    }

    stats::Distribution latency;
    latency.reserve(static_cast<std::size_t>(n) * (n - 1));
    std::unordered_map<std::uint32_t, Tick> start;
    Tick last_done = 0;
    sim::BufferPool pool;

    Fabric fabric(eq, n, cfg_.net,
                  [&](std::uint32_t dst, std::vector<std::uint8_t> bytes) {
        auto res = tryDecodeFrameInfo(bytes);
        panic_if(!res.ok(), "fabric delivered a corrupt frame: %s",
                 res.error().what());
        const FrameInfo &info = res.value();
        // Integrity check by equality against the cached payload hash:
        // same corruption coverage as rehashing, at O(1) per frame.
        panic_if(info.checksum != payloadChecksum_ ||
                     info.payloadLen != prof.payload.size(),
                 "fabric delivered a corrupt frame (payload digest"
                 " mismatch on partition %u)", info.partition);
        const std::uint32_t partition = info.partition;
        pool.release(std::move(bytes));
        workers[dst].enqueue(deser, "deser", [&, partition] {
            latency.sample(ticksToSeconds(eq.now() - start.at(partition)));
            last_done = eq.now();
        });
    });
    fabric.setTrace(em.sub("fabric"));

    // t = 0: every node enqueues one serialize job per peer.
    for (std::uint32_t src = 0; src < n; ++src) {
        for (std::uint32_t dst = 0; dst < n; ++dst) {
            if (dst == src) {
                continue;
            }
            const std::uint32_t partition = src * n + dst;
            start[partition] = 0;
            workers[src].enqueue(ser, "ser", [&, src, dst, partition] {
                FrameRef f;
                f.format = backendFormatId(cfg_.backend);
                f.flags =
                    prof.compressed ? kFrameFlagCompressed : 0;
                f.srcNode = src;
                f.dstNode = dst;
                f.partition = partition;
                f.payload = prof.payload.data();
                f.payloadLen = prof.payload.size();
                auto bytes = pool.acquire();
                encodeFrameInto(f, payloadChecksum_, bytes);
                fabric.send(src, dst, std::move(bytes));
            });
        }
    }

    eq.runAll();

    ShuffleResult out;
    out.completionSeconds = ticksToSeconds(last_done);
    out.frames = static_cast<std::uint64_t>(n) * (n - 1);
    out.wireBytes = fabric.wireBytes();
    out.batches = fabric.batches();
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

ServingResult
ClusterSim::runServing(double utilization,
                       std::uint64_t requests_per_node) const
{
    panic_if(utilization <= 0, "serving utilization must be > 0");
    panic_if(requests_per_node == 0 || requests_per_node > 0xffff,
             "requests per node out of range");

    const unsigned n = cfg_.nodes;
    const NodeProfile &prof = cost_.profile();
    const Tick ser = secondsToTicks(cost_.serializeSeconds());
    const Tick deser = secondsToTicks(cost_.deserializeSeconds());
    const double lambda = utilization * nodeCapacityRps();

    EventQueue eq;
    const auto em = trace::current();
    std::vector<Worker> workers(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        workers[i].eq = &eq;
        workers[i].initMetrics(i);
        if (em.enabled()) {
            workers[i].trace =
                em.sub(("node" + std::to_string(i)).c_str());
        }
    }

    stats::Distribution latency;
    std::unordered_map<std::uint32_t, Tick> arrival;
    std::uint64_t completed = 0;
    Tick last_done = 0;
    sim::BufferPool pool;

    Fabric fabric(eq, n, cfg_.net,
                  [&](std::uint32_t dst, std::vector<std::uint8_t> bytes) {
        auto res = tryDecodeFrameInfo(bytes);
        panic_if(!res.ok(), "fabric delivered a corrupt frame: %s",
                 res.error().what());
        const FrameInfo &info = res.value();
        panic_if(info.checksum != payloadChecksum_ ||
                     info.payloadLen != prof.payload.size(),
                 "fabric delivered a corrupt frame (payload digest"
                 " mismatch on request %u)", info.partition);
        const std::uint32_t request = info.partition;
        pool.release(std::move(bytes));
        workers[dst].enqueue(deser, "deser", [&, request] {
            latency.sample(ticksToSeconds(eq.now() - arrival.at(request)));
            ++completed;
            last_done = eq.now();
        });
    });
    fabric.setTrace(em.sub("fabric"));

    latency.reserve(static_cast<std::size_t>(n) * requests_per_node);
    arrival.reserve(static_cast<std::size_t>(n) * requests_per_node);
    eq.reserve(static_cast<std::size_t>(n) * requests_per_node + 16);

    // Open loop: pre-draw every node's Poisson arrival process and the
    // uniform peer destinations from the per-node seeded Rng.
    for (std::uint32_t origin = 0; origin < n; ++origin) {
        Rng rng(cfg_.seed * 0x51ed2701ULL + origin);
        double t = 0;
        for (std::uint64_t k = 0; k < requests_per_node; ++k) {
            t += -std::log(1.0 - rng.uniform()) / lambda;
            std::uint32_t dst =
                static_cast<std::uint32_t>(rng.below(n - 1));
            if (dst >= origin) {
                ++dst; // uniform over the n-1 peers
            }
            const std::uint32_t request =
                origin * 0x10000u + static_cast<std::uint32_t>(k);
            const Tick at = secondsToTicks(t);
            arrival[request] = at;
            eq.schedule(at, [&, origin, dst, request] {
                workers[origin].enqueue(ser, "ser",
                                        [&, origin, dst, request] {
                    FrameRef f;
                    f.format = backendFormatId(cfg_.backend);
                    f.flags = prof.compressed
                        ? kFrameFlagCompressed : 0;
                    f.srcNode = origin;
                    f.dstNode = dst;
                    f.partition = request;
                    f.payload = prof.payload.data();
                    f.payloadLen = prof.payload.size();
                    auto bytes = pool.acquire();
                    encodeFrameInto(f, payloadChecksum_, bytes);
                    fabric.send(origin, dst, std::move(bytes));
                });
            });
        }
    }

    // Functional warm-up: jump straight to the first arrival instead
    // of entering the run through the idle gap before it. Safe under
    // observation too — no pending event is skipped, so every trace
    // span and metrics sample lands on the same tick either way.
    if (!eq.empty()) {
        eq.fastForward(eq.nextEventTick());
    }

    eq.runAll();

    ServingResult out;
    out.offeredRps = lambda * static_cast<double>(n);
    out.requests = static_cast<std::uint64_t>(n) * requests_per_node;
    out.completed = completed;
    out.durationSeconds = ticksToSeconds(last_done);
    out.achievedRps = out.durationSeconds > 0
        ? static_cast<double>(completed) / out.durationSeconds
        : 0;
    out.latency = LatencySummary::of(latency);
    panic_if(out.completed != out.requests,
             "serving lost requests (%llu of %llu finished)",
             (unsigned long long)out.completed,
             (unsigned long long)out.requests);
    return out;
}

} // namespace cluster
} // namespace cereal
