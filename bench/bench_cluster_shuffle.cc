/**
 * @file
 * Cluster-scale serving comparison of the six serializer backends.
 *
 * Drives the event-driven cluster simulator (src/cluster) through one
 * all-to-all shuffle plus an open-loop serving sweep at three load
 * points per backend (runServingFrontend with no admission control and
 * no flow control, as bench_serving_knee's "open" rows), reporting
 * all-to-all completion time and the latency-throughput curve
 * (p50/p95/p99 sojourn latency vs achieved request rate). The paper's claim transported to cluster scale: the
 * accelerator's S/D speedups must show up as a dominating frontier —
 * at every load point Cereal sustains a higher request rate at lower
 * tail latency than the reflective software serializers the paper
 * measured (java/kryo/skyway): that is `cereal_dominates_frontier`.
 * The post-paper software backends are reported separately: the
 * generated plaincode serializer narrows the gap without closing it
 * (`cereal_dominates_plaincode_*`), while hps's zero-copy receive path
 * spends no decode work at all and is allowed to beat the accelerator
 * on this metric — `cereal_dominates_extended_frontier` records
 * honestly whether Cereal still dominates once hps joins the pool.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/summary.hh"
#include "cluster/cluster.hh"
#include "cluster/serving.hh"

using namespace cereal;
using namespace cereal::cluster;

namespace {

constexpr unsigned kNodes = 4;
constexpr std::uint64_t kRequestsPerNode = 200;

/** Serving load points, percent of the node's measured capacity. */
const std::vector<unsigned> kLoadPct = {40, 70, 95};

struct Row
{
    std::string name;
    Backend backend = Backend::Java;
    bool serving = false;
    unsigned loadPct = 0;

    std::uint64_t streamBytes = 0;
    std::uint64_t frameBytes = 0;
    std::uint64_t objects = 0;
    double capacityRps = 0;
    ShuffleResult shuffle;
    ServingFrontendResult serve;
};

void
writeCommon(json::Writer &w, const Row &r)
{
    w.kv("backend", backendName(r.backend));
    w.kv("mode", r.serving ? "serving" : "shuffle");
    w.kv("nodes", static_cast<std::uint64_t>(kNodes));
    w.kv("stream_bytes", r.streamBytes);
    w.kv("frame_bytes", r.frameBytes);
    w.kv("objects", r.objects);
    w.kv("node_capacity_rps", r.capacityRps);
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::Options::parse(argc, argv, 64, "cluster_shuffle");
    bench::banner(
        "Cluster shuffle + serving: latency-throughput by serializer",
        "Cereal's S/D speedups imply a dominating latency-throughput "
        "frontier at cluster scale");

    // Backend-major rows: [shuffle, serve@40, serve@70, serve@95] x 4.
    const std::size_t per_backend = 1 + kLoadPct.size();
    std::vector<Row> rows(allBackends().size() * per_backend);
    runner::SweepRunner sweep("cluster_shuffle");

    for (std::size_t b = 0; b < allBackends().size(); ++b) {
        const Backend backend = allBackends()[b];
        const std::string bname = backendName(backend);

        auto configFor = [&, backend] {
            ClusterConfig cfg;
            cfg.nodes = kNodes;
            cfg.backend = backend;
            cfg.scale = opts.scale;
            return cfg;
        };

        Row &sh = rows[b * per_backend];
        sh.name = bname + "-shuffle";
        sh.backend = backend;
        sweep.add(sh.name, [&sh, configFor](json::Writer &w) {
            ClusterSim sim(configFor());
            sh.streamBytes = sim.profile().streamBytes;
            sh.frameBytes = sim.frameBytes();
            sh.objects = sim.profile().objects;
            sh.capacityRps = sim.nodeCapacityRps();
            sh.shuffle = sim.runShuffle();
            writeCommon(w, sh);
            w.kv("frames", sh.shuffle.frames);
            w.kv("wire_bytes", sh.shuffle.wireBytes);
            w.kv("batches", sh.shuffle.batches);
            w.kv("completion_seconds", sh.shuffle.completionSeconds);
            w.kv("throughput_mbps", sh.shuffle.throughputMBps);
            sh.shuffle.latency.writeJson(w, "latency");
        });

        for (std::size_t li = 0; li < kLoadPct.size(); ++li) {
            const unsigned pct = kLoadPct[li];
            Row &sv = rows[b * per_backend + 1 + li];
            sv.name = bname + "-serve-u" + std::to_string(pct);
            sv.backend = backend;
            sv.serving = true;
            sv.loadPct = pct;
            sweep.add(sv.name, [&sv, configFor, pct](json::Writer &w) {
                ClusterSim sim(configFor());
                sv.streamBytes = sim.profile().streamBytes;
                sv.frameBytes = sim.frameBytes();
                sv.objects = sim.profile().objects;
                sv.capacityRps = sim.nodeCapacityRps();
                ServingConfig open;
                open.utilization = pct / 100.0;
                open.requestsPerNode = kRequestsPerNode;
                open.admission.policy = AdmissionPolicy::None;
                open.flow.enabled = false;
                sv.serve = runServingFrontend(sim, open);
                writeCommon(w, sv);
                w.kv("utilization_pct",
                     static_cast<std::uint64_t>(pct));
                w.kv("offered_rps", sv.serve.offeredRps);
                w.kv("achieved_rps", sv.serve.goodputRps);
                w.kv("requests", sv.serve.requests);
                w.kv("completed", sv.serve.completed);
                w.kv("duration_seconds", sv.serve.durationSeconds);
                sv.serve.latency.writeJson(w, "latency");
            });
        }
    }

    auto row = [&](Backend b, std::size_t offset) -> const Row & {
        return rows[static_cast<std::size_t>(b) * per_backend + offset];
    };

    bench::setSummary(sweep, [&](bench::Summary &s) {
        const Row &csh = row(Backend::Cereal, 0);
        // `cereal_dominates_frontier` keeps its original meaning —
        // dominance over the paper's reflective software baselines —
        // so the CI gate stays comparable across PRs. The two
        // post-paper backends get their own per-load keys, and the
        // extended-frontier kv reports (without gating) whether the
        // claim survives the zero-copy challenger.
        bool dominates = true;
        bool dominates_ext = true;
        for (Backend b : allBackends()) {
            if (b == Backend::Cereal) {
                continue;
            }
            const std::string n = backendName(b);
            s.kv("cereal_completion_speedup_vs_" + n,
                 row(b, 0).shuffle.completionSeconds /
                     csh.shuffle.completionSeconds);
            for (std::size_t li = 0; li < kLoadPct.size(); ++li) {
                const ServingFrontendResult &sw = row(b, 1 + li).serve;
                const ServingFrontendResult &ce =
                    row(Backend::Cereal, 1 + li).serve;
                const bool dom = ce.goodputRps >= sw.goodputRps &&
                                 ce.latency.p99 <= sw.latency.p99;
                if (b == Backend::Java || b == Backend::Kryo ||
                    b == Backend::Skyway) {
                    dominates = dominates && dom;
                }
                dominates_ext = dominates_ext && dom;
                s.flag("cereal_dominates_" + n + "_u" +
                           std::to_string(kLoadPct[li]),
                       dom);
            }
        }
        s.flag("cereal_dominates_frontier", dominates);
        s.flag("cereal_dominates_extended_frontier", dominates_ext);
    });

    bench::runSweep(sweep, opts);

    std::printf("%-9s | %12s %12s | %12s %12s %12s\n", "backend",
                "cap(rps)", "a2a(ms)", "p99@40(ms)", "p99@70(ms)",
                "p99@95(ms)");
    for (Backend b : allBackends()) {
        std::printf("%-9s | %12.1f %12.3f | %12.3f %12.3f %12.3f\n",
                    backendName(b), row(b, 0).capacityRps,
                    row(b, 0).shuffle.completionSeconds * 1e3,
                    row(b, 1).serve.latency.p99 * 1e3,
                    row(b, 2).serve.latency.p99 * 1e3,
                    row(b, 3).serve.latency.p99 * 1e3);
    }
    std::printf("(cereal must dominate the paper's software frontier "
                "(java/kryo/skyway) at every load point; plaincode/hps "
                "are reported against it without gating)\n");

    bench::writeBenchOutputs(sweep, opts,
                          {{"nodes", kNodes},
                           {"requests_per_node", kRequestsPerNode}});
    return 0;
}
