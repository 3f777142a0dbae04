/**
 * @file
 * Tests for the time-series metrics layer: series kinds and sampling
 * semantics, ring-buffer bounding, prefix uniquification, RAII detach,
 * the disabled (no ambient recorder) path, the
 * JSON export, byte-determinism of sweep metrics across thread counts
 * on both the micro and cluster stacks, and the pinned golden JSON of
 * a small Figure-10-style run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "metrics/metrics.hh"
#include "runner/sweep_runner.hh"
#include "serde/registry.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using metrics::Group;
using metrics::MetricsRecorder;
using metrics::ScopedMetrics;
using metrics::Series;

// ------------------------------------------------------- series kinds

TEST(Metrics, GaugeSamplesAtEveryCrossedBoundary)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    double v = 1.0;
    g.gauge("depth", "a depth", [&v](Tick) { return v; });

    g.tick(50); // no boundary crossed yet
    EXPECT_EQ(rec.series()[0].sampleCount(), 0u);

    g.tick(100); // boundary at 100
    v = 7.0;
    g.tick(350); // boundaries at 200, 300
    const auto samples = rec.series()[0].samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].tick, 100u);
    EXPECT_EQ(samples[0].value, 1.0);
    EXPECT_EQ(samples[1].tick, 200u);
    EXPECT_EQ(samples[1].value, 7.0);
    EXPECT_EQ(samples[2].tick, 300u);
}

TEST(Metrics, RateIsScaledDeltaPerIntervalTick)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    double counter = 40.0; // primed at registration
    g.rate("bw", "bytes per tick", [&counter] { return counter; }, 2.0);

    counter = 140.0;
    g.tick(100); // delta 100 over 100 ticks, scale 2 -> 2.0
    counter = 140.0;
    g.tick(200); // flat -> 0
    const auto samples = rec.series()[0].samples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
    EXPECT_DOUBLE_EQ(samples[1].value, 0.0);
}

TEST(Metrics, RatioIsDeltaOverDeltaAndZeroWhenFlat)
{
    MetricsRecorder rec(10);
    Group g(&rec, "comp");
    double hits = 0, total = 0;
    g.ratio("hit_rate", "hits per access", [&hits] { return hits; },
            [&total] { return total; });

    hits = 3;
    total = 4;
    g.tick(10);
    g.tick(20); // both flat -> 0, not NaN
    const auto samples = rec.series()[0].samples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_DOUBLE_EQ(samples[0].value, 0.75);
    EXPECT_DOUBLE_EQ(samples[1].value, 0.0);
}

TEST(Metrics, RingDropsOldestAndCounts)
{
    MetricsRecorder rec(1, 4);
    Group g(&rec, "comp");
    Tick t = 0;
    g.gauge("x", "", [&t](Tick) { return static_cast<double>(t); });
    for (t = 1; t <= 10; ++t) {
        g.tick(t);
    }
    const auto &s = rec.series()[0];
    EXPECT_EQ(s.sampleCount(), 4u);
    EXPECT_EQ(s.dropped(), 6u);
    const auto samples = s.samples();
    EXPECT_EQ(samples.front().tick, 7u); // oldest retained
    EXPECT_EQ(samples.back().tick, 10u);
    EXPECT_EQ(s.last().tick, 10u);
}

TEST(Metrics, JumpPastTheRingMatchesOneBoundaryAtATime)
{
    // Ticks crossing more boundaries than the ring holds must keep the
    // samples and dropped counts of ticking each boundary on its own.
    struct Probe
    {
        MetricsRecorder rec{10, 4};
        Group g{&rec, "comp"};
        double v = 0, sum = 0;
        Probe()
        {
            g.gauge("depth", "", [this](Tick t) { return v + t; });
            g.rate("bw", "", [this] { return 7 * sum; }, 3.0);
            g.ratio("hits", "", [this] { return sum; },
                    [this] { return 2 * sum; });
        }
    };
    auto expect_same = [](const Series &a, const Series &b) {
        EXPECT_EQ(a.dropped(), b.dropped()) << a.name();
        const auto sa = a.samples(), sb = b.samples();
        ASSERT_EQ(sa.size(), sb.size()) << a.name();
        for (std::size_t k = 0; k < sa.size(); ++k) {
            EXPECT_EQ(sa[k].tick, sb[k].tick) << a.name();
            EXPECT_EQ(sa[k].value, sb[k].value) << a.name();
        }
    };
    Probe jump, ref;
    Tick ref_next = 10;
    // Part-fill the ring, cross it by one, by 1000, then step once.
    for (const auto &[v, to] : {std::pair<double, Tick>{1, 25},
                                {2, 75}, {5, 10'075}, {3, 10'085}}) {
        for (Probe *p : {&jump, &ref}) {
            p->v = v;
            p->sum += v;
        }
        jump.g.tick(to);
        for (; ref_next <= to; ref_next += 10) {
            ref.g.tick(ref_next);
        }
        for (std::size_t i = 0; i < 3; ++i) {
            expect_same(jump.rec.series()[i], ref.rec.series()[i]);
        }
    }
    for (const Series &a : jump.rec.series()) {
        EXPECT_EQ(a.dropped(), 1004u) << a.name();
        // Only the single last step leaves a non-zero rate or ratio.
        EXPECT_NE(a.last().value, 0.0) << a.name();
    }
}

TEST(Metrics, BackwardClockProducesNoSamplesUntilHighWaterMark)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("x", "", [](Tick) { return 1.0; });
    g.tick(300); // samples at 100, 200, 300
    g.tick(50);  // a component restarting at ~0: nothing new
    g.tick(250); // still below the next boundary (400)
    EXPECT_EQ(rec.series()[0].sampleCount(), 3u);
    g.tick(400);
    EXPECT_EQ(rec.series()[0].sampleCount(), 4u);
}

// ------------------------------------------- registration and detach

TEST(Metrics, PrefixesAreUniquifiedLikeTraceTracks)
{
    MetricsRecorder rec;
    Group a(&rec, "cpu.core");
    Group b(&rec, "cpu.core");
    Group c(&rec, "cpu.core");
    a.gauge("ipc", "", [](Tick) { return 0.0; });
    b.gauge("ipc", "", [](Tick) { return 0.0; });
    c.gauge("ipc", "", [](Tick) { return 0.0; });
    EXPECT_EQ(rec.series()[0].name(), "cpu.core.ipc");
    EXPECT_EQ(rec.series()[1].name(), "cpu.core#1.ipc");
    EXPECT_EQ(rec.series()[2].name(), "cpu.core#2.ipc");
}

TEST(Metrics, DestroyedGroupStopsSamplingButKeepsSamples)
{
    MetricsRecorder rec(100);
    {
        Group g(&rec, "comp");
        // The closure references a stack local; detach-on-destroy is
        // what makes this registration pattern safe.
        double local = 5.0;
        g.gauge("x", "", [&local](Tick) { return local; });
        g.tick(100);
    }
    ASSERT_EQ(rec.series().size(), 1u);
    EXPECT_EQ(rec.series()[0].sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(rec.series()[0].samples()[0].value, 5.0);
}

TEST(Metrics, DisabledGroupIsANoOp)
{
    ASSERT_EQ(metrics::current(), nullptr);
    Group g(metrics::current(), "comp");
    EXPECT_FALSE(g.enabled());
    g.gauge("x", "", [](Tick) { return 1.0; });
    g.rate("y", "", [] { return 1.0; }, 1.0);
    g.ratio("z", "", [] { return 1.0; }, [] { return 1.0; });
    g.tick(1'000'000'000);
    SUCCEED(); // nothing registered anywhere, nothing crashed
}

TEST(Metrics, ScopedRecorderInstallsAndRestores)
{
    EXPECT_EQ(metrics::current(), nullptr);
    {
        MetricsRecorder rec;
        ScopedMetrics scope(rec);
        EXPECT_EQ(metrics::current(), &rec);
    }
    EXPECT_EQ(metrics::current(), nullptr);
}

// ----------------------------------------------------------- exports

TEST(MetricsExport, JsonFragmentCarriesSeriesColumns)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("x", "a help", [](Tick) { return 2.5; });
    g.tick(100);

    std::ostringstream ss;
    json::Writer w(ss, 0);
    w.beginObject();
    rec.writeJson(w);
    w.endObject();
    ASSERT_TRUE(w.balanced());
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"interval_ticks\":100"), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"comp.x\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\":\"gauge\""), std::string::npos);
    EXPECT_NE(doc.find("\"ticks\":[100]"), std::string::npos);
    EXPECT_NE(doc.find("\"values\":[2.5]"), std::string::npos);
}

// ----------------------------------------- sweep-level determinism

/** Figure-10-style two-point sweep with metrics on. */
runner::SweepRunner
runMicroSweep(unsigned threads)
{
    runner::SweepRunner sweep("metrics_unit");
    for (auto mb : {workloads::MicroBench::TreeNarrow,
                    workloads::MicroBench::ListSmall}) {
        sweep.add(workloads::microBenchName(mb), [mb](json::Writer &w) {
            KlassRegistry reg;
            workloads::MicroWorkloads micro(reg);
            Heap src(reg, 0x1'0000'0000ULL);
            Addr root = micro.build(src, mb, 1 << 15, 42);
            auto ser = serde::makeSerializer("kryo", &reg);
            auto ms = workloads::measureSoftware(*ser, src, root);
            auto mc = workloads::measureCereal(src, root);
            w.kv("sw_ser_s", ms.serSeconds);
            w.kv("accel_ser_s", mc.serSeconds);
        });
    }
    sweep.enableMetrics();
    sweep.run(threads);
    return sweep;
}

TEST(SweepMetrics, MicroMetricsAreByteIdenticalAcrossThreadCounts)
{
    auto serial = runMicroSweep(1);
    auto parallel = runMicroSweep(4);

    std::ostringstream js, jp;
    serial.writeJson(js);
    parallel.writeJson(jp);
    EXPECT_EQ(js.str(), jp.str());

    // The instrumented components all showed up.
    for (const char *needle :
         {"mem.dram.bw_util", "cpu.core.miss_window",
          "cereal.accel.su_busy_frac", "mem.dram.row_hit_rate"}) {
        EXPECT_NE(js.str().find(needle), std::string::npos)
            << "missing series " << needle;
    }
}

/** Small cluster shuffle sweep with metrics on. */
runner::SweepRunner
runClusterSweep(unsigned threads)
{
    runner::SweepRunner sweep("cluster_metrics_unit");
    for (auto backend :
         {cluster::Backend::Kryo, cluster::Backend::Cereal}) {
        sweep.add(cluster::backendName(backend),
                  [backend](json::Writer &w) {
            cluster::ClusterConfig cfg;
            cfg.nodes = 4;
            cfg.backend = backend;
            cfg.scale = 1 << 20;
            cluster::ClusterSim sim(cfg);
            auto r = sim.runShuffle();
            w.kv("completion_s", r.completionSeconds);
        });
    }
    sweep.enableMetrics();
    sweep.run(threads);
    return sweep;
}

TEST(SweepMetrics, ClusterMetricsAreByteIdenticalAcrossThreadCounts)
{
    auto serial = runClusterSweep(1);
    auto parallel = runClusterSweep(4);

    std::ostringstream js, jp;
    serial.writeJson(js);
    parallel.writeJson(jp);
    EXPECT_EQ(js.str(), jp.str());

    for (const char *needle :
         {"cluster.fabric.n0.tx_util", "cluster.n0.queue_len"}) {
        EXPECT_NE(js.str().find(needle), std::string::npos)
            << "missing series " << needle;
    }
}

TEST(SweepMetrics, MetricsOffInstallsNoAmbientRecorder)
{
    runner::SweepRunner sweep("no_metrics");
    bool ran = false;
    sweep.add("pt", [&ran](json::Writer &w) {
        EXPECT_EQ(metrics::current(), nullptr);
        ran = true;
        w.kv("x", 1);
    });
    sweep.run(1);
    EXPECT_TRUE(ran);
}

// ------------------------------------------------------- golden JSON

/**
 * Pinned golden JSON document of a tiny fig10-style run with metrics
 * on: the point's reported seconds plus every sampled series.
 * Regenerate after a deliberate instrumentation/model change with:
 *
 *   CEREAL_UPDATE_GOLDEN=1 ./build/tests/test_metrics \
 *       --gtest_filter='GoldenMetrics.*'
 */
TEST(GoldenMetrics, SmallFig10RunMatchesPinnedJson)
{
    runner::SweepRunner sweep("fig10_small");
    sweep.add("tree-narrow", [](json::Writer &w) {
        KlassRegistry reg;
        workloads::MicroWorkloads micro(reg);
        Heap src(reg, 0x1'0000'0000ULL);
        Addr root = micro.build(src, workloads::MicroBench::TreeNarrow,
                                1 << 16, 42);
        auto java = serde::makeSerializer("java", &reg);
        auto mj = workloads::measureSoftware(*java, src, root);
        auto mc = workloads::measureCereal(src, root);
        w.kv("java_ser_s", mj.serSeconds);
        w.kv("cereal_ser_s", mc.serSeconds);
    });
    sweep.enableMetrics();
    sweep.run(1);
    std::ostringstream ss;
    sweep.writeJson(ss);
    const std::string doc = ss.str();

    const std::string path =
        std::string(CEREAL_GOLDEN_DIR) + "/metrics_fig10_small.json";
    if (std::getenv("CEREAL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << doc;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (generate with CEREAL_UPDATE_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(doc, golden.str())
        << "metrics output drifted from the pinned golden JSON; if the "
           "change is deliberate, regenerate with CEREAL_UPDATE_GOLDEN=1";
}

/**
 * Pinned golden of the log-bucketed histogram export: a fixed latency
 * population snapshotted through recordHistogram() and rendered as the
 * JSON fragment. Regenerate after a deliberate ladder/exporter change
 * with:
 *
 *   CEREAL_UPDATE_GOLDEN=1 ./build/tests/test_metrics \
 *       --gtest_filter='GoldenMetrics.*'
 */
TEST(GoldenMetrics, HistogramExportMatchesPinnedGolden)
{
    stats::Distribution lat;
    // Deterministic spread: 1us..~0.8s across the log ladder.
    for (int i = 0; i < 64; ++i) {
        lat.sample(1e-6 * (1 << (i % 20)));
    }
    MetricsRecorder rec(1000);
    rec.recordHistogram("serving.latency_seconds",
                        "end-to-end request latency, log-bucketed",
                        lat);

    std::ostringstream doc;
    {
        json::Writer w(doc, 2);
        w.beginObject();
        rec.writeJson(w); // emits the "metrics" member
        w.endObject();
    }
    doc << "\n";

    const std::string path =
        std::string(CEREAL_GOLDEN_DIR) + "/metrics_histogram.txt";
    if (std::getenv("CEREAL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << doc.str();
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (generate with CEREAL_UPDATE_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(doc.str(), golden.str())
        << "histogram export drifted from the pinned golden; if the "
           "change is deliberate, regenerate with CEREAL_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace cereal
