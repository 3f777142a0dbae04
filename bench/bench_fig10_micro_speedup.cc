/**
 * @file
 * Reproduces the microbenchmark figures from one measurement of the six
 * Table II shapes through Java S/D, Kryo, Cereal-Vanilla and Cereal:
 *
 *  - Figure 10: S/D speedups over Java S/D for Kryo, Cereal-Vanilla (no
 *    fine-grained parallelism) and Cereal. Paper: Kryo 2.30x (ser) /
 *    52.3x (deser); Cereal 26.5x (ser) / 364.5x (deser); the gap
 *    between Cereal Vanilla and Cereal shows how much of the win is
 *    the fine-grained (object/block-level) parallelism.
 *  - Figure 3: CPU-side S/D process analysis — IPC, LLC miss rate,
 *    DRAM bandwidth utilisation and Kryo speedup. Paper: average IPC
 *    ~1.01 (Java) and 0.96 (Kryo), high LLC miss rates, and <5%
 *    bandwidth for both — the structural CPU limits motivating the
 *    accelerator.
 *  - Figure 11: DRAM bandwidth utilisation of Java S/D, Kryo and
 *    Cereal per direction. Paper: ser Java 2.71%, Kryo 4.12%, Cereal
 *    20.9% average (up to 74.5%); deser 3.48% / 4.50% / 31.1% (up to
 *    83.3%).
 *  - Table IV: serialized sizes of Java S/D, Kryo and Cereal, in MB at
 *    this run's scale. Paper (MB, paper-size graphs): Cereal sits
 *    between Java and Kryo on value-dominated shapes (Tree, List) and
 *    wins on the reference-dominated Graphs thanks to object packing.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.hh"
#include "serde/java_serde.hh"
#include "serde/kryo_serde.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

using namespace cereal;
using namespace cereal::workloads;

namespace {

struct Row
{
    // Figure 10: speedups over Java S/D.
    double ks, kd, vs, vd, cs, cd;
    // Figure 3: the S/D process, weighted over both directions.
    double ipcJ, ipcK, llcJ, llcK, bwJ, bwK, spd;
    // Figure 11: bandwidth utilisation per direction.
    double sj, sk, sc, dj, dk, dc;
    // Table IV: serialized stream bytes, and Cereal's over Java's.
    std::uint64_t bj, bk, bc;
    double cj;
};

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::Options::parse(argc, argv, 64, "fig10_micro_speedup");
    bench::banner(
        "Figure 10: microbenchmark S/D speedup over Java S/D (log scale)",
        "Kryo 2.30x/52.3x, Cereal 26.5x/364.5x (ser/deser averages)");

    const auto &benches = allMicroBenches();
    std::vector<Row> rows(benches.size());
    runner::SweepRunner sweep("fig10_micro_speedup");

    for (std::size_t i = 0; i < benches.size(); ++i) {
        const MicroBench mb = benches[i];
        const std::uint64_t scale = opts.scale;
        sweep.add(microBenchName(mb), [&rows, i, mb,
                                       scale](json::Writer &w) {
            KlassRegistry reg;
            MicroWorkloads micro(reg);
            Heap src(reg, 0x1'0000'0000ULL);
            Addr root = micro.build(src, mb, scale, 42);

            JavaSerializer java;
            KryoSerializer kryo;
            kryo.registerAll(reg);
            auto mj = measureSoftware(java, src, root);
            auto mk = measureSoftware(kryo, src, root);

            AccelConfig vanilla;
            vanilla.pipelined = false;
            auto mv = measureCereal(src, root, vanilla);
            auto mc = measureCereal(src, root);

            // Figure 3 reports the S/D process as a whole: each
            // direction's rate weighted by its time.
            using M = SdMeasurement;
            auto both = [](const M &m, double M::*ser, double M::*de) {
                return (m.*ser * m.serSeconds + m.*de * m.deserSeconds) /
                       (m.serSeconds + m.deserSeconds);
            };
            rows[i] = {mj.serSeconds / mk.serSeconds,
                       mj.deserSeconds / mk.deserSeconds,
                       mj.serSeconds / mv.serSeconds,
                       mj.deserSeconds / mv.deserSeconds,
                       mj.serSeconds / mc.serSeconds,
                       mj.deserSeconds / mc.deserSeconds,
                       both(mj, &M::serIpc, &M::deserIpc),
                       both(mk, &M::serIpc, &M::deserIpc),
                       both(mj, &M::serLlcMissRate, &M::deserLlcMissRate),
                       both(mk, &M::serLlcMissRate, &M::deserLlcMissRate),
                       both(mj, &M::serBandwidth, &M::deserBandwidth),
                       both(mk, &M::serBandwidth, &M::deserBandwidth),
                       (mj.serSeconds + mj.deserSeconds) /
                           (mk.serSeconds + mk.deserSeconds),
                       mj.serBandwidth,
                       mk.serBandwidth,
                       mc.serBandwidth,
                       mj.deserBandwidth,
                       mk.deserBandwidth,
                       mc.deserBandwidth,
                       mj.streamBytes,
                       mk.streamBytes,
                       mc.streamBytes,
                       static_cast<double>(mc.streamBytes) /
                           static_cast<double>(mj.streamBytes)};

            const Row &r = rows[i];
            mj.writeJson(w, "java");
            mk.writeJson(w, "kryo");
            mv.writeJson(w, "cereal_vanilla");
            mc.writeJson(w, "cereal");
            w.kv("kryo_ser_speedup", r.ks);
            w.kv("kryo_deser_speedup", r.kd);
            w.kv("vanilla_ser_speedup", r.vs);
            w.kv("vanilla_deser_speedup", r.vd);
            w.kv("cereal_ser_speedup", r.cs);
            w.kv("cereal_deser_speedup", r.cd);
            w.kv("ipc_java", r.ipcJ);
            w.kv("ipc_kryo", r.ipcK);
            w.kv("llc_miss_rate_java", r.llcJ);
            w.kv("llc_miss_rate_kryo", r.llcK);
            w.kv("bandwidth_java", r.bwJ);
            w.kv("bandwidth_kryo", r.bwK);
            w.kv("kryo_speedup", r.spd);
            w.kv("cereal_over_java_ratio", r.cj);
        });
    }

    auto sum_of = [&rows](double Row::*m) {
        double s = 0;
        for (const auto &r : rows) {
            s += r.*m;
        }
        return s;
    };
    const double n = static_cast<double>(rows.size());
    auto avg_of = [&](double Row::*m) { return sum_of(m) / n; };
    // Figure 11 reports percentages as 100 * sum / n; scaling the sum,
    // not the average, is what its recorded values were computed with.
    auto pct_avg = [&](double Row::*m) { return 100 * sum_of(m) / n; };
    auto pct_max = [&rows](double Row::*m) {
        double v = 0;
        for (const auto &r : rows) {
            v = std::max(v, r.*m);
        }
        return 100 * v;
    };
    sweep.setSummary([&](json::Writer &w) {
        w.kv("kryo_ser_speedup_avg", avg_of(&Row::ks));
        w.kv("kryo_deser_speedup_avg", avg_of(&Row::kd));
        w.kv("vanilla_ser_speedup_avg", avg_of(&Row::vs));
        w.kv("vanilla_deser_speedup_avg", avg_of(&Row::vd));
        w.kv("cereal_ser_speedup_avg", avg_of(&Row::cs));
        w.kv("cereal_deser_speedup_avg", avg_of(&Row::cd));
        w.kv("ipc_java_avg", avg_of(&Row::ipcJ));
        w.kv("ipc_kryo_avg", avg_of(&Row::ipcK));
        w.kv("bandwidth_java_avg", avg_of(&Row::bwJ));
        w.kv("bandwidth_kryo_avg", avg_of(&Row::bwK));
        w.kv("kryo_speedup_avg", avg_of(&Row::spd));
        w.kv("ser_bandwidth_java_avg_pct", pct_avg(&Row::sj));
        w.kv("ser_bandwidth_kryo_avg_pct", pct_avg(&Row::sk));
        w.kv("ser_bandwidth_cereal_avg_pct", pct_avg(&Row::sc));
        w.kv("ser_bandwidth_cereal_max_pct", pct_max(&Row::sc));
        w.kv("deser_bandwidth_java_avg_pct", pct_avg(&Row::dj));
        w.kv("deser_bandwidth_kryo_avg_pct", pct_avg(&Row::dk));
        w.kv("deser_bandwidth_cereal_avg_pct", pct_avg(&Row::dc));
        w.kv("deser_bandwidth_cereal_max_pct", pct_max(&Row::dc));
    });

    bench::runSweep(sweep, opts);

    std::printf("%-13s %10s %10s | %10s %10s | %10s %10s\n", "workload",
                "kryo-ser", "kryo-de", "vanil-ser", "vanil-de",
                "cereal-ser", "cereal-de");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Row &r = rows[i];
        std::printf("%-13s %10.2f %10.2f | %10.2f %10.2f | %10.2f %10.2f\n",
                    microBenchName(benches[i]), r.ks, r.kd, r.vs, r.vd,
                    r.cs, r.cd);
    }
    std::printf("%-13s %10.2f %10.2f | %10.2f %10.2f | %10.2f %10.2f\n",
                "average", avg_of(&Row::ks), avg_of(&Row::kd),
                avg_of(&Row::vs), avg_of(&Row::vd), avg_of(&Row::cs),
                avg_of(&Row::cd));
    std::printf("(paper avgs)  %10s %10s | %10s %10s | %10s %10s\n",
                "2.30", "52.3", "-", "-", "26.5", "364.5");

    std::printf("\n");
    bench::banner("Figure 3: S/D process analysis (Java S/D vs Kryo)",
                  "IPC ~1.0; high LLC miss rate; <5% DRAM bandwidth; "
                  "modest Kryo speedup");
    std::printf("%-13s | %5s %5s | %6s %6s | %6s %6s | %7s\n", "workload",
                "ipcJ", "ipcK", "llcJ", "llcK", "bwJ%", "bwK%",
                "kryoSpd");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Row &r = rows[i];
        std::printf("%-13s | %5.2f %5.2f | %6.2f %6.2f | %6.2f %6.2f | "
                    "%7.2f\n",
                    microBenchName(benches[i]), r.ipcJ, r.ipcK, r.llcJ,
                    r.llcK, r.bwJ * 100, r.bwK * 100, r.spd);
    }
    std::printf("%-13s | %5.2f %5.2f |  (avg) | %6.2f %6.2f |\n",
                "average", avg_of(&Row::ipcJ), avg_of(&Row::ipcK),
                avg_of(&Row::bwJ) * 100, avg_of(&Row::bwK) * 100);
    std::printf("(paper)       |  1.01  0.96 |  high  | "
                "~2.7-3.5 ~4.1-4.5 |\n");

    std::printf("\n");
    bench::banner("Figure 11: DRAM bandwidth utilisation (%) on "
                  "microbenchmarks",
                  "ser avg: Java 2.71 / Kryo 4.12 / Cereal 20.9 (max "
                  "74.5); deser avg: 3.48 / 4.50 / 31.1 (max 83.3)");
    std::printf("%-13s | %7s %7s %7s | %7s %7s %7s\n", "workload",
                "serJ%", "serK%", "serC%", "deJ%", "deK%", "deC%");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Row &r = rows[i];
        std::printf("%-13s | %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f\n",
                    microBenchName(benches[i]), r.sj * 100, r.sk * 100,
                    r.sc * 100, r.dj * 100, r.dk * 100, r.dc * 100);
    }
    std::printf("%-13s | %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f\n",
                "average", pct_avg(&Row::sj), pct_avg(&Row::sk),
                pct_avg(&Row::sc), pct_avg(&Row::dj), pct_avg(&Row::dk),
                pct_avg(&Row::dc));
    std::printf("%-13s | %7s %7s %7.2f | %7s %7s %7.2f\n", "max", "",
                "", pct_max(&Row::sc), "", "", pct_max(&Row::dc));
    std::printf("(paper avg)   |    2.71    4.12   20.90 |    3.48    "
                "4.50   31.10\n");

    std::printf("\n");
    bench::banner("Table IV: serialized sizes across microbenchmarks",
                  "MB java/kryo/cereal on paper-size graphs: tree-narrow "
                  "23.0/12.0/16.1, tree-wide 148.6/48.0/80.0, list-small "
                  "8.0/2.5/16.0, list-large 59.4/10.0/47.8, graph-sparse "
                  "22.1/10.8/2.4, graph-dense 115.5/51.1/2.4");
    std::printf("%-13s | %10s %10s %10s | %8s\n", "workload", "java(MB)",
                "kryo(MB)", "cereal(MB)", "C/J ratio");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Row &r = rows[i];
        std::printf("%-13s | %10.4f %10.4f %10.4f | %8.2f\n",
                    microBenchName(benches[i]), r.bj / 1e6, r.bk / 1e6,
                    r.bc / 1e6, r.cj);
    }
    std::printf("MB columns are measured at this run's scale; the "
                "paper's are at paper-size graphs\n");
    std::printf("scale divisor: %llu (paper-size graphs / %llu)\n",
                (unsigned long long)opts.scale,
                (unsigned long long)opts.scale);
    bench::writeBenchOutputs(sweep, opts);
    return 0;
}
