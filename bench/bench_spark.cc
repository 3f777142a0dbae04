/**
 * @file
 * Reproduces the Spark-application figures from one measurement:
 * Figure 2 (runtime breakdown), Figure 13 (S/D speedups), Figure 14
 * (whole-program speedups), Figure 15 (DRAM bandwidth utilisation),
 * Figure 16 (object-packing compression) and Figure 17 (S/D energy).
 *
 * Each app's representative shuffle batch runs once through Java S/D,
 * Kryo and Cereal, plus the shuffle stage; Spark-level S/D time is
 * codec + shuffle stage. Every app is measured in a fully isolated
 * simulation context (its own klass registry, workload builder, heap,
 * shuffle stage and per-measurement DDR4/core instances), so the six
 * apps are independent sweep points for the parallel runner. Each
 * figure is a view of the six rows: it prints its table and paper
 * line and adds its keys to the one summary object.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/summary.hh"
#include "cereal/area_power.hh"
#include "cereal/cereal_serializer.hh"
#include "serde/java_serde.hh"
#include "serde/kryo_serde.hh"
#include "shuffle/shuffle.hh"
#include "sim/logging.hh"
#include "workloads/harness.hh"
#include "workloads/spark.hh"

using namespace cereal;
using namespace cereal::workloads;

namespace {

/** Everything the Spark figures need for one application. */
struct SparkRow
{
    SparkAppSpec spec;
    SdMeasurement java;
    SdMeasurement kryo;
    SdMeasurement cereal;
    /** Measured shuffle-stage times (write+read), per serializer. */
    double javaShuffle = 0;
    double kryoShuffle = 0;
    double cerealShuffle = 0;
    /**
     * Figure 16: Cereal bytes unpacked and stripped, and the % of the
     * unpacked bytes that packing, then stripping, cut.
     */
    std::uint64_t unpackedBytes = 0;
    std::uint64_t strippedBytes = 0;
    double packingPct = 0;
    double stripPct = 0;

    /** Spark-level S/D seconds: codec + measured shuffle stage. */
    double
    javaSd() const
    {
        return java.serSeconds + java.deserSeconds + javaShuffle;
    }
    double
    kryoSd() const
    {
        return kryo.serSeconds + kryo.deserSeconds + kryoShuffle;
    }
    double
    cerealSd() const
    {
        return cereal.serSeconds + cereal.deserSeconds + cerealShuffle;
    }

    double kryoSdSpeedup() const { return javaSd() / kryoSd(); }
    double cerealSdSpeedup() const { return javaSd() / cerealSd(); }
    double cerealOverKryo() const { return kryoSd() / cerealSd(); }
};

using Rows = std::vector<SparkRow>;

/** Measure one application in its own simulation context. */
SparkRow
measureSparkApp(const SparkAppSpec &spec, std::uint64_t scale)
{
    KlassRegistry reg;
    SparkWorkloads spark(reg);
    ShuffleStage shuffle;
    Heap src(reg, 0x1'0000'0000ULL);
    Addr root = spark.build(src, spec.name, scale, 42);

    JavaSerializer java;
    KryoSerializer kryo;
    kryo.registerAll(reg);

    SparkRow row{spec,
                 measureSoftware(java, src, root),
                 measureSoftware(kryo, src, root),
                 measureCereal(src, root),
                 0,
                 0,
                 0};

    // Shuffle stage: software compresses + copies; Cereal's driver
    // hands the packed stream off with a bulk copy.
    auto java_stream = java.serialize(src, root);
    row.javaShuffle = shuffle.softwareWrite(java_stream).seconds +
                      shuffle.softwareRead(java_stream).seconds;
    auto kryo_stream = kryo.serialize(src, root);
    row.kryoShuffle = shuffle.softwareWrite(kryo_stream).seconds +
                      shuffle.softwareRead(kryo_stream).seconds;
    row.cerealShuffle =
        2 * shuffle.cerealHandoff(row.cereal.streamBytes).seconds;

    // Figure 16: two untimed passes size the stream without packing
    // (the plain pass's baseline) and with mark words stripped.
    CerealSerializer plain;
    plain.registerAll(reg);
    CerealSerializer strip(CerealOptions{/*headerStrip=*/true});
    strip.registerAll(reg);
    const auto s = plain.serializeToStream(src, root);
    panic_if(s.serializedBytes() != row.cereal.streamBytes,
             "%s: the plain pass and the measured stream differ",
             spec.name.c_str());
    row.unpackedBytes = s.baselineBytes();
    row.strippedBytes = strip.serializeToStream(src, root).serializedBytes();
    const double unpacked = static_cast<double>(row.unpackedBytes);
    const double packed = static_cast<double>(row.cereal.streamBytes);
    row.packingPct = (unpacked - packed) / unpacked * 100;
    row.stripPct =
        (packed - static_cast<double>(row.strippedBytes)) / unpacked * 100;
    return row;
}

double
count(const Rows &rows)
{
    return static_cast<double>(rows.size());
}

/**
 * Figure 2: S/D share of runtime. The Java-side phase fractions are
 * the workload model's calibrated inputs (the paper measured them on
 * real Spark); the Kryo-side panel rescales each app's S/D phase by
 * the measured Kryo S/D speedup.
 */
void
figure2(const Rows &rows, bench::Summary &s)
{
    bench::banner("Figure 2: Spark runtime breakdown by serializer",
                  "S/D share avg 39.5% (Java, max 90.9%) and 28.3% "
                  "(Kryo, max 83.4%)");
    std::printf("(a) Java S/D\n");
    std::printf("%-10s | %8s %6s %6s %6s\n", "app", "compute", "gc",
                "io", "sd");
    double java_sd_avg = 0;
    for (const auto &r : rows) {
        const auto &p = r.spec.javaPhases;
        std::printf("%-10s | %7.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
                    r.spec.name.c_str(), p.compute * 100, p.gc * 100,
                    p.io * 100, p.sd * 100);
        java_sd_avg += p.sd;
    }
    java_sd_avg /= count(rows);

    std::printf("\n(b) Kryo (S/D rescaled by measured per-app Kryo "
                "speedup)\n");
    std::printf("%-10s | %8s %6s %6s %6s | %9s\n", "app", "compute",
                "gc", "io", "sd", "kryo-spd");
    double kryo_sd_avg = 0, kryo_sd_max = 0;
    for (const auto &r : rows) {
        double spd = r.kryoSdSpeedup();
        auto p = scalePhases(r.spec.javaPhases, spd);
        std::printf("%-10s | %7.1f%% %5.1f%% %5.1f%% %5.1f%% | %8.2fx\n",
                    r.spec.name.c_str(), p.compute * 100, p.gc * 100,
                    p.io * 100, p.sd * 100, spd);
        kryo_sd_avg += p.sd;
        kryo_sd_max = std::max(kryo_sd_max, p.sd);
    }
    kryo_sd_avg /= count(rows);

    std::printf("\nS/D share: java avg %.1f%% (paper 39.5%%), kryo avg "
                "%.1f%% max %.1f%% (paper 28.3%% / 83.4%%)\n",
                java_sd_avg * 100, kryo_sd_avg * 100, kryo_sd_max * 100);
    s.kv("java_sd_share_avg", java_sd_avg)
        .kv("kryo_sd_share_avg", kryo_sd_avg)
        .kv("kryo_sd_share_max", kryo_sd_max);
}

/** Figure 13: Spark-level S/D speedups. */
void
figure13(const Rows &rows, bench::Summary &s)
{
    bench::banner("Figure 13: Spark S/D speedups",
                  "Kryo 1.67x vs Java; Cereal 7.97x vs Java, 4.81x vs "
                  "Kryo (averages)");
    auto avg = [&rows](double (SparkRow::*m)() const) {
        double sum = 0;
        for (const auto &r : rows) {
            sum += (r.*m)();
        }
        return sum / count(rows);
    };
    std::printf("%-10s | %10s %12s %12s | %10s %10s %10s\n", "app",
                "kryo/java", "cereal/java", "cereal/kryo", "sdJ(ms)",
                "sdK(ms)", "sdC(ms)");
    for (const auto &r : rows) {
        std::printf("%-10s | %10.2f %12.2f %12.2f | %10.3f %10.3f "
                    "%10.3f\n",
                    r.spec.name.c_str(), r.kryoSdSpeedup(),
                    r.cerealSdSpeedup(), r.cerealOverKryo(),
                    r.javaSd() * 1e3, r.kryoSd() * 1e3,
                    r.cerealSd() * 1e3);
    }
    const double kryo = avg(&SparkRow::kryoSdSpeedup);
    const double cereal = avg(&SparkRow::cerealSdSpeedup);
    const double over_kryo = avg(&SparkRow::cerealOverKryo);
    std::printf("%-10s | %10.2f %12.2f %12.2f |\n", "average", kryo,
                cereal, over_kryo);
    std::printf("(paper)    |       1.67         7.97         4.81 |\n");
    s.kv("kryo_sd_speedup_avg", kryo)
        .kv("cereal_sd_speedup_avg", cereal)
        .kv("cereal_over_kryo_avg", over_kryo);
}

/**
 * Figure 14: whole-program speedup when Cereal accelerates the S/D
 * phase. Against the Kryo configuration, derive its phase breakdown
 * first, then accelerate its S/D phase by cereal/kryo.
 */
void
figure14(const Rows &rows, bench::Summary &s)
{
    bench::banner("Figure 14: Spark whole-program speedups with Cereal",
                  "1.81x avg / 4.66x max over Java S/D; 1.69x avg / "
                  "4.53x max over Kryo");
    auto vs_java = [](const SparkRow &r) {
        return programSpeedup(r.spec.javaPhases, r.cerealSdSpeedup());
    };
    auto vs_kryo = [](const SparkRow &r) {
        auto kryo_phases =
            scalePhases(r.spec.javaPhases, r.kryoSdSpeedup());
        return programSpeedup(kryo_phases, r.cerealOverKryo());
    };
    auto stats = [&rows](auto fn) {
        double sum = 0, mx = 0;
        for (const auto &r : rows) {
            double v = fn(r);
            sum += v;
            mx = std::max(mx, v);
        }
        return std::pair<double, double>(sum / count(rows), mx);
    };

    std::printf("%-10s | %14s %14s\n", "app", "vs java-config",
                "vs kryo-config");
    for (const auto &r : rows) {
        std::printf("%-10s | %13.2fx %13.2fx\n", r.spec.name.c_str(),
                    vs_java(r), vs_kryo(r));
    }
    auto [ja, jm] = stats(vs_java);
    auto [ka, km] = stats(vs_kryo);
    std::printf("%-10s | %13.2fx %13.2fx\n", "average", ja, ka);
    std::printf("%-10s | %13.2fx %13.2fx\n", "max", jm, km);
    std::printf("(paper)    |          1.81x          1.69x  (max "
                "4.66x / 4.53x)\n");
    s.kv("program_speedup_vs_java_avg", ja)
        .kv("program_speedup_vs_java_max", jm)
        .kv("program_speedup_vs_kryo_avg", ka)
        .kv("program_speedup_vs_kryo_max", km);
}

/** Figure 15: DRAM bandwidth utilisation per direction. */
void
figure15(const Rows &rows, bench::Summary &s)
{
    bench::banner("Figure 15: DRAM bandwidth utilisation (%) on Spark "
                  "applications",
                  "Cereal >> software; deserialization > serialization");
    std::printf("%-10s | %6s %6s %6s | %6s %6s %6s\n", "app", "serJ%",
                "serK%", "serC%", "deJ%", "deK%", "deC%");
    double sc = 0, dc = 0;
    for (const auto &r : rows) {
        std::printf("%-10s | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
                    r.spec.name.c_str(), r.java.serBandwidth * 100,
                    r.kryo.serBandwidth * 100,
                    r.cereal.serBandwidth * 100,
                    r.java.deserBandwidth * 100,
                    r.kryo.deserBandwidth * 100,
                    r.cereal.deserBandwidth * 100);
        sc += r.cereal.serBandwidth;
        dc += r.cereal.deserBandwidth;
    }
    sc /= count(rows);
    dc /= count(rows);
    std::printf("cereal averages: ser %.1f%%, deser %.1f%% "
                "(paper: deser > ser, both >> software)\n",
                sc * 100, dc * 100);
    s.kv("cereal_ser_bandwidth_avg", sc)
        .kv("cereal_deser_bandwidth_avg", dc);
}

/** Figure 16: object packing's compression, then mark-word stripping's. */
void
figure16(const Rows &rows, bench::Summary &s)
{
    bench::banner("Figure 16: Cereal object-packing compression on "
                  "Spark applications",
                  "packing avg 28.3% reduction; strongest on NWeight, "
                  "weak on SVM/Bayes/LR");
    std::printf("%-10s | %12s %12s %12s | %9s %9s\n", "app",
                "unpacked(KB)", "packed(KB)", "+strip(KB)", "packing%",
                "strip%");
    double avg = 0;
    for (const auto &r : rows) {
        std::printf("%-10s | %12.1f %12.1f %12.1f | %8.1f%% %8.1f%%\n",
                    r.spec.name.c_str(), r.unpackedBytes / 1024.0,
                    r.cereal.streamBytes / 1024.0, r.strippedBytes / 1024.0,
                    r.packingPct, r.stripPct);
        avg += r.packingPct;
    }
    avg /= count(rows);
    std::printf("average packing reduction: %.1f%% (paper: 28.3%%)\n",
                avg);
    s.kv("packing_reduction_avg_pct", avg);
}

/**
 * Figure 17: S/D energy normalised to Cereal. Accounting (documented
 * in EXPERIMENTS.md): software S/D burns the host TDP for the
 * Spark-level S/D duration (codec + measured shuffle stage). Cereal
 * burns one core's TDP share for the driver's measured handoff time
 * plus the Table V direction power for the accelerator's busy time;
 * shuffle/driver time is split evenly between directions.
 */
void
figure17(const Rows &rows, bench::Summary &s)
{
    bench::banner("Figure 17: normalized S/D energy on Spark "
                  "applications",
                  "Cereal saves 227.75x vs Java and 136.28x vs Kryo "
                  "overall (geomean ser 313.6x/225.5x, deser "
                  "165.4x/82.3x)");
    AreaPowerModel power;
    constexpr double kCoreShareW = AreaPowerModel::kHostTdpWatts / 8;
    auto sw_energy = [](double codec_s, double shuffle_s) {
        return AreaPowerModel::kHostTdpWatts * (codec_s + shuffle_s);
    };
    auto cereal_energy = [&](double accel_s, double driver_s, bool ser) {
        double device_w = (ser ? power.serializerPowerMw()
                               : power.deserializerPowerMw()) *
                          1e-3;
        return kCoreShareW * driver_s + device_w * accel_s;
    };

    std::printf("%-10s | %12s %12s | %12s %12s\n", "app", "J/C ser",
                "J/C deser", "K/C ser", "K/C deser");
    std::vector<double> js, jd, ks, kd;
    double j = 0, k = 0, c = 0;
    for (const auto &r : rows) {
        double c_ser = cereal_energy(r.cereal.serSeconds,
                                     r.cerealShuffle / 2, true);
        double c_de = cereal_energy(r.cereal.deserSeconds,
                                    r.cerealShuffle / 2, false);
        js.push_back(sw_energy(r.java.serSeconds, r.javaShuffle / 2) /
                     c_ser);
        jd.push_back(sw_energy(r.java.deserSeconds, r.javaShuffle / 2) /
                     c_de);
        ks.push_back(sw_energy(r.kryo.serSeconds, r.kryoShuffle / 2) /
                     c_ser);
        kd.push_back(sw_energy(r.kryo.deserSeconds, r.kryoShuffle / 2) /
                     c_de);
        std::printf("%-10s | %11.1fx %11.1fx | %11.1fx %11.1fx\n",
                    r.spec.name.c_str(), js.back(), jd.back(), ks.back(),
                    kd.back());
        j += sw_energy(r.java.serSeconds + r.java.deserSeconds,
                       r.javaShuffle);
        k += sw_energy(r.kryo.serSeconds + r.kryo.deserSeconds,
                       r.kryoShuffle);
        c += c_ser + c_de;
    }
    std::printf("%-10s | %11.1fx %11.1fx | %11.1fx %11.1fx\n", "geomean",
                geomean(js), geomean(jd), geomean(ks), geomean(kd));
    std::printf("(paper)    |      313.6x       165.4x |      225.5x  "
                "      82.3x\n");
    std::printf("overall S/D energy saving: %.1fx vs Java (paper "
                "227.75x), %.1fx vs Kryo (paper 136.28x)\n",
                j / c, k / c);
    s.kv("java_over_cereal_ser_geomean", geomean(js))
        .kv("java_over_cereal_deser_geomean", geomean(jd))
        .kv("kryo_over_cereal_ser_geomean", geomean(ks))
        .kv("kryo_over_cereal_deser_geomean", geomean(kd))
        .kv("overall_saving_vs_java", j / c)
        .kv("overall_saving_vs_kryo", k / c);
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::Options::parse(argc, argv, 8, "spark");

    const auto &apps = sparkApps();
    Rows rows(apps.size());
    runner::SweepRunner sweep("spark");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const SparkAppSpec spec = apps[i];
        const std::uint64_t scale = opts.scale;
        sweep.add(spec.name, [&rows, i, spec, scale](json::Writer &w) {
            rows[i] = measureSparkApp(spec, scale);
            const SparkRow &r = rows[i];
            r.java.writeJson(w, "java");
            r.kryo.writeJson(w, "kryo");
            r.cereal.writeJson(w, "cereal");
            w.kv("java_shuffle_seconds", r.javaShuffle);
            w.kv("kryo_shuffle_seconds", r.kryoShuffle);
            w.kv("cereal_shuffle_seconds", r.cerealShuffle);
            w.kv("java_sd_seconds", r.javaSd());
            w.kv("kryo_sd_seconds", r.kryoSd());
            w.kv("cereal_sd_seconds", r.cerealSd());
            w.kv("kryo_sd_speedup", r.kryoSdSpeedup());
            w.kv("cereal_sd_speedup", r.cerealSdSpeedup());
            w.kv("cereal_over_kryo", r.cerealOverKryo());
            w.kv("cereal_unpacked_bytes", r.unpackedBytes);
            w.kv("cereal_stripped_bytes", r.strippedBytes);
            w.kv("packing_reduction_pct", r.packingPct);
            w.kv("strip_reduction_pct", r.stripPct);
        });
    }
    bench::runSweep(sweep, opts);

    bench::Summary summary;
    for (auto figure : {figure2, figure13, figure14, figure15, figure16,
                        figure17}) {
        figure(rows, summary);
        std::printf("\n");
    }
    sweep.setSummary(
        [&summary](json::Writer &w) { summary.writeJson(w); });
    bench::writeBenchOutputs(sweep, opts);
    return 0;
}
