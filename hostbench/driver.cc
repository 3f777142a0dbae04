/**
 * @file
 * Host-time benchmark driver: runs one workload once, in this process,
 * on one thread, and prints one JSON line with its host timings, its
 * correctness checks, and its simulated outputs.
 *
 *   hostbench --workload micro_sd|accel_sweep|cluster_dataflow
 *             [--seed N] [--trace-out PATH]
 *
 * Each workload has a set-up phase (class registration, object graphs,
 * cluster profiling) and a timed phase (every layer call and check).
 * The driver calls only the public entry points of each simulator
 * layer. Without --trace-out it makes the calls the mirrored bench
 * makes and takes no span. With --trace-out it splits micro_sd's
 * harness calls into one call per layer, records its own span around
 * each layer call and reports the per-layer totals; the run id written
 * with the spans is the trace file's name without its extension.
 * The JSON line carries the simulated results of every point, under
 * "points", in the layout of the bench that emits the same point, so
 * the two can be compared value for value (check_sim.py).
 *
 * The seed reaches only the input generators: MicroWorkloads::build,
 * ClusterConfig::seed and DataflowConfig::seed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cereal/api.hh"
#include "cereal/area_power.hh"
#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "dataflow/job.hh"
#include "heap/walker.hh"
#include "hostbench/narration.hh"
#include "hostbench/spans.hh"
#include "serde/java_serde.hh"
#include "serde/kryo_serde.hh"
#include "sim/json.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

using namespace cereal;

namespace hostbench {
namespace {

/** The benches' default scale divisor. */
constexpr std::uint64_t kScale = 64;
/** Heap bases the harness and benches use for source and copy. */
constexpr Addr kSrcBase = 0x1'0000'0000ULL;
constexpr Addr kDstBase = 0x9'0000'0000ULL;

constexpr unsigned kNodes = 4;
/** bench_serving_knee's controlled front end and request count. */
constexpr std::uint64_t kRequestsPerNode = 300;
constexpr unsigned kQueueBound = 8;
constexpr unsigned kCreditWindow = 2;
const std::vector<unsigned> kLoadPct = {50, 100, 200};
/** bench_dataflow's jobs, skew and records per node at scale 64. */
const std::vector<const char *> kJobs = {"wordcount", "terasort",
                                         "pagerank"};
constexpr double kSkew = 0.3;
constexpr std::uint64_t kRecordsPerNode = 8192 / kScale;
/** bench_abl_mai's MAI sizes. */
const std::vector<unsigned> kMaiEntries = {4, 8, 16, 32, 64, 128, 256};

/** Everything one run records. */
class Bench
{
  public:
    explicit Bench(bool traced) : spans(traced)
    {
        setupStart_ = hostNow();
        setupSpan_ = spans.open("setup");
    }

    /** End set-up; the timed phase starts with the next layer call. */
    void
    beginTimed()
    {
        spans.close(setupSpan_);
        timedStart_ = hostNow();
        runSpan_ = spans.open("run");
    }

    /** End the timed phase, after the last check. */
    void
    endTimed()
    {
        spans.close(runSpan_);
        timedEnd_ = hostNow();
    }

    double setupSeconds() const { return timedStart_ - setupStart_; }
    double wallSeconds() const { return timedEnd_ - timedStart_; }

    /** One correctness check. */
    void
    check(bool ok, const std::string &what)
    {
        ++ops;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "hostbench: check failed: %s\n",
                         what.c_str());
        }
    }

    /** Accumulate a simulated value or count (exact, not timed). */
    void add(const char *name, double v) { counts[name] += v; }

    /** Record one point's simulated results under its bench's name. */
    template <typename Fn>
    void
    point(const char *bench, const std::string &name, Fn fill)
    {
        std::ostringstream os;
        json::Writer w(os, 0);
        w.beginObject();
        fill(w);
        w.endObject();
        points[bench][name] = os.str();
    }

    SpanRecorder spans;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> counts;
    std::map<std::string, std::map<std::string, std::string>> points;

  private:
    double setupStart_ = 0;
    double timedStart_ = 0;
    double timedEnd_ = 0;
    int setupSpan_ = -1;
    int runSpan_ = -1;
};

/** One microbenchmark graph with its own registry (as each bench point
 *  builds it). */
struct Graph
{
    Graph(workloads::MicroBench mb, std::uint64_t seed)
        : micro(reg), heap(reg, kSrcBase)
    {
        root = micro.build(heap, mb, kScale, seed);
        objects = GraphWalker(heap).stats(root).objectCount;
    }

    KlassRegistry reg;
    workloads::MicroWorkloads micro;
    Heap heap;
    Addr root = 0;
    std::uint64_t objects = 0;
};

std::unique_ptr<Graph>
buildGraph(Bench &b, workloads::MicroBench mb, std::uint64_t seed)
{
    Scope s(b.spans, "heap.build");
    auto g = std::make_unique<Graph>(mb, seed);
    b.add("heap.objects", static_cast<double>(g->objects));
    return g;
}

void
verify(Bench &b, Graph &g, Heap &dst, Addr root, const std::string &who)
{
    std::string why;
    bool ok = false;
    {
        Scope s(b.spans, "heap.verify");
        ok = graphEquals(g.heap, g.root, dst, root, &why);
    }
    b.check(ok, who + " round trip: " + why);
}

bool
sameStats(const CoreRunStats &a, const CoreRunStats &b)
{
    return a.elapsedTicks == b.elapsedTicks && a.seconds == b.seconds &&
           a.instructions == b.instructions &&
           a.llcAccesses == b.llcAccesses && a.dramBytes == b.dramBytes;
}

/** A core and the memory behind it, as measureSoftware builds them. */
struct Core
{
    explicit Core(const char *dram_name) : dram(dram_name, eq), core(dram) {}

    EventQueue eq;
    Dram dram;
    CoreModel core;
};

/**
 * Run @p body once narrated into a CoreModel (the online measurement
 * the harness makes), recording the narration as it goes and replaying
 * it into a second CoreModel; check both agree exactly.
 */
template <typename Body>
CoreRunStats
narrateAndReplay(Bench &b, const char *dram_name, const std::string &who,
                 Body body)
{
    std::unique_ptr<Core> replay;
    {
        Scope s(b.spans, "cpu.replay");
        replay = std::make_unique<Core>(dram_name);
    }
    ReplaySink rec(replay->core, b.spans);
    CoreRunStats online;
    {
        Scope s(b.spans, "harness.online");
        Core c(dram_name);
        TeeSink tee(c.core, rec);
        body(&tee);
        online = c.core.finish();
    }
    rec.flush();
    CoreRunStats replayed;
    {
        Scope s(b.spans, "cpu.replay");
        replayed = replay->core.finish();
    }
    b.check(sameStats(online, replayed), who + " replay matches online");
    b.add("serde.narration_events", static_cast<double>(rec.events()));
    b.add("cpu.sim_instructions", static_cast<double>(online.instructions));
    b.add("cpu.sim_llc_accesses", static_cast<double>(online.llcAccesses));
    b.add("cpu.sim_dram_bytes", static_cast<double>(online.dramBytes));
    return online;
}

/**
 * A software serializer on one graph, split by layer: the online
 * measurement with replay check (what measureSoftware reports), the
 * round-trip verify, then the functional serde alone with a null sink.
 */
workloads::SdMeasurement
measureSoftwareByLayer(Bench &b, Serializer &ser, Graph &g)
{
    workloads::SdMeasurement out;
    out.serializer = ser.name();
    out.objects = g.objects;

    std::vector<std::uint8_t> stream;
    const CoreRunStats st = narrateAndReplay(
        b, "dram.ser", ser.name() + ".ser",
        [&](MemSink *sink) { stream = ser.serialize(g.heap, g.root, sink); });
    out.serSeconds = st.seconds;
    out.serBandwidth = st.bandwidthUtil;
    out.serIpc = st.ipc;
    out.serLlcMissRate = st.llcMissRate;
    out.serEnergyJ = AreaPowerModel::softwareEnergyJ(st.seconds);
    out.streamBytes = stream.size();

    {
        Heap dst(g.reg, kDstBase);
        Addr root = 0;
        const CoreRunStats dt = narrateAndReplay(
            b, "dram.deser", ser.name() + ".deser",
            [&](MemSink *sink) { root = ser.deserialize(stream, dst, sink); });
        out.deserSeconds = dt.seconds;
        out.deserBandwidth = dt.bandwidthUtil;
        out.deserIpc = dt.ipc;
        out.deserLlcMissRate = dt.llcMissRate;
        out.deserEnergyJ = AreaPowerModel::softwareEnergyJ(dt.seconds);
        verify(b, g, dst, root, ser.name());
    }

    std::vector<std::uint8_t> again;
    {
        Scope s(b.spans, "serde.ser");
        again = ser.serialize(g.heap, g.root, nullptr);
    }
    Heap dst(g.reg, kDstBase);
    {
        Scope s(b.spans, "serde.deser");
        ser.deserialize(again, dst, nullptr);
    }
    return out;
}

/**
 * Cereal on one graph, split by layer: functional pack, device
 * serialize, functional unpack, device deserialize, verify. Reports
 * what measureCereal reports for the same configuration.
 */
workloads::SdMeasurement
measureCerealByLayer(Bench &b, Graph &g, const AccelConfig &cfg)
{
    workloads::SdMeasurement out;
    out.serializer = "cereal";
    out.objects = g.objects;
    AreaPowerModel power(cfg);

    CerealStream stream;
    {
        Scope s(b.spans, "cereal.pack");
        CerealSerializer ser;
        ser.registerAll(g.reg);
        stream = ser.serializeToStream(g.heap, g.root);
    }
    out.streamBytes = stream.serializedBytes();
    {
        EventQueue eq;
        Dram dram("dram.ser", eq);
        AccelOpResult t;
        double busy = 0;
        {
            Scope s(b.spans, "cereal.accel.ser");
            CerealDevice dev(dram, cfg);
            t = dev.serialize(g.heap, g.root, 0);
            busy = ticksToSeconds(dev.suBusyTicks());
        }
        out.serSeconds = t.latencySeconds;
        out.serBandwidth = dram.utilization(t.start, t.done);
        out.serEnergyJ = power.serializeEnergyJ(busy);
        b.add("cereal.accel.su_busy_s", busy);
    }

    Heap dst(g.reg, kDstBase);
    Addr root = 0;
    {
        Scope s(b.spans, "cereal.unpack");
        CerealSerializer de;
        de.registerAll(g.reg);
        root = de.deserializeStream(stream, dst);
    }
    {
        EventQueue eq;
        Dram dram("dram.deser", eq);
        AccelOpResult t;
        double busy = 0;
        {
            Scope s(b.spans, "cereal.accel.deser");
            CerealDevice dev(dram, cfg);
            t = dev.deserialize(stream, root, 0);
            busy = ticksToSeconds(dev.duBusyTicks());
        }
        out.deserSeconds = t.latencySeconds;
        out.deserBandwidth = dram.utilization(t.start, t.done);
        out.deserEnergyJ = power.deserializeEnergyJ(busy);
        b.add("cereal.accel.du_busy_s", busy);
    }
    verify(b, g, dst, root, "cereal");
    return out;
}

/** Accumulate one measurement's simulated results. */
void
addMeasurement(Bench &b, const workloads::SdMeasurement &m)
{
    if (m.serializer != "cereal") {
        b.add("serde.stream_bytes", static_cast<double>(m.streamBytes));
        return;
    }
    b.add("cereal.stream_bytes", static_cast<double>(m.streamBytes));
    b.add("cereal.accel.sim_ser_s", m.serSeconds);
    b.add("cereal.accel.sim_deser_s", m.deserSeconds);
}

/**
 * The six Table II shapes through java, kryo, Cereal-vanilla and
 * Cereal: bench_fig10_micro_speedup's points. Untraced, it times the
 * bench's own harness calls; traced, the same work split by layer.
 */
void
runMicroSd(Bench &b, std::uint64_t seed)
{
    const auto &shapes = workloads::allMicroBenches();
    std::vector<std::unique_ptr<Graph>> graphs;
    std::vector<std::unique_ptr<KryoSerializer>> kryos;
    for (auto mb : shapes) {
        graphs.push_back(buildGraph(b, mb, seed));
        kryos.push_back(std::make_unique<KryoSerializer>());
        kryos.back()->registerAll(graphs.back()->reg);
    }

    b.beginTimed();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        Scope point(b.spans, workloads::microBenchName(shapes[i]));
        Graph &g = *graphs[i];
        JavaSerializer java;
        AccelConfig vanilla;
        vanilla.pipelined = false;
        workloads::SdMeasurement mj, mk, mv, mc;
        if (b.spans.enabled()) {
            mj = measureSoftwareByLayer(b, java, g);
            mk = measureSoftwareByLayer(b, *kryos[i], g);
            mv = measureCerealByLayer(b, g, vanilla);
            mc = measureCerealByLayer(b, g, AccelConfig());
        } else {
            mj = workloads::measureSoftware(java, g.heap, g.root);
            mk = workloads::measureSoftware(*kryos[i], g.heap, g.root);
            mv = workloads::measureCereal(g.heap, g.root, vanilla);
            mc = workloads::measureCereal(g.heap, g.root);
            // Each call checks its round trip with graphEquals and
            // panics on a mismatch, which fails the run.
            b.ops += 4;
        }
        for (const auto *m : {&mj, &mk, &mv, &mc}) {
            addMeasurement(b, *m);
        }
        b.point("fig10_micro_speedup", workloads::microBenchName(shapes[i]),
                [&](json::Writer &w) {
                    mj.writeJson(w, "java");
                    mk.writeJson(w, "kryo");
                    mv.writeJson(w, "cereal_vanilla");
                    mc.writeJson(w, "cereal");
                });
    }
    b.endTimed();
}

/** TreeWide through Cereal at each MAI size: bench_abl_mai's points. */
void
runAccelSweep(Bench &b, std::uint64_t seed)
{
    auto g = buildGraph(b, workloads::MicroBench::TreeWide, seed);

    b.beginTimed();
    for (unsigned e : kMaiEntries) {
        Scope point(b.spans, "mai_point");
        AccelConfig cfg;
        cfg.maiEntries = e;
        const auto m = measureCerealByLayer(b, *g, cfg);
        addMeasurement(b, m);
        b.point("abl_mai", "entries-" + std::to_string(e),
                [&](json::Writer &w) {
                    w.kv("mai_entries", e);
                    w.kv("ser_seconds", m.serSeconds);
                    w.kv("deser_seconds", m.deserSeconds);
                });
    }
    b.endTimed();
}

cluster::ServingConfig
servingConfig(unsigned pct)
{
    cluster::ServingConfig cfg;
    cfg.utilization = pct / 100.0;
    cfg.requestsPerNode = kRequestsPerNode;
    cfg.admission.policy = cluster::AdmissionPolicy::Drop;
    cfg.admission.queueBound = kQueueBound;
    cfg.flow.enabled = true;
    cfg.flow.window = kCreditWindow;
    return cfg;
}

/**
 * Four nodes, java and cereal: controlled serving at three loads, one
 * shuffle, then the three dataflow jobs. Points of
 * bench_serving_knee, bench_cluster_shuffle and bench_dataflow.
 */
void
runClusterDataflow(Bench &b, std::uint64_t seed)
{
    using cluster::Backend;
    const std::vector<Backend> backends = {Backend::Java, Backend::Cereal};

    // Constructing a ClusterSim profiles its backend; the profile key
    // (Terasort, scale, seed) is the one runDataflow looks up, so the
    // dataflow jobs below find their profile already measured.
    std::vector<std::unique_ptr<cluster::ClusterSim>> sims;
    for (Backend be : backends) {
        Scope s(b.spans, "cluster.profile");
        cluster::ClusterConfig cfg;
        cfg.nodes = kNodes;
        cfg.backend = be;
        cfg.scale = kScale;
        cfg.seed = seed;
        sims.push_back(std::make_unique<cluster::ClusterSim>(cfg));
    }

    b.beginTimed();
    std::map<std::string, std::vector<std::uint64_t>> checksums;
    double worst_p99_ms = 0;
    for (const auto &sim : sims) {
        const std::string bname =
            cluster::backendName(sim->config().backend);
        Scope point(b.spans, cluster::backendName(sim->config().backend));
        const double capacity = sim->nodeCapacityRps();

        for (unsigned pct : kLoadPct) {
            const auto cfg = servingConfig(pct);
            cluster::ServingFrontendResult r;
            {
                Scope s(b.spans, "cluster.serving");
                r = cluster::runServingFrontend(*sim, cfg);
            }
            b.check(r.creditsConserved,
                    bname + " serving credits conserved");
            b.add("cluster.requests", static_cast<double>(r.requests));
            b.add("cluster.dropped", static_cast<double>(r.dropped));
            b.add("cluster.sim_goodput_rps", r.goodputRps);
            worst_p99_ms = std::max(worst_p99_ms, r.latency.p99 * 1e3);
            b.point("serving_knee", bname + "-ctl-u" + std::to_string(pct),
                    [&](json::Writer &w) {
                        w.kv("backend", bname);
                        w.kv("frontend", "ctl");
                        w.kv("shape", "steady");
                        w.kv("nodes", static_cast<std::uint64_t>(kNodes));
                        w.kv("utilization_pct",
                             static_cast<std::uint64_t>(pct));
                        w.kv("node_capacity_rps", capacity);
                        w.kv("offered_rps", r.offeredRps);
                        w.kv("goodput_rps", r.goodputRps);
                        w.kv("requests", r.requests);
                        w.kv("completed", r.completed);
                        w.kv("dropped", r.dropped);
                        w.kv("drop_rate", r.dropRate);
                        w.kv("duration_seconds", r.durationSeconds);
                        w.kv("credits_issued", r.creditsIssued);
                        w.kv("credits_returned", r.creditsReturned);
                        w.kv("credits_conserved",
                             static_cast<std::uint64_t>(
                                 r.creditsConserved ? 1 : 0));
                        w.kv("max_admission_occupancy",
                             r.maxAdmissionOccupancy);
                        w.kv("max_worker_queue", r.maxWorkerQueue);
                        r.latency.writeJson(w, "latency");
                        w.key("reqtrace");
                        r.reqTrace.writeJson(w);
                    });
        }

        cluster::ShuffleResult sh;
        {
            Scope s(b.spans, "cluster.shuffle");
            sh = sim->runShuffle();
        }
        b.check(sh.frames == kNodes * (kNodes - 1),
                bname + " shuffle frame count");
        b.point("cluster_shuffle", bname + "-shuffle", [&](json::Writer &w) {
            w.kv("backend", bname);
            w.kv("mode", "shuffle");
            w.kv("nodes", static_cast<std::uint64_t>(kNodes));
            w.kv("stream_bytes", sim->profile().streamBytes);
            w.kv("frame_bytes", sim->frameBytes());
            w.kv("objects", sim->profile().objects);
            w.kv("node_capacity_rps", capacity);
            w.kv("frames", sh.frames);
            w.kv("wire_bytes", sh.wireBytes);
            w.kv("batches", sh.batches);
            w.kv("completion_seconds", sh.completionSeconds);
            w.kv("throughput_mbps", sh.throughputMBps);
            sh.latency.writeJson(w, "latency");
        });

        for (const char *job : kJobs) {
            dataflow::DataflowConfig cfg;
            cfg.nodes = kNodes;
            cfg.backend = bname;
            cfg.job = job;
            cfg.recordsPerNode = kRecordsPerNode;
            cfg.seed = seed;
            cfg.skew = kSkew;
            cfg.profileScale = kScale;
            dataflow::DataflowResult r;
            {
                Scope s(b.spans, "dataflow.run");
                r = dataflow::runDataflow(cfg);
            }
            b.check(r.invariantsOk, bname + " " + job + " invariants");
            checksums[job].push_back(r.resultChecksum);
            std::uint64_t records = 0;
            for (const auto &st : r.stages) {
                records += st.recordsIn;
            }
            b.add("dataflow.records", static_cast<double>(records));
            b.add("dataflow.sim_completion_s", r.completionSeconds);
            b.add("dataflow.wire_bytes", static_cast<double>(r.wireBytes));
            b.point("dataflow", bname + "-" + job, [&](json::Writer &w) {
                w.kv("backend", cfg.backend);
                w.kv("job", r.job);
                w.kv("nodes", static_cast<std::uint64_t>(cfg.nodes));
                w.kv("records_per_node", cfg.recordsPerNode);
                w.kv("skew", cfg.skew);
                w.kv("straggler_factor", cfg.stragglerFactor);
                w.kv("completion_seconds", r.completionSeconds);
                w.kv("output_records", r.outputRecords);
                w.kv("result_checksum", r.resultChecksum);
                w.kv("invariants_ok",
                     static_cast<std::uint64_t>(r.invariantsOk));
                w.kv("skew_ratio", r.skewRatio);
                w.kv("wire_bytes", r.wireBytes);
                w.kv("fabric_batches", r.fabricBatches);
                w.key("stages");
                w.beginArray();
                for (const auto &st : r.stages) {
                    w.beginObject();
                    w.kv("name", st.name);
                    w.kv("start_seconds", st.startSeconds);
                    w.kv("end_seconds", st.endSeconds);
                    w.kv("batches", st.batches);
                    w.kv("payload_bytes", st.payloadBytes);
                    w.kv("stream_bytes", st.streamBytes);
                    w.kv("records_in", st.recordsIn);
                    w.kv("records_out", st.recordsOut);
                    w.kv("skew_ratio", st.skewRatio);
                    w.key("crit");
                    st.crit.writeJson(w);
                    w.endObject();
                }
                w.endArray();
            });
        }
    }
    for (const auto &[job, sums] : checksums) {
        b.check(std::all_of(sums.begin(), sums.end(),
                            [&](std::uint64_t c) { return c == sums[0]; }),
                job + " checksum agrees across backends");
    }
    b.endTimed();
    b.add("cluster.sim_p99_ms", worst_p99_ms);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload "
                 "micro_sd|accel_sweep|cluster_dataflow [--seed N]\n"
                 "                 [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') {
        usage("expected a non-negative integer");
    }
    return v;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    using namespace hostbench;
    hostNow(); // fix the clock epoch at process start

    std::string workload;
    std::uint64_t seed = 42;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value after " + a).c_str());
        }
        const char *v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = parseCount(v);
        } else if (a == "--trace-out") {
            trace_out = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }

    Bench b(!trace_out.empty());
    if (workload == "micro_sd") {
        runMicroSd(b, seed);
    } else if (workload == "accel_sweep") {
        runAccelSweep(b, seed);
    } else if (workload == "cluster_dataflow") {
        runClusterDataflow(b, seed);
    } else {
        usage("unknown or missing --workload");
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ostringstream line;
    json::Writer w(line, 0);
    w.beginObject();
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.kv("setup_s", b.setupSeconds());
    w.kv("wall_s", b.wallSeconds());
    w.kv("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    w.kv("ops", b.ops);
    w.kv("failed", b.failed);
    if (b.spans.enabled()) {
        w.key("layers");
        w.beginObject();
        for (const auto &[name, secs] : b.spans.selfTotals()) {
            w.kv(name, secs);
        }
        w.endObject();
    }
    w.key("counts");
    w.beginObject();
    for (const auto &[name, v] : b.counts) {
        w.kv(name, v);
    }
    w.endObject();
    w.key("points");
    w.beginObject();
    for (const auto &[bench, pts] : b.points) {
        w.key(bench);
        w.beginObject();
        for (const auto &[name, raw] : pts) {
            w.key(name);
            w.raw(raw);
        }
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << line.str() << std::endl;

    if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        b.spans.write(os, workload,
                      std::filesystem::path(trace_out).stem().string());
        if (!os) {
            usage("cannot write --trace-out file");
        }
    }
    return 0;
}
