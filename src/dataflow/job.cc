#include "dataflow/job.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "cluster/cost_model.hh"
#include "cluster/transport.hh"
#include "cpu/core_model.hh"
#include "dataflow/batch.hh"
#include "mem/dram.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

namespace cereal {
namespace dataflow {

namespace {

/** Distinct-key budget of the pre-shuffle combine table. */
constexpr std::size_t kCombineSpillKeys = 64;

/** Every k-th record feeds the sample-sort splitter sample. */
constexpr std::size_t kSampleStride = 16;

constexpr double kDamping = 0.85;
constexpr std::size_t kPageRankDegree = 4;

/**
 * Measure one node-local operator pass: run it functionally while it
 * narrates into a CPU core model, return the simulated seconds. The
 * measurement is a pure function of the records and the operator, so
 * it is identical across threads and with or without observation.
 */
double
timeOp(const std::function<void(MemSink *)> &body)
{
    EventQueue eq;
    Dram dram("dram.dataflow", eq);
    CoreModel core(dram);
    body(&core);
    return core.finish().seconds;
}

std::string
keyString(const std::vector<std::uint8_t> &key)
{
    return std::string(key.begin(), key.end());
}

/**
 * Check @p cfg, then measure the Terasort partition profile that batch
 * serde costs scale from. The engine calls this before it builds its
 * transport, so an observed run's profiling tracks precede the node
 * and fabric tracks.
 */
cluster::BackendCostModel
measureCostModel(const DataflowConfig &cfg, const BatchCodec &codec)
{
    panic_if(cfg.nodes < 2, "dataflow needs at least 2 nodes");
    panic_if(cfg.stragglerFactor < 1.0, "straggler factor must be >= 1");
    cluster::NodeConfig nc;
    nc.backend = static_cast<cluster::Backend>(codec.info().formatId);
    nc.app = "Terasort";
    nc.scale = cfg.profileScale;
    nc.seed = cfg.seed;
    return cluster::BackendCostModel::measure(nc);
}

/**
 * Executes stages over one simulated cluster. The event queue and the
 * transport (workers and fabric) persist across stages, so simulated
 * time accumulates and a stage starts only after the previous one
 * fully drained (the stage barrier is runAll()).
 */
class StageEngine
{
  public:
    explicit StageEngine(const DataflowConfig &cfg)
        : cfg_(cfg),
          codec_(cfg.backend),
          cost_(measureCostModel(cfg_, codec_)),
          net_(eq_, cfg.nodes, cfg.net,
               [this](std::uint32_t dst, const FrameInfo &info) {
                   deliver(dst, info);
               })
    {
    }

    std::vector<std::vector<Record>>
    runStage(const Stage &st, std::vector<std::vector<Record>> in,
             StageStats *stats);

    double nowSeconds() const { return ticksToSeconds(eq_.now()); }
    std::uint64_t wireBytes() const { return net_.fabric().wireBytes(); }
    std::uint64_t fabricBatches() const { return net_.fabric().batches(); }

  private:
    /** Everything the receive path needs about one in-flight batch. */
    struct BatchMeta
    {
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint64_t checksum = 0;
        std::uint64_t payloadLen = 0;
        Tick deserTicks = 0;
        /** Causal stamps (every batch, sampling-independent). */
        Tick serStart = 0;
        Tick serEnd = 0;
        Tick send = 0;
        Tick deliver = 0;
        Tick deserStartT = 0;
        Tick done = 0;
    };

    /** Nonzero wire trace id of batch @p id. */
    static std::uint64_t
    batchTraceId(std::uint32_t id)
    {
        return static_cast<std::uint64_t>(id) + 1;
    }

    /** Service seconds -> ticks, stretched on the straggler node. */
    Tick
    svc(unsigned node, double seconds) const
    {
        const double factor =
            node == cfg_.stragglerNode ? cfg_.stragglerFactor : 1.0;
        return secondsToTicks(seconds * factor);
    }

    void
    deliver(std::uint32_t dst, const FrameInfo &info)
    {
        auto it = batchMeta_.find(info.partition);
        panic_if(it == batchMeta_.end(),
                 "frame for unknown dataflow batch %u", info.partition);
        BatchMeta &m = it->second;
        panic_if(m.dst != dst || info.checksum != m.checksum ||
                     info.payloadLen != m.payloadLen,
                 "corrupt dataflow frame (digest mismatch on batch %u)",
                 info.partition);
        panic_if(info.hasTrace() &&
                     info.traceId != batchTraceId(info.partition),
                 "batch %u arrived with foreign trace id %llu",
                 info.partition, (unsigned long long)info.traceId);
        m.deliver = eq_.now();
        const std::uint32_t id = info.partition;
        net_.worker(dst).enqueue(m.deserTicks, "deser",
                              [this, dst, id] { onBatchDecoded(dst, id); });
    }

    /** Receive-side barrier: all n batches in, run the merge/reduce. */
    void
    onBatchDecoded(std::uint32_t dst, std::uint32_t id)
    {
        BatchMeta &m = batchMeta_.at(id);
        m.done = eq_.now();
        m.deserStartT = eq_.now() - m.deserTicks;
        if (++arrived_[dst] == cfg_.nodes) {
            // This batch released the barrier: it is the stage's
            // last arrival at dst and bounds the reduce start.
            lastBatch_[dst] = id;
            net_.worker(dst).enqueue(postTicks_[dst], "reduce", [this, dst] {
                reduceEnd_[dst] = eq_.now();
            });
        }
    }

    const DataflowConfig cfg_;
    BatchCodec codec_;
    cluster::BackendCostModel cost_;
    EventQueue eq_;
    cluster::Transport net_;

    std::unordered_map<std::uint32_t, BatchMeta> batchMeta_;
    std::vector<std::uint32_t> arrived_;
    std::vector<Tick> postTicks_;
    /** Per dst: barrier-releasing batch id and reduce-done tick. */
    std::vector<std::uint32_t> lastBatch_;
    std::vector<Tick> reduceEnd_;
    std::uint32_t nextBatchId_ = 0;
    /** Stage ordinal within the run (the frame ext span id). */
    std::uint32_t stageIndex_ = 0;
};

std::vector<std::vector<Record>>
StageEngine::runStage(const Stage &st,
                      std::vector<std::vector<Record>> in,
                      StageStats *stats)
{
    const std::uint32_t n = cfg_.nodes;
    panic_if(in.size() != n, "stage input must have one run per node");
    if (stats != nullptr) {
        stats->name = st.name;
        stats->startSeconds = ticksToSeconds(eq_.now());
        for (const auto &run : in) {
            stats->recordsIn += run.size();
        }
    }

    // Functional pass, map side: run each node's operator while it
    // narrates into the core model.
    std::vector<std::vector<Record>> mapped(n);
    std::vector<double> mapSeconds(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (st.map != nullptr) {
            mapSeconds[i] = timeOp([&](MemSink *s) {
                mapped[i] = st.map->apply(std::move(in[i]), i, s);
            });
        } else {
            mapped[i] = std::move(in[i]);
        }
    }

    if (st.shuffle == nullptr) {
        // Local stage: charge the compute, no exchange.
        for (std::uint32_t i = 0; i < n; ++i) {
            net_.worker(i).enqueue(svc(i, mapSeconds[i]), "map", [] {});
        }
        eq_.runAll();
        if (stats != nullptr) {
            stats->endSeconds = ticksToSeconds(eq_.now());
            for (const auto &run : mapped) {
                stats->recordsOut += run.size();
            }
        }
        return mapped;
    }

    // Route every mapped record to its destination partition.
    std::vector<std::vector<std::vector<Record>>> parts(
        n, std::vector<std::vector<Record>>(n));
    for (std::uint32_t src = 0; src < n; ++src) {
        for (auto &r : mapped[src]) {
            const std::uint32_t dst = st.shuffle->partition(r, n);
            panic_if(dst >= n, "partitioner returned %u of %u", dst, n);
            parts[src][dst].push_back(std::move(r));
        }
    }

    // Serde boundary: encode every (src, dst) batch through the real
    // backend — empty batches included, so the receive barrier counts
    // exactly n arrivals — and decode it on the receive side through
    // the trait-matched path (views for zero-copy, heap walk else).
    struct BatchExec
    {
        EncodedBatch enc;
        std::uint64_t checksum = 0;
        Tick serTicks = 0;
        Tick deserTicks = 0;
    };
    std::vector<std::vector<BatchExec>> batches(
        n, std::vector<BatchExec>(n));
    std::vector<std::vector<std::vector<Record>>> runs(
        n, std::vector<std::vector<Record>>(n));
    std::vector<std::uint64_t> rxBytes(n, 0);
    for (std::uint32_t src = 0; src < n; ++src) {
        for (std::uint32_t dst = 0; dst < n; ++dst) {
            BatchExec &b = batches[src][dst];
            b.enc = codec_.encode(parts[src][dst]);
            b.checksum =
                fnv1a64(b.enc.payload.data(), b.enc.payload.size());
            b.serTicks =
                svc(src, cost_.serializeSecondsFor(b.enc.streamBytes));
            b.deserTicks = svc(
                dst, cost_.deserializeSecondsFor(b.enc.streamBytes));
            runs[dst][src] = codec_.decode(b.enc.payload);
            rxBytes[dst] += b.enc.payload.size();
            if (stats != nullptr) {
                ++stats->batches;
                stats->payloadBytes += b.enc.payload.size();
                stats->streamBytes += b.enc.streamBytes;
            }
        }
    }

    // Functional pass, receive side: merge the per-source runs and
    // reduce, timed per destination.
    ConcatMergeOperator defaultGather;
    MergeOperator *gather =
        st.gather != nullptr ? st.gather : &defaultGather;
    std::vector<std::vector<Record>> out(n);
    std::vector<double> postSeconds(n, 0);
    for (std::uint32_t dst = 0; dst < n; ++dst) {
        postSeconds[dst] = timeOp([&](MemSink *s) {
            auto combined = gather->combine(std::move(runs[dst]), dst, s);
            out[dst] = st.reduce != nullptr
                ? st.reduce->apply(std::move(combined), dst, s)
                : std::move(combined);
        });
    }

    // Event pass: replay the measured times through the workers and
    // the fabric. Self-partitions pay serialize + deserialize on the
    // node's own worker but never touch the wire (a local shuffle
    // file), exactly one "deser" completion per (src, dst) batch.
    const Tick stageStart = eq_.now();
    const std::uint32_t stage = stageIndex_++;
    arrived_.assign(n, 0);
    postTicks_.assign(n, 0);
    lastBatch_.assign(n, 0);
    reduceEnd_.assign(n, 0);
    batchMeta_.clear();
    for (std::uint32_t dst = 0; dst < n; ++dst) {
        postTicks_[dst] = svc(dst, postSeconds[dst]);
    }
    for (std::uint32_t src = 0; src < n; ++src) {
        net_.worker(src).enqueue(svc(src, mapSeconds[src]), "map", [] {});
        for (std::uint32_t dst = 0; dst < n; ++dst) {
            BatchExec *b = &batches[src][dst];
            const std::uint32_t id = nextBatchId_++;
            BatchMeta meta;
            meta.src = src;
            meta.dst = dst;
            meta.checksum = b->checksum;
            meta.payloadLen = b->enc.payload.size();
            meta.deserTicks = b->deserTicks;
            batchMeta_[id] = meta;
            const Tick serTicks = b->serTicks;
            net_.worker(src).enqueue(
                serTicks, "ser", [this, src, dst, b, id, serTicks,
                                  stage] {
                    BatchMeta &m = batchMeta_.at(id);
                    m.serEnd = eq_.now();
                    m.serStart = eq_.now() - serTicks;
                    m.send = eq_.now();
                    if (dst == src) {
                        // Local shuffle file: delivered in place.
                        m.deliver = eq_.now();
                        net_.worker(dst).enqueue(
                            m.deserTicks, "deser",
                            [this, dst, id] { onBatchDecoded(dst, id); });
                        return;
                    }
                    FrameRef f;
                    f.format = codec_.info().formatId;
                    f.flags = cost_.compressedOnWire()
                        ? kFrameFlagCompressed : 0;
                    f.srcNode = src;
                    f.dstNode = dst;
                    f.partition = id;
                    if (trace::sampleRequest(batchTraceId(id),
                                             cfg_.reqTrace)) {
                        f.flags |= kFrameFlagTraced;
                        f.traceId = batchTraceId(id);
                        f.spanId = stage;
                    }
                    f.payload = b->enc.payload.data();
                    f.payloadLen = b->enc.payload.size();
                    net_.send(f, b->checksum);
                });
        }
    }
    eq_.runAll();

    for (std::uint32_t dst = 0; dst < n; ++dst) {
        panic_if(arrived_[dst] != n,
                 "stage '%s' lost batches at node %u (%u of %u)",
                 st.name, dst, arrived_[dst], n);
    }

    if (stats != nullptr) {
        // The stage ends when the slowest reduce finishes; that node's
        // barrier was released by its last-arriving batch — the
        // stage's critical path.
        std::uint32_t bound = 0;
        for (std::uint32_t dst = 1; dst < n; ++dst) {
            if (reduceEnd_[dst] > reduceEnd_[bound]) {
                bound = dst;
            }
        }
        const BatchMeta &m = batchMeta_.at(lastBatch_[bound]);
        trace::RequestTimeline tl;
        tl.traceId = batchTraceId(lastBatch_[bound]);
        tl.origin = m.src;
        tl.dst = m.dst;
        tl.cls = static_cast<std::uint8_t>(stage & 0xff);
        tl.arrival = stageStart;
        tl.serStart = m.serStart;
        tl.serEnd = m.serEnd;
        tl.send = m.send;
        tl.deliver = m.deliver;
        tl.deserStart = m.deserStartT;
        tl.done = m.done;
        tl.deserTicks = m.deserTicks;
        stats->crit =
            trace::stageCriticalPath(tl, stageStart, reduceEnd_[bound]);
        panic_if(!stats->crit.conserves(),
                 "stage '%s' critical path violates conservation",
                 st.name);
        panic_if(reduceEnd_[bound] != eq_.now(),
                 "stage '%s' ended after its slowest reduce", st.name);
        stats->endSeconds = ticksToSeconds(eq_.now());
        for (const auto &run : out) {
            stats->recordsOut += run.size();
        }
        std::uint64_t maxRx = 0;
        std::uint64_t sumRx = 0;
        for (const auto rx : rxBytes) {
            maxRx = std::max(maxRx, rx);
            sumRx += rx;
        }
        const double mean =
            static_cast<double>(sumRx) / static_cast<double>(n);
        stats->skewRatio =
            mean > 0 ? static_cast<double>(maxRx) / mean : 1.0;
    }
    return out;
}

/** Fill in the engine-level result fields common to every job. */
void
finishResult(DataflowResult &res, const StageEngine &eng,
             const std::vector<std::vector<Record>> &out)
{
    res.completionSeconds = eng.nowSeconds();
    res.wireBytes = eng.wireBytes();
    res.fabricBatches = eng.fabricBatches();
    std::vector<Record> flat;
    for (const auto &run : out) {
        flat.insert(flat.end(), run.begin(), run.end());
    }
    res.outputRecords = flat.size();
    res.resultChecksum = recordsChecksum(flat);
    for (const auto &s : res.stages) {
        res.skewRatio = std::max(res.skewRatio, s.skewRatio);
    }
}

// --- wordcount ----------------------------------------------------------

struct WordCountData
{
    std::vector<std::vector<Record>> input;
    std::map<std::vector<std::uint8_t>, std::uint64_t> counts;
};

WordCountData
genWordCount(const DataflowConfig &cfg)
{
    WordCountData data;
    data.input.resize(cfg.nodes);
    const std::uint64_t vocab =
        std::max<std::uint64_t>(16, cfg.recordsPerNode / 4);
    for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + node + 1);
        auto &run = data.input[node];
        run.reserve(cfg.recordsPerNode);
        for (std::uint64_t k = 0; k < cfg.recordsPerNode; ++k) {
            const std::uint64_t word =
                rng.chance(cfg.skew) ? 0 : rng.below(vocab);
            const std::string s = "w" + std::to_string(word);
            Record r;
            r.key.assign(s.begin(), s.end());
            r.value = packU64(1);
            ++data.counts[r.key];
            run.push_back(std::move(r));
        }
    }
    return data;
}

DataflowResult
runWordCount(const DataflowConfig &cfg)
{
    auto data = genWordCount(cfg);
    StageEngine eng(cfg);

    ReduceByKeyOperator combine("combine", sumU64Merge(),
                                kCombineSpillKeys);
    HashPartitioner hash;
    ConcatMergeOperator concat;
    ReduceByKeyOperator reduce("reduce", sumU64Merge(), 0);
    Stage st;
    st.name = "wordcount.reduce";
    st.map = &combine;
    st.shuffle = &hash;
    st.gather = &concat;
    st.reduce = &reduce;

    DataflowResult res;
    res.job = "wordcount";
    res.backend = cfg.backend;
    res.stages.emplace_back();
    auto out = eng.runStage(st, std::move(data.input),
                            &res.stages.back());

    // Exact-aggregation invariant: the outputs hold every word exactly
    // once, with the count the generator produced.
    std::map<std::vector<std::uint8_t>, std::uint64_t> got;
    bool unique = true;
    for (const auto &run : out) {
        for (const auto &r : run) {
            unique = got.emplace(r.key, unpackU64(r.value)).second &&
                     unique;
        }
    }
    res.invariantsOk = unique && got == data.counts;
    finishResult(res, eng, out);
    return res;
}

// --- terasort -----------------------------------------------------------

/** Emits every k-th record's key into the splitter sample. */
class SampleOperator : public Operator
{
  public:
    explicit SampleOperator(std::size_t stride) : stride_(stride) {}

    const char *name() const override { return "sample"; }

    std::vector<Record>
    apply(std::vector<Record> in, unsigned node, MemSink *sink) override
    {
        (void)node;
        std::vector<Record> out;
        for (std::size_t i = 0; i < in.size(); i += stride_) {
            if (sink != nullptr) {
                sink->compute(4 + in[i].key.size());
            }
            Record r;
            r.key = in[i].key;
            out.push_back(std::move(r));
        }
        return out;
    }

  private:
    std::size_t stride_;
};

/** Turns the gathered sample into parts-1 splitter records. */
class SplitterOperator : public Operator
{
  public:
    explicit SplitterOperator(std::uint32_t parts) : parts_(parts) {}

    const char *name() const override { return "splitters"; }

    std::vector<Record>
    apply(std::vector<Record> in, unsigned node, MemSink *sink) override
    {
        (void)node;
        if (in.empty()) {
            return {};
        }
        std::vector<std::vector<std::uint8_t>> keys;
        keys.reserve(in.size());
        for (auto &r : in) {
            keys.push_back(std::move(r.key));
        }
        if (sink != nullptr) {
            sink->compute(8 * keys.size());
        }
        std::vector<Record> out;
        for (auto &k : selectSplitters(std::move(keys), parts_)) {
            Record r;
            r.key = std::move(k);
            out.push_back(std::move(r));
        }
        return out;
    }

  private:
    std::uint32_t parts_;
};

std::vector<std::vector<Record>>
genTerasort(const DataflowConfig &cfg)
{
    std::vector<std::vector<Record>> input(cfg.nodes);
    for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        Rng rng(cfg.seed * 0xda942042e4dd58b5ULL + node + 1);
        auto &run = input[node];
        run.reserve(cfg.recordsPerNode);
        for (std::uint64_t k = 0; k < cfg.recordsPerNode; ++k) {
            Record r;
            r.key.resize(10);
            const bool hot = rng.chance(cfg.skew);
            for (auto &b : r.key) {
                b = static_cast<std::uint8_t>(33 + rng.below(94));
            }
            if (hot) {
                // Skewed draws collapse into the bottom key range, so
                // the range exchange funnels them to one destination.
                r.key[0] = 33;
            }
            r.value.resize(90);
            for (auto &b : r.value) {
                b = static_cast<std::uint8_t>(rng.next() & 0xff);
            }
            run.push_back(std::move(r));
        }
    }
    return input;
}

DataflowResult
runTerasort(const DataflowConfig &cfg)
{
    auto input = genTerasort(cfg);
    std::vector<Record> ref;
    for (const auto &run : input) {
        ref.insert(ref.end(), run.begin(), run.end());
    }
    std::sort(ref.begin(), ref.end(), recordLess);

    StageEngine eng(cfg);
    DataflowResult res;
    res.job = "terasort";
    res.backend = cfg.backend;

    // Stage 1: sample keys, gather them on node 0, pick splitters.
    SampleOperator sample(kSampleStride);
    SinglePartitioner toZero(0);
    ConcatMergeOperator concat;
    SplitterOperator pick(cfg.nodes);
    Stage s1;
    s1.name = "terasort.sample";
    s1.map = &sample;
    s1.shuffle = &toZero;
    s1.gather = &concat;
    s1.reduce = &pick;
    res.stages.emplace_back();
    auto sampled = eng.runStage(s1, input, &res.stages.back());

    // Control plane: the driver reads node 0's splitters and installs
    // them into the next stage's partitioner (a Spark-style broadcast;
    // splitters are metadata, not exchanged records).
    std::vector<std::vector<std::uint8_t>> splitters;
    for (const auto &r : sampled[0]) {
        splitters.push_back(r.key);
    }

    // Stage 2: sort local runs, range-exchange, k-way merge.
    SortRunOperator sorter;
    RangePartitioner range(std::move(splitters));
    MultiwayMergeOperator merge;
    Stage s2;
    s2.name = "terasort.sort";
    s2.map = &sorter;
    s2.shuffle = &range;
    s2.gather = &merge;
    res.stages.emplace_back();
    auto out = eng.runStage(s2, std::move(input), &res.stages.back());

    // Sortedness + multiset preservation: the per-node outputs,
    // concatenated in node order, must equal the globally sorted
    // input record for record.
    std::vector<Record> flat;
    for (const auto &run : out) {
        flat.insert(flat.end(), run.begin(), run.end());
    }
    res.invariantsOk = flat == ref;
    finishResult(res, eng, out);
    return res;
}

// --- pagerank -----------------------------------------------------------

/** Reduce contributions, then damp and emit the owned vertex range. */
class RankUpdateOperator : public Operator
{
  public:
    explicit RankUpdateOperator(std::uint64_t per_node)
        : perNode_(per_node)
    {
    }

    const char *name() const override { return "rank_update"; }

    std::vector<Record>
    apply(std::vector<Record> in, unsigned node, MemSink *sink) override
    {
        ReduceTable table(sumF64Merge(), 0);
        for (auto &r : in) {
            table.insert(std::move(r), sink);
        }
        std::unordered_map<std::string, double> sums;
        for (const auto &r : table.drain(sink)) {
            sums.emplace(keyString(r.key), unpackF64(r.value));
        }
        std::vector<Record> out;
        out.reserve(perNode_);
        const std::uint64_t first = std::uint64_t{node} * perNode_;
        for (std::uint64_t v = first; v < first + perNode_; ++v) {
            const auto key = packU64(v);
            const auto it = sums.find(keyString(key));
            const double sum = it == sums.end() ? 0.0 : it->second;
            if (sink != nullptr) {
                sink->compute(8);
            }
            Record r;
            r.key = key;
            r.value = packF64(1.0 - kDamping + kDamping * sum);
            out.push_back(std::move(r));
        }
        return out;
    }

  private:
    std::uint64_t perNode_;
};

struct PageRankData
{
    std::vector<std::vector<Record>> ranks;
    /** Per-node adjacency: vertex key -> packed u64 out-edge targets. */
    std::vector<std::unordered_map<std::string,
                                   std::vector<std::uint8_t>>> adj;
};

PageRankData
genPageRank(const DataflowConfig &cfg)
{
    PageRankData data;
    data.ranks.resize(cfg.nodes);
    data.adj.resize(cfg.nodes);
    const std::uint64_t per = cfg.recordsPerNode;
    const std::uint64_t vertices = per * cfg.nodes;
    for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        Rng rng(cfg.seed * 0xbf58476d1ce4e5b9ULL + node + 1);
        for (std::uint64_t v = node * per; v < (node + 1) * per; ++v) {
            std::vector<std::uint8_t> targets(kPageRankDegree * 8);
            for (std::size_t d = 0; d < kPageRankDegree; ++d) {
                // Skewed draws all point at vertex 0: a hot vertex
                // whose owner becomes the exchange's hot destination.
                const std::uint64_t t =
                    rng.chance(cfg.skew) ? 0 : rng.below(vertices);
                std::memcpy(targets.data() + d * 8, &t, 8);
            }
            const auto key = packU64(v);
            data.adj[node].emplace(keyString(key), std::move(targets));
            Record r;
            r.key = key;
            r.value = packF64(1.0);
            data.ranks[node].push_back(std::move(r));
        }
    }
    return data;
}

DataflowResult
runPageRank(const DataflowConfig &cfg)
{
    auto data = genPageRank(cfg);
    StageEngine eng(cfg);
    DataflowResult res;
    res.job = "pagerank";
    res.backend = cfg.backend;

    JoinAggregateOperator contrib(
        "contrib",
        [](const Record &probe, const std::vector<std::uint8_t> &edges,
           std::vector<Record> &out) {
            const std::size_t degree = edges.size() / 8;
            const double share = unpackF64(probe.value) /
                                 static_cast<double>(degree);
            for (std::size_t d = 0; d < degree; ++d) {
                std::uint64_t t = 0;
                std::memcpy(&t, edges.data() + d * 8, 8);
                Record r;
                r.key = packU64(t);
                r.value = packF64(share);
                out.push_back(std::move(r));
            }
        });
    for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        contrib.setBuildSide(node, std::move(data.adj[node]));
    }
    OwnerPartitioner owner(cfg.recordsPerNode);
    ConcatMergeOperator concat;
    RankUpdateOperator update(cfg.recordsPerNode);
    Stage st;
    st.name = "pagerank.iter";
    st.map = &contrib;
    st.shuffle = &owner;
    st.gather = &concat;
    st.reduce = &update;

    auto ranks = std::move(data.ranks);
    for (unsigned it = 0; it < cfg.iterations; ++it) {
        res.stages.emplace_back();
        ranks = eng.runStage(st, std::move(ranks), &res.stages.back());
    }

    // Rank mass is conserved: with no dangling vertices every vertex
    // redistributes its full rank, so the total stays at the vertex
    // count through every damped iteration.
    const double vertices = static_cast<double>(
        cfg.recordsPerNode * static_cast<std::uint64_t>(cfg.nodes));
    double sum = 0;
    bool countsOk = true;
    for (const auto &run : ranks) {
        countsOk = countsOk && run.size() == cfg.recordsPerNode;
        for (const auto &r : run) {
            sum += unpackF64(r.value);
        }
    }
    res.invariantsOk =
        countsOk && std::abs(sum - vertices) <= 1e-6 * vertices;
    finishResult(res, eng, ranks);
    return res;
}

} // namespace

DataflowResult
runDataflow(const DataflowConfig &cfg)
{
    panic_if(cfg.recordsPerNode == 0, "dataflow needs input records");
    if (cfg.job == "wordcount") {
        return runWordCount(cfg);
    }
    if (cfg.job == "terasort") {
        return runTerasort(cfg);
    }
    if (cfg.job == "pagerank") {
        return runPageRank(cfg);
    }
    panic("unknown dataflow job '%s'", cfg.job.c_str());
}

} // namespace dataflow
} // namespace cereal
