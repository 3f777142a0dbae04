/**
 * @file
 * The distributed stage engine and the three reference jobs.
 *
 * A Stage names one distributed step: a node-local map operator, an
 * optional shuffled exchange routed by a Partitioner, a MergeOperator
 * combining the per-source runs at each destination, and a node-local
 * reduce operator on the combined records. runDataflow() executes a
 * job's stages over N simulated nodes on the cluster fabric:
 *
 *  - Data plane: every (src, dst) batch — self-partitions included —
 *    is encoded by the configured serializer backend (BatchCodec),
 *    wrapped in a checksummed CFRM partition frame, and pushed through
 *    the shared switch fabric; receivers verify and decode before the
 *    merge/reduce side runs. Serde sits on real operator data.
 *
 *  - Timing: operator compute is narrated to the CPU core model and
 *    measured per node per stage; serialize/deserialize service times
 *    come from the measured BackendCostModel, scaled to each batch's
 *    serialized bytes. Every node runs one FIFO worker, so queueing,
 *    incast, and stragglers (a per-node service-time multiplier)
 *    emerge from the event simulation rather than being modelled.
 *
 *  - Determinism: all functional results (outputs, checksums,
 *    invariants) are pure functions of the config, byte-identical
 *    with or without observation, across thread counts, and across
 *    serializer backends.
 *
 * Jobs: wordcount (reduce-by-key with a spilling pre-combine),
 * terasort (sample sort: splitter sampling stage, then sorted runs
 * range-partitioned into a multiway merge), pagerank (iterative
 * join/aggregate over an owner-partitioned vertex space).
 */

#ifndef CEREAL_DATAFLOW_JOB_HH
#define CEREAL_DATAFLOW_JOB_HH

#include <string>
#include <vector>

#include "cluster/fabric.hh"
#include "dataflow/operators.hh"
#include "dataflow/partitioner.hh"
#include "trace/critical_path.hh"

namespace cereal {
namespace dataflow {

/** One distributed step. Null members are identity/no-op. */
struct Stage
{
    const char *name = "stage";
    /** Node-local operator before the exchange. */
    Operator *map = nullptr;
    /** Routes mapped records; null = no exchange (local stage). */
    const Partitioner *shuffle = nullptr;
    /** Combines per-source runs at each destination (null = concat). */
    MergeOperator *gather = nullptr;
    /** Node-local operator after the merge. */
    Operator *reduce = nullptr;
};

/** Dataflow experiment parameters. */
struct DataflowConfig
{
    unsigned nodes = 4;
    /** Serializer backend name (registry; "java", ..., "hps"). */
    std::string backend = "java";
    /** "wordcount", "terasort", or "pagerank". */
    std::string job = "wordcount";
    /** Input records generated per node. */
    std::uint64_t recordsPerNode = 512;
    std::uint64_t seed = 1;
    /** Probability a generated record draws the job's hot key. */
    double skew = 0.0;
    /** Service-time multiplier applied to stragglerNode (1 = none). */
    double stragglerFactor = 1.0;
    unsigned stragglerNode = 0;
    /** PageRank iterations. */
    unsigned iterations = 3;
    NetConfig net;
    /** Scale of the profiled yardstick partition (see cost model). */
    std::uint64_t profileScale = 64;
    /**
     * Batch tracing: every exchange batch gets a trace id; sampled
     * batches carry it across the fabric in the frame's trace
     * extension. The per-stage critical path is computed from full
     * stamps regardless of the sampling rate.
     */
    trace::RequestTraceConfig reqTrace;
};

/** Per-stage outcome. */
struct StageStats
{
    std::string name;
    double startSeconds = 0;
    double endSeconds = 0;
    /** Exchange batches (nodes^2 for shuffled stages, self included). */
    std::uint64_t batches = 0;
    /** Payload bytes shipped (post-codec, self-partitions included). */
    std::uint64_t payloadBytes = 0;
    /** Serialized bytes before the wire codec. */
    std::uint64_t streamBytes = 0;
    std::uint64_t recordsIn = 0;
    std::uint64_t recordsOut = 0;
    /** Max over destinations of received payload bytes / mean. */
    double skewRatio = 1.0;
    /**
     * The causal path bounding this stage's barrier: which node's
     * reduce finished last, which source's batch held it up, and how
     * the stage's wall time splits across segments (conservation-
     * checked against endSeconds - startSeconds). Invalid for local
     * (no-exchange) stages.
     */
    trace::StageCriticalPath crit;
};

/** Whole-job outcome. */
struct DataflowResult
{
    std::string job;
    std::string backend;
    double completionSeconds = 0;
    std::uint64_t outputRecords = 0;
    /** Digest of the per-node outputs in node order (backend-stable). */
    std::uint64_t resultChecksum = 0;
    /** Job-specific correctness checks (exact counts, sortedness...). */
    bool invariantsOk = false;
    /** Max stage skewRatio. */
    double skewRatio = 1.0;
    /** Fabric-measured wire bytes (frame headers included). */
    std::uint64_t wireBytes = 0;
    std::uint64_t fabricBatches = 0;
    std::vector<StageStats> stages;
};

/** Run the configured job end to end (fatal on unknown job/backend). */
DataflowResult runDataflow(const DataflowConfig &cfg);

} // namespace dataflow
} // namespace cereal

#endif // CEREAL_DATAFLOW_JOB_HH
