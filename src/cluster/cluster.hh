/**
 * @file
 * Event-driven multi-node cluster simulator.
 *
 * N executors, each with one serializer worker (a FIFO queue serving
 * both serialize and deserialize jobs at the measured per-partition
 * cost) and one full-duplex link into the switch fabric, both owned by
 * the shared Transport (transport.hh). A ClusterSim measures the
 * partition profile once and drives it two ways:
 *
 *  - runShuffle(): the Spark all-to-all — every node serializes one
 *    partition for each peer at t=0, frames cross the fabric, and the
 *    receivers deserialize. Reports completion time, throughput, and
 *    the per-partition latency distribution (serialize-enqueue to
 *    deserialize-done), where the tail comes from worker queueing and
 *    ingress incast.
 *
 *  - runServingFrontend() (serving.hh): shaped request arrivals behind
 *    admission control and credit flow control; with neither it is
 *    the open loop that maps the latency-throughput curve.
 *
 * Every frame on the wire is a real encoded partition frame; the
 * receive path decodes it (frame.hh) before queueing the deserialize
 * job, so the codec sits on the simulated hot path exactly where it
 * would in deployment.
 */

#ifndef CEREAL_CLUSTER_CLUSTER_HH
#define CEREAL_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <string>

#include "cluster/cost_model.hh"
#include "cluster/fabric.hh"
#include "cluster/frame.hh"
#include "cluster/node.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace cereal {
namespace cluster {

/** Whole-cluster experiment parameters. */
struct ClusterConfig
{
    unsigned nodes = 4;
    Backend backend = Backend::Java;
    /** Spark application supplying partition payloads. */
    std::string app = "Terasort";
    /** Scale divisor for the per-partition object count. */
    std::uint64_t scale = 64;
    std::uint64_t seed = 1;
    NetConfig net;
};

/** Percentile summary of a latency population, for JSON reporting. */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;

    static LatencySummary of(const stats::Distribution &d);

    /**
     * Emit as members "<prefix>_count", "<prefix>_mean", ...,
     * "<prefix>_p999" of the currently open object (schema-stable).
     */
    void writeJson(json::Writer &w, const std::string &prefix) const;
};

/** Outcome of one all-to-all shuffle. */
struct ShuffleResult
{
    double completionSeconds = 0;
    /** Partitions exchanged = nodes * (nodes - 1). */
    std::uint64_t frames = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t batches = 0;
    /** Wire bytes / completion seconds. */
    double throughputMBps = 0;
    /** Per-partition serialize-enqueue to deserialize-done seconds. */
    LatencySummary latency;
};

/** One simulated cluster; profile measured once, replayed per run. */
class ClusterSim
{
  public:
    explicit ClusterSim(ClusterConfig cfg);

    /** The configuration this cluster was built from. */
    const ClusterConfig &config() const { return cfg_; }

    /** The measured per-partition serializer profile (shared). */
    const NodeProfile &profile() const { return cost_.profile(); }

    /**
     * The cost model every timing consumer charges through (shuffle,
     * serving, dataflow operators). profile() remains available for
     * reading the measured facts; timing goes through this interface.
     */
    const BackendCostModel &costModel() const { return cost_; }

    /** Wire bytes of one encoded partition frame. */
    std::uint64_t frameBytes() const { return frameBytes_; }

    /**
     * FNV-1a-64 of the profiled payload, computed once at construction
     * and stamped into every frame this cluster sends.
     */
    std::uint64_t payloadChecksum() const { return payloadChecksum_; }

    /**
     * The frame carrying the profiled partition from @p src to @p dst,
     * tagged @p partition.
     */
    FrameRef frame(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t partition) const;

    /**
     * Panic unless delivered header @p info carries this cluster's
     * payload length and digest. The receiver compares the digest
     * stored in the header with the sender's cached payloadChecksum();
     * it does not rehash the payload, so a corrupted header is caught
     * and a corrupted payload behind an intact header is not.
     */
    void checkPayloadDigest(const FrameInfo &info) const;

    /**
     * Sustainable per-node request rate: one request costs the node
     * worker serSeconds (as origin) plus, at uniform destinations,
     * deserSeconds (as target), and the frame must fit down the link.
     */
    double nodeCapacityRps() const;

    ShuffleResult runShuffle() const;

  private:
    ClusterConfig cfg_;
    BackendCostModel cost_;
    std::uint64_t frameBytes_ = 0;
    std::uint64_t payloadChecksum_ = 0;
};

} // namespace cluster
} // namespace cereal

#endif // CEREAL_CLUSTER_CLUSTER_HH
