/**
 * @file
 * Per-node serializer profiling for the cluster simulator.
 *
 * A cluster node's compute cost is measured, not assumed: one
 * representative shuffle partition is built with the Spark workload
 * generators and pushed through the existing single-executor timing
 * models — the CPU core model for the software serializers (java,
 * kryo, skyway, plaincode, hps) plus the LZ shuffle codec, or the
 * Cereal accelerator device model plus the bulk-handoff path. The
 * hps payload skips the codec: compressing it would destroy the
 * in-place view property the format exists for. The resulting
 * per-partition
 * service times and actual wire payload feed the event-driven cluster
 * simulation, which replays them under queueing and network
 * contention.
 */

#ifndef CEREAL_CLUSTER_NODE_HH
#define CEREAL_CLUSTER_NODE_HH

#include <cstdint>
#include <string>
#include <vector>


namespace cereal {
namespace cluster {

/** Serializer stack a node runs (values are the wire format ids). */
enum class Backend { Java, Kryo, Skyway, Cereal, Plaincode, Hps };

/** All backends in frame-format-id order. */
const std::vector<Backend> &allBackends();

/** "java" / "kryo" / "skyway" / "cereal" / "plaincode" / "hps". */
const char *backendName(Backend b);

/** Wire format id stored in partition frames (matches frame.hh). */
std::uint8_t backendFormatId(Backend b);

/** What one node's serializer stack costs per shuffle partition. */
struct NodeProfile
{
    /** Serialize + shuffle-write seconds per partition. */
    double serSeconds = 0;
    /** Shuffle-read + deserialize seconds per partition. */
    double deserSeconds = 0;
    /**
     * Operator compute on the received partition, seconds: a
     * projection that touches every object once. Materializing
     * backends pay a dependent-load graph walk; hps reads its
     * zero-copy views straight out of the wire buffer (streaming
     * loads over the validated segment table).
     */
    double consumeSeconds = 0;
    /** Serialized stream size before the shuffle codec, bytes. */
    std::uint64_t streamBytes = 0;
    /** Objects per partition graph. */
    std::uint64_t objects = 0;
    /** Bytes that go on the wire inside one frame. */
    std::vector<std::uint8_t> payload;
    /** True when payload went through the LZ shuffle codec. */
    bool compressed = false;
};

/** Workload/backend selection for profileNode(). */
struct NodeConfig
{
    Backend backend = Backend::Java;
    /** Spark application supplying the partition graph (Table III). */
    std::string app = "Terasort";
    /** Scale divisor for the per-partition object count. */
    std::uint64_t scale = 64;
    std::uint64_t seed = 1;
};

/**
 * Measure one partition's serializer + shuffle costs under
 * @p cfg.backend. Builds a private registry/heap/timing context, so
 * concurrent sweep points stay independent.
 */
NodeProfile profileNode(const NodeConfig &cfg);

} // namespace cluster
} // namespace cereal

#endif // CEREAL_CLUSTER_NODE_HH
