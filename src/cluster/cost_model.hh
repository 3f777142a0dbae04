/**
 * @file
 * The one interface the cluster layers charge serializer costs
 * through.
 *
 * A BackendCostModel wraps the measured per-partition NodeProfile and
 * is the single entry point for "what does this backend cost on this
 * path": serialize (origin side), deserialize (receive side), operator
 * consume (post-receive compute), and the wire-relevant facts (payload
 * bytes, compressed-on-wire). Shuffle, serving, and the dataflow
 * operators all charge through it; none of them reads NodeProfile's
 * raw fields for timing, and none of them switches on backend
 * identity — behaviour differences live in the serde registry traits
 * the profiler dispatches on.
 *
 * Dataflow batches are not the profiled partition, so the model also
 * exposes bytes-proportional scaling: cost(bytes) = measured cost *
 * bytes / measured stream bytes. That is a deliberate linearization —
 * per-object constants are averaged into the per-byte rate — and it
 * keeps operator timing a pure function of the one measured profile,
 * which is what makes cached profiles and the fast-mode equivalence
 * contract carry over to the dataflow engine unchanged.
 */

#ifndef CEREAL_CLUSTER_COST_MODEL_HH
#define CEREAL_CLUSTER_COST_MODEL_HH

#include <utility>

#include "cluster/node.hh"

namespace cereal {
namespace cluster {

/** Per-path serializer costs for one backend on one node. */
class BackendCostModel
{
  public:
    BackendCostModel() = default;

    explicit BackendCostModel(NodeProfile profile)
        : profile_(std::move(profile))
    {
    }

    /** Measure a profile for @p cfg (cached; see profileNode()). */
    static BackendCostModel
    measure(const NodeConfig &cfg)
    {
        return BackendCostModel(profileNode(cfg));
    }

    /** The underlying measured per-partition profile. */
    const NodeProfile &profile() const { return profile_; }

    // --- full-partition path costs --------------------------------------

    /** Serialize + shuffle-write seconds per profiled partition. */
    double serializeSeconds() const { return profile_.serSeconds; }

    /** Shuffle-read + deserialize seconds per profiled partition. */
    double deserializeSeconds() const { return profile_.deserSeconds; }

    /** Operator compute on one received partition (views or walk). */
    double consumeSeconds() const { return profile_.consumeSeconds; }

    /** Receive-side total: deserialize then consume. */
    double
    receiveSeconds() const
    {
        return profile_.deserSeconds + profile_.consumeSeconds;
    }

    // --- bytes-scaled costs for operator batches ------------------------

    double
    serializeSecondsFor(std::uint64_t stream_bytes) const
    {
        return scale(profile_.serSeconds, stream_bytes);
    }

    double
    deserializeSecondsFor(std::uint64_t stream_bytes) const
    {
        return scale(profile_.deserSeconds, stream_bytes);
    }

    // --- wire facts ------------------------------------------------------

    /** True when payloads travel through the LZ shuffle codec. */
    bool compressedOnWire() const { return profile_.compressed; }

    /** Serialized stream bytes of the profiled partition. */
    std::uint64_t streamBytes() const { return profile_.streamBytes; }

  private:
    double
    scale(double per_partition, std::uint64_t stream_bytes) const
    {
        if (profile_.streamBytes == 0) {
            return 0;
        }
        return per_partition * static_cast<double>(stream_bytes) /
               static_cast<double>(profile_.streamBytes);
    }

    NodeProfile profile_;
};

} // namespace cluster
} // namespace cereal

#endif // CEREAL_CLUSTER_COST_MODEL_HH
