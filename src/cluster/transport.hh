/**
 * @file
 * The frame transport under every cluster driver: the all-to-all
 * shuffle (cluster.hh), the serving front end (serving.hh) and the
 * dataflow stages (dataflow/job.hh).
 *
 * It owns one serializer Worker per node (with its "cluster.n<i>"
 * series and "node<i>" trace track), the switch Fabric (with its
 * "fabric" track) and the pool of frame buffers. At delivery it checks
 * the header structurally and panics on a corrupt frame; the payload
 * is not rehashed. Checks that depend on what a driver sent (payload
 * digest, trace ids, batch metadata) stay in the driver's hook.
 */

#ifndef CEREAL_CLUSTER_TRANSPORT_HH
#define CEREAL_CLUSTER_TRANSPORT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/fabric.hh"
#include "cluster/frame.hh"
#include "cluster/worker.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"

namespace cereal {
namespace cluster {

/** Workers, fabric and frame codec of one simulated cluster run. */
class Transport
{
  public:
    /**
     * Called at delivery on @p dst with the decoded header. The buffer
     * is already back in the pool, so info.payload is null.
     */
    using Receive =
        std::function<void(std::uint32_t dst, const FrameInfo &info)>;

    Transport(EventQueue &eq, unsigned nodes, const NetConfig &net,
              Receive receive);

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    Worker &worker(std::uint32_t node) { return workers_[node]; }

    const Fabric &fabric() const { return fabric_; }

    /**
     * Encode @p f into a pooled buffer and queue it from f.srcNode to
     * f.dstNode; @p checksum is the payload's cached fnv1a64.
     */
    void send(const FrameRef &f, std::uint64_t checksum);

  private:
    void deliver(std::uint32_t dst, std::vector<std::uint8_t> bytes);

    std::vector<Worker> workers_;
    Fabric fabric_;
    sim::BufferPool pool_;
    Receive receive_;
};

} // namespace cluster
} // namespace cereal

#endif // CEREAL_CLUSTER_TRANSPORT_HH
