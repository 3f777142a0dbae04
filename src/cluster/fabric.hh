/**
 * @file
 * Network fabric model for the cluster simulator.
 *
 * Each node owns one full-duplex link into a non-blocking switch.
 * Frames queued for transmission are organised per destination; the
 * egress port serves those flows round-robin at batch granularity
 * (per-flow fair sharing), so one large shuffle partition cannot
 * starve traffic to other destinations. A batch occupies the egress
 * link for size/bandwidth, crosses the switch after a fixed
 * propagation latency, then occupies the *ingress* link of the
 * destination for the same serialization time — which is where incast
 * contention (N-1 senders converging on one receiver during an
 * all-to-all) shows up as queueing delay.
 *
 * Everything is scheduled on the shared EventQueue; the queue's
 * sequence-numbered FIFO tie-breaking makes concurrent flows
 * deterministic.
 */

#ifndef CEREAL_CLUSTER_FABRIC_HH
#define CEREAL_CLUSTER_FABRIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"

namespace cereal {

/** Link/batching parameters of the fabric (uniform across nodes). */
struct NetConfig
{
    /** Per-link bandwidth, gigabits per second. */
    double bandwidthGbps = 10.0;
    /** One-way propagation latency through the switch, microseconds. */
    double latencyUs = 5.0;
    /** Target bytes per transmission batch (>= 1 frame always goes). */
    std::uint64_t batchBytes = 64 * 1024;
};

/** N-node switch model; delivers whole frames to the destination. */
class Fabric
{
  public:
    /** Called at delivery time, on the destination's ingress side. */
    using Deliver =
        std::function<void(std::uint32_t dst,
                           std::vector<std::uint8_t> frame)>;

    /**
     * Under an active trace sink each node's link pair gets child
     * tracks "fabric.n{i}.tx" ("tx_batch" spans = egress occupancy,
     * "queued_frames" counter = egress backlog) and "fabric.n{i}.rx"
     * ("rx_batch" spans = ingress occupancy, where incast queueing
     * shows up).
     */
    Fabric(EventQueue &eq, unsigned nodes, NetConfig cfg,
           Deliver deliver);

    /** Queue @p frame for transmission from @p src to @p dst. */
    void send(std::uint32_t src, std::uint32_t dst,
              std::vector<std::uint8_t> frame);

    /** Link occupancy of @p bytes at the configured bandwidth. */
    Tick txTicks(std::uint64_t bytes) const;

    /** One-way propagation latency in ticks. */
    Tick propagationTicks() const;

    /** Total frame bytes handed to send(). */
    std::uint64_t wireBytes() const { return wireBytes_; }

    /** Transmission batches formed so far. */
    std::uint64_t batches() const { return batches_; }

  private:
    struct Port
    {
        /** Per-destination FIFO flows awaiting transmission. */
        std::vector<std::deque<std::vector<std::uint8_t>>> flows;
        /** Next flow the round-robin scheduler inspects. */
        std::uint32_t rrNext = 0;
        bool busy = false;
        /** Ingress side: link occupied until this tick. */
        Tick rxBusyUntil = 0;
        /** Frames queued across this port's egress flows. */
        std::uint64_t queuedFrames = 0;
        /** Cumulative egress-link occupancy, ticks (never reset). */
        Tick txBusyTicks = 0;
    };

    void kickEgress(std::uint32_t src);

    EventQueue *eq_;
    NetConfig cfg_;
    Deliver deliver_;
    std::vector<Port> ports_;
    /** Per-node link trace tracks (empty when tracing is off). */
    std::vector<trace::TraceEmitter> txTrace_;
    std::vector<trace::TraceEmitter> rxTrace_;
    /**
     * Time-series registration with the ambient metrics recorder:
     * per-node egress-link utilization and queued-frame backlog.
     */
    metrics::Group metrics_;
    std::uint64_t wireBytes_ = 0;
    std::uint64_t batches_ = 0;
};

} // namespace cereal

#endif // CEREAL_CLUSTER_FABRIC_HH
