#include "cluster/fabric.hh"

#include <cmath>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace cereal {

Fabric::Fabric(EventQueue &eq, unsigned nodes, NetConfig cfg,
               Deliver deliver)
    : eq_(&eq), cfg_(cfg), deliver_(std::move(deliver)), ports_(nodes)
{
    panic_if(nodes < 2, "fabric needs at least 2 nodes");
    panic_if(cfg_.bandwidthGbps <= 0, "non-positive link bandwidth");
    panic_if(cfg_.batchBytes == 0, "zero batch size");
    for (auto &p : ports_) {
        p.flows.resize(nodes);
    }

    metrics_ = metrics::Group(metrics::current(), "cluster.fabric");
    if (metrics_.enabled()) {
        for (unsigned i = 0; i < nodes; ++i) {
            const std::string n = "n" + std::to_string(i);
            metrics_.rate((n + ".tx_util").c_str(),
                          "egress-link busy fraction of this node",
                          [this, i] {
                              return static_cast<double>(
                                  ports_[i].txBusyTicks);
                          },
                          1.0);
            metrics_.gauge((n + ".queued_frames").c_str(),
                           "frames backlogged across egress flows",
                           [this, i](Tick) {
                               return static_cast<double>(
                                   ports_[i].queuedFrames);
                           });
        }
    }

    const auto em = trace::current().sub("fabric");
    if (em.enabled()) {
        for (unsigned i = 0; i < nodes; ++i) {
            const std::string n = "n" + std::to_string(i);
            txTrace_.push_back(em.sub((n + ".tx").c_str()));
            rxTrace_.push_back(em.sub((n + ".rx").c_str()));
        }
    }
}

Tick
Fabric::txTicks(std::uint64_t bytes) const
{
    // 1 tick = 1 ps: ps/byte = 8 bits / (Gbps * 1e9 bit/s) * 1e12.
    const double ps = static_cast<double>(bytes) * 8000.0 /
                      cfg_.bandwidthGbps;
    return static_cast<Tick>(std::ceil(ps));
}

Tick
Fabric::propagationTicks() const
{
    return static_cast<Tick>(cfg_.latencyUs * 1e6);
}

void
Fabric::send(std::uint32_t src, std::uint32_t dst,
             std::vector<std::uint8_t> frame)
{
    panic_if(src >= ports_.size() || dst >= ports_.size(),
             "fabric send %u -> %u outside %zu-node cluster", src, dst,
             ports_.size());
    panic_if(src == dst, "fabric does not loop back node %u", src);
    wireBytes_ += frame.size();
    ports_[src].flows[dst].push_back(std::move(frame));
    ++ports_[src].queuedFrames;
    if (!txTrace_.empty()) {
        txTrace_[src].counter(
            "queued_frames", eq_->now(),
            static_cast<double>(ports_[src].queuedFrames));
    }
    metrics_.tick(eq_->now());
    if (!ports_[src].busy) {
        kickEgress(src);
    }
}

void
Fabric::kickEgress(std::uint32_t src)
{
    Port &port = ports_[src];
    const auto n = static_cast<std::uint32_t>(port.flows.size());

    // Round-robin over destinations: take the next non-empty flow.
    std::uint32_t dst = n;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t cand = (port.rrNext + i) % n;
        if (!port.flows[cand].empty()) {
            dst = cand;
            break;
        }
    }
    if (dst == n) {
        port.busy = false;
        return;
    }
    port.rrNext = (dst + 1) % n;

    // Form one batch for this destination: whole frames up to
    // batchBytes, but always at least one frame.
    std::vector<std::vector<std::uint8_t>> batch;
    std::uint64_t batch_bytes = 0;
    auto &flow = port.flows[dst];
    batch.reserve(flow.size());
    while (!flow.empty() &&
           (batch.empty() ||
            batch_bytes + flow.front().size() <= cfg_.batchBytes)) {
        batch_bytes += flow.front().size();
        batch.push_back(std::move(flow.front()));
        flow.pop_front();
    }
    ++batches_;
    port.queuedFrames -= batch.size();

    const Tick tx = txTicks(batch_bytes);
    port.busy = true;
    // Schedule-synchronous attribution: the whole batch occupancy is
    // charged at batch start.
    port.txBusyTicks += tx;
    metrics_.tick(eq_->now());
    if (!txTrace_.empty()) {
        txTrace_[src].span("tx_batch", eq_->now(), eq_->now() + tx);
        txTrace_[src].counter("queued_frames", eq_->now(),
                              static_cast<double>(port.queuedFrames));
    }

    // Egress link frees after the batch's serialization time.
    eq_->scheduleIn(tx, [this, src] { kickEgress(src); });

    // The batch reaches the destination's ingress port after
    // propagation, then occupies that link for the same serialization
    // time; concurrent senders queue behind each other here (incast).
    eq_->scheduleIn(tx + propagationTicks(),
                    [this, dst, tx,
                     frames = std::move(batch)]() mutable {
        Port &in = ports_[dst];
        const Tick start = std::max(eq_->now(), in.rxBusyUntil);
        const Tick done = start + tx;
        in.rxBusyUntil = done;
        metrics_.tick(eq_->now());
        if (!rxTrace_.empty()) {
            rxTrace_[dst].span("rx_batch", start, done);
        }
        eq_->schedule(done, [this, dst,
                             fs = std::move(frames)]() mutable {
            for (auto &f : fs) {
                deliver_(dst, std::move(f));
            }
        });
    });
}

} // namespace cereal
