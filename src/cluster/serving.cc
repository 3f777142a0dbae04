#include "cluster/serving.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "cluster/transport.hh"
#include "metrics/metrics.hh"
#include "sim/logging.hh"
#include "trace/request_trace.hh"
#include "trace/trace.hh"

namespace cereal {
namespace cluster {

namespace {

/** Admission/flow state of one node's front end. */
struct NodeCtl
{
    /** Admitted requests waiting for the serializer (request idx). */
    std::deque<std::uint32_t> pend;
    /** One serialize job at a time sits in the shared worker FIFO. */
    bool serInWorker = false;
    /** Credit-stalled encoded-but-unsent requests, per destination. */
    std::vector<std::deque<std::uint32_t>> stalled;
    std::uint64_t stalledCount = 0;
    /** Admitted but not yet handed to the fabric. */
    std::uint64_t occupancy = 0;
    /** Admission/credit time series (enabled when observing). */
    metrics::Group metrics;
};

} // namespace

ServingFrontendResult
runServingFrontend(const ClusterSim &sim, const ServingConfig &cfg)
{
    const ClusterConfig &cc = sim.config();
    const unsigned n = cc.nodes;
    const BackendCostModel &cost = sim.costModel();

    panic_if(cfg.utilization <= 0, "serving utilization must be > 0");
    // A request's global index origin * requestsPerNode + k rides in
    // the frame's u32 partition field.
    panic_if(cfg.requestsPerNode == 0, "need at least one request");
    panic_if(cfg.requestsPerNode >= 0xffffffffULL ||
                 n * cfg.requestsPerNode >= 0xffffffffULL,
             "nodes * requests per node must stay below 2^32 - 1");
    panic_if(cfg.warmupFraction < 0 || cfg.warmupFraction >= 1,
             "warm-up fraction must be in [0, 1)");
    panic_if(cfg.admission.policy != AdmissionPolicy::None &&
                 cfg.admission.queueBound == 0,
             "admission control needs a positive queue bound");
    panic_if(cfg.fixedDst >= static_cast<int>(n),
             "fixed destination out of range");

    const Tick ser = secondsToTicks(cost.serializeSeconds());
    // The receive side deserializes and then computes on the result;
    // zero-copy backends profile the consume leg on their wire views.
    const Tick deser = secondsToTicks(cost.receiveSeconds());
    // Decode share of the receive job; the remainder is consume.
    // ceil is monotone, so deserOnly <= deser always holds.
    const Tick deserOnly = secondsToTicks(cost.deserializeSeconds());
    const double lambda = cfg.utilization * sim.nodeCapacityRps();

    load::LoadGenConfig lg;
    lg.nodes = n;
    lg.lambdaBase = lambda;
    lg.requestsPerNode = cfg.requestsPerNode;
    lg.clientsPerNode = cfg.clientsPerNode;
    lg.shape = cfg.shape;
    lg.seed = cc.seed;
    load::LoadGenerator gen(lg);

    const double horizon = gen.horizonSeconds();
    const double warmup = cfg.warmupFraction * horizon;
    const load::ShapeComponent *flash = cfg.shape.flashComponent();
    const double flashStart = flash ? flash->start * horizon : 0;
    const double flashEnd =
        flash ? (flash->start + flash->duration) * horizon : 0;

    const std::uint64_t rpn = cfg.requestsPerNode;
    const std::uint64_t total = static_cast<std::uint64_t>(n) * rpn;

    EventQueue eq;
    std::vector<NodeCtl> ctl(n);
    CreditManager credits(n, cfg.flow);
    for (std::uint32_t i = 0; i < n; ++i) {
        ctl[i].stalled.resize(n);
        ctl[i].metrics = metrics::Group(
            metrics::current(), "serving.n" + std::to_string(i));
        if (ctl[i].metrics.enabled()) {
            NodeCtl *c = &ctl[i];
            ctl[i].metrics.gauge(
                "admission_occupancy",
                "requests admitted but not yet on the wire",
                [c](Tick) {
                    return static_cast<double>(c->occupancy);
                });
            ctl[i].metrics.gauge(
                "stalled_frames",
                "encoded frames parked awaiting credits",
                [c](Tick) {
                    return static_cast<double>(c->stalledCount);
                });
            ctl[i].metrics.gauge(
                "credits_avail",
                "send credits available across peers",
                [&credits, i, n](Tick) {
                    double sum = 0;
                    for (std::uint32_t d = 0; d < n; ++d) {
                        if (d != i) {
                            sum += credits.available(i, d);
                        }
                    }
                    return sum;
                });
        }
    }

    // Per-request state, indexed origin * rpn + k.
    std::vector<Tick> arrivalTick(total, 0);
    std::vector<double> arrivalSec(total, 0);
    std::vector<std::uint32_t> reqDst(total, 0);
    std::vector<std::uint8_t> reqCls(total, 0);

    // Request tracing: trace id = idx + 1 (ids are nonzero), with the
    // causal stamps of sampled requests kept per index. The layer is
    // deliberately independent of the trace/metrics sinks — timelines
    // feed the *reported* RequestTraceReport, so they must not change
    // when a run is observed.
    trace::RequestTraceRecorder reqTrace(cfg.reqTrace);
    const auto traceIdOf = [](std::uint32_t idx) {
        return static_cast<std::uint64_t>(idx) + 1;
    };
    std::vector<Tick> serStartT(total, 0);
    std::vector<Tick> serEndT(total, 0);
    std::vector<Tick> sendT(total, 0);
    std::vector<Tick> deliverT(total, 0);

    ServingFrontendResult out;
    stats::Distribution latency;
    latency.reserve(total);
    Tick last_done = 0;
    Tick last_flash_done = 0;

    // Stamp the frame fields shared by the immediate and unparked send
    // paths: the frame's partition is the request index, and sampled
    // requests carry their trace context on the wire (16 extra bytes —
    // tracing overhead is modeled, not free).
    const auto makeFrame = [&](std::uint32_t src, std::uint32_t dst,
                               std::uint32_t idx) {
        FrameRef f = sim.frame(src, dst, idx);
        if (reqTrace.sampled(traceIdOf(idx))) {
            f.flags |= kFrameFlagTraced;
            f.traceId = traceIdOf(idx);
            f.spanId = reqCls[idx];
        }
        return f;
    };
    const auto reqEm = trace::current().sub("requests");

    Transport net(eq, n, cc.net,
                  [&](std::uint32_t dst, const FrameInfo &info) {
        sim.checkPayloadDigest(info);
        const std::uint32_t idx = info.partition;
        const std::uint32_t src = info.srcNode;
        // Context propagation check: a traced frame must carry exactly
        // the trace id its request was assigned at the origin.
        panic_if(info.hasTrace() && info.traceId != traceIdOf(idx),
                 "frame for request %u arrived with foreign trace id"
                 " %llu", idx, (unsigned long long)info.traceId);
        panic_if(info.hasTrace() != reqTrace.sampled(traceIdOf(idx)),
                 "trace sampling decision changed in flight for"
                 " request %u", idx);
        deliverT[idx] = eq.now();
        net.worker(dst).enqueue(deser, "deser", [&, idx, src, dst] {
            const double arr = arrivalSec[idx];
            if (arr >= warmup) {
                latency.sample(
                    ticksToSeconds(eq.now() - arrivalTick[idx]),
                    traceIdOf(idx));
            }
            ++out.completed;
            reqTrace.countRequest();
            if (reqTrace.sampled(traceIdOf(idx))) {
                trace::RequestTimeline t;
                t.traceId = traceIdOf(idx);
                t.origin = src;
                t.dst = dst;
                t.cls = reqCls[idx];
                t.arrival = arrivalTick[idx];
                t.serStart = serStartT[idx];
                t.serEnd = serEndT[idx];
                t.send = sendT[idx];
                t.deliver = deliverT[idx];
                t.deserStart = eq.now() - deser;
                t.done = eq.now();
                t.deserTicks = deserOnly;
                reqTrace.record(t);
                if (reqEm.enabled()) {
                    Tick seg[trace::kSegmentCount];
                    t.segments(seg);
                    Tick at = t.arrival;
                    for (unsigned s = 0; s < trace::kSegmentCount;
                         ++s) {
                        if (seg[s] > 0) {
                            reqEm.span(trace::segmentName(
                                           static_cast<trace::Segment>(
                                               s)),
                                       at, at + seg[s]);
                        }
                        at += seg[s];
                    }
                }
            }
            last_done = eq.now();
            if (flash && arr >= flashStart && arr < flashEnd) {
                last_flash_done = eq.now();
            }
            if (cfg.flow.enabled) {
                // The frame is consumed: its credit travels back to
                // the sender (one propagation delay).
                eq.scheduleIn(net.fabric().propagationTicks(),
                              [&, src, dst] {
                    credits.refund(src, dst);
                    NodeCtl &c = ctl[src];
                    auto &q = c.stalled[dst];
                    while (!q.empty() &&
                           credits.tryConsume(src, dst)) {
                        const std::uint32_t sidx = q.front();
                        q.pop_front();
                        --c.stalledCount;
                        --c.occupancy;
                        c.metrics.tick(eq.now());
                        // Unpark: the credit-stall span of sidx ends
                        // here — send > serEnd by exactly the parked
                        // interval.
                        sendT[sidx] = eq.now();
                        net.send(makeFrame(src, dst, sidx),
                                 sim.payloadChecksum());
                    }
                });
            }
        });
        out.maxWorkerQueue = std::max(
            out.maxWorkerQueue,
            static_cast<std::uint64_t>(net.worker(dst).q.size()));
    });

    // Hand the worker one serialize job at a time, so waiting requests
    // stay in the admission queue (the worker FIFO itself only ever
    // holds work in progress).
    std::function<void(std::uint32_t)> feedWorker =
        [&](std::uint32_t origin) {
        NodeCtl &c = ctl[origin];
        if (c.serInWorker || c.pend.empty()) {
            return;
        }
        c.serInWorker = true;
        const std::uint32_t idx = c.pend.front();
        c.pend.pop_front();
        net.worker(origin).enqueue(ser, "ser", [&, origin, idx] {
            NodeCtl &cn = ctl[origin];
            cn.serInWorker = false;
            // The worker is non-preemptive: this job's service started
            // exactly `ser` ticks before its completion fires.
            serStartT[idx] = eq.now() - ser;
            serEndT[idx] = eq.now();
            const std::uint32_t dst = reqDst[idx];
            if (credits.tryConsume(origin, dst)) {
                sendT[idx] = eq.now();
                net.send(makeFrame(origin, dst, idx),
                         sim.payloadChecksum());
                --cn.occupancy;
            } else {
                cn.stalled[dst].push_back(idx);
                ++cn.stalledCount;
                out.maxStalledFrames =
                    std::max(out.maxStalledFrames, cn.stalledCount);
            }
            cn.metrics.tick(eq.now());
            feedWorker(origin);
        });
        out.maxWorkerQueue = std::max(
            out.maxWorkerQueue,
            static_cast<std::uint64_t>(net.worker(origin).q.size()));
    };

    // Draw every node's shaped arrival stream and schedule admission.
    eq.reserve(total + 16);
    for (std::uint32_t origin = 0; origin < n; ++origin) {
        const auto arrivals = gen.arrivalsFor(origin);
        for (std::uint64_t k = 0; k < rpn; ++k) {
            const load::Arrival &a = arrivals[k];
            const std::uint32_t idx = static_cast<std::uint32_t>(
                origin * rpn + k);
            arrivalSec[idx] = a.t;
            arrivalTick[idx] = secondsToTicks(a.t);
            reqDst[idx] = (cfg.fixedDst >= 0 &&
                           origin != static_cast<std::uint32_t>(
                                         cfg.fixedDst))
                ? static_cast<std::uint32_t>(cfg.fixedDst)
                : a.dst;
            reqCls[idx] = a.cls;
            eq.schedule(arrivalTick[idx], [&, origin, idx] {
                NodeCtl &c = ctl[origin];
                if (cfg.admission.policy == AdmissionPolicy::Drop &&
                    c.occupancy >= cfg.admission.queueBound) {
                    ++out.dropped;
                    c.metrics.tick(eq.now());
                    return;
                }
                ++out.admitted;
                c.pend.push_back(idx);
                ++c.occupancy;
                out.maxAdmissionOccupancy = std::max(
                    out.maxAdmissionOccupancy, c.occupancy);
                c.metrics.tick(eq.now());
                feedWorker(origin);
            });
        }
    }

    // Warm-up fast path: jump straight to the first arrival instead of
    // stepping through the idle gap before it.
    if (!eq.empty()) {
        eq.fastForward(eq.nextEventTick());
    }

    eq.runAll();

    out.offeredRps = lambda * static_cast<double>(n);
    out.requests = total;
    out.durationSeconds = ticksToSeconds(last_done);
    out.goodputRps = out.durationSeconds > 0
        ? static_cast<double>(out.completed) / out.durationSeconds
        : 0;
    out.dropRate = total > 0
        ? static_cast<double>(total - out.completed) /
              static_cast<double>(total)
        : 0;
    out.latency = LatencySummary::of(latency);
    out.recoverSeconds = flash
        ? std::max(0.0, ticksToSeconds(last_flash_done) - flashEnd)
        : 0;
    out.creditsIssued = credits.issued();
    out.creditsReturned = credits.returned();
    out.creditsConserved = credits.issued() == credits.returned() &&
                           credits.allWindowsFull();
    out.reqTrace = reqTrace.report(latency);
    if (metrics::current() != nullptr) {
        metrics::current()->recordHistogram(
            "serving.latency_seconds",
            "end-to-end request latency, log-bucketed", latency);
    }

    panic_if(out.completed != out.admitted,
             "serving front end lost requests (%llu of %llu admitted"
             " finished)",
             (unsigned long long)out.completed,
             (unsigned long long)out.admitted);
    for (const NodeCtl &c : ctl) {
        panic_if(c.occupancy != 0 || c.stalledCount != 0 ||
                     !c.pend.empty(),
                 "serving front end drained with work still queued");
    }
    return out;
}

} // namespace cluster
} // namespace cereal
