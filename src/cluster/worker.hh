/**
 * @file
 * The per-node serializer worker shared by the cluster drive modes.
 *
 * One node owns one worker: a single server draining a FIFO of jobs
 * (serialize or deserialize — both contend for the same CPU or
 * accelerator) at the profiled per-partition cost. The Transport
 * (transport.hh) owns one per node; runShuffle() and the dataflow
 * stages feed it directly, and the serving front end (serving.hh) puts
 * an admission queue in front of it.
 */

#ifndef CEREAL_CLUSTER_WORKER_HH
#define CEREAL_CLUSTER_WORKER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"

namespace cereal {
namespace cluster {

/** One node's serializer worker: a single FIFO server. */
struct Worker
{
    struct Job
    {
        Tick service;
        /** Span label ("ser"/"deser"); must be a string literal. */
        const char *label;
        /** Small-buffer callable: no heap allocation per job. */
        EventQueue::Callback done;
    };

    EventQueue *eq = nullptr;
    /** This worker's trace track (disabled when tracing is off). */
    trace::TraceEmitter trace;
    /** This worker's queue-length time series. */
    metrics::Group metrics;
    std::deque<Job> q;
    bool busy = false;

    void
    initMetrics(std::uint32_t node)
    {
        metrics = metrics::Group(metrics::current(),
                                 "cluster.n" + std::to_string(node));
        if (metrics.enabled()) {
            metrics.gauge("queue_len",
                          "jobs waiting at this node's worker",
                          [this](Tick) {
                              return static_cast<double>(q.size());
                          });
        }
    }

    void
    enqueue(Tick service, const char *label, EventQueue::Callback done)
    {
        q.push_back({service, label, std::move(done)});
        trace.counter("queue", eq->now(),
                      static_cast<double>(q.size()));
        metrics.tick(eq->now());
        if (!busy) {
            startNext();
        }
    }

    void
    startNext()
    {
        if (q.empty()) {
            busy = false;
            return;
        }
        busy = true;
        // The in-service job parks in `cur` rather than riding inside
        // the scheduled closure: the completion event then captures
        // only {this, start} and stays within the EventCallback inline
        // buffer. Safe because a worker serves one job at a time
        // (busy stays true until this event fires).
        cur = std::move(q.front());
        q.pop_front();
        trace.counter("queue", eq->now(),
                      static_cast<double>(q.size()));
        metrics.tick(eq->now());
        const Tick start = eq->now();
        eq->scheduleIn(cur.service, [this, start] {
            trace.span(cur.label, start, eq->now());
            EventQueue::Callback done = std::move(cur.done);
            done();
            startNext();
        });
    }

    /** The job currently in service (valid while busy). */
    Job cur{};
};

} // namespace cluster
} // namespace cereal

#endif // CEREAL_CLUSTER_WORKER_HH
