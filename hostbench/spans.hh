/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are opened and closed by the driver around its calls into each
 * simulator layer, kept in memory, and written out once at exit. The
 * recorder is deliberately separate from the simulator's ambient
 * trace/metrics sinks: installing those changes what the simulator does
 * (cluster profiling bypasses its cache when a sink is present), so a
 * run traced through them would measure a different program.
 *
 * When disabled, opening a span costs one branch and records nothing.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace hostbench {

/** Host seconds on a monotonic clock since a fixed process epoch. */
inline double
hostNow()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

class SpanRecorder
{
  public:
    struct Span
    {
        /** A string literal naming the layer call or grouping. */
        const char *name;
        double start;
        double end;
        /** Index of the enclosing span, -1 at top level. */
        int parent;
    };

    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; returns its id. */
    int
    open(const char *name)
    {
        if (!enabled_) {
            return -1;
        }
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, hostNow(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    close(int id)
    {
        if (id < 0) {
            return;
        }
        spans_[static_cast<std::size_t>(id)].end = hostNow();
        open_.pop_back();
    }

    /**
     * Self seconds per span name: each span's duration minus the part
     * its child spans cover, summed over the spans of that name.
     */
    std::map<std::string, double>
    selfTotals() const
    {
        std::map<std::string, double> out;
        for (const Span &s : spans_) {
            out[s.name] += s.end - s.start;
            if (s.parent >= 0) {
                out[spans_[static_cast<std::size_t>(s.parent)].name] -=
                    s.end - s.start;
            }
        }
        return out;
    }

    /** Write every span as one JSON document tagged with the run. */
    void
    write(std::ostream &os, const std::string &workload,
          const std::string &run_id) const
    {
        cereal::json::Writer w(os, 0);
        w.beginObject();
        w.kv("workload", workload);
        w.kv("run", run_id);
        w.key("spans");
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.kv("id", static_cast<std::uint64_t>(i));
            w.kv("name", s.name);
            w.kv("start_s", s.start);
            w.kv("end_s", s.end);
            w.kv("parent", s.parent);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span around one scope. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const char *name)
        : rec_(&rec), id_(rec.open(name))
    {
    }
    ~Scope() { rec_->close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
