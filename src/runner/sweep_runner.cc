#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "metrics/metrics.hh"
#include "sim/logging.hh"

namespace cereal {
namespace runner {

namespace {

/** Depth of a point fragment inside the final document. */
constexpr std::size_t kPointDepth = 2;

/**
 * Render through @p write to @p path ("" -> no-op, "-" -> stdout),
 * failing loudly on an unopenable or short-written file. Returns the
 * path written.
 */
template <typename WriteFn>
std::string
writeToPath(const std::string &path, WriteFn write)
{
    if (path.empty()) {
        return "";
    }
    if (path == "-") {
        write(std::cout);
        return path;
    }
    std::ofstream os(path, std::ios::binary);
    fatal_if(!os, "cannot open %s for writing", path.c_str());
    write(os);
    os.flush();
    fatal_if(!os, "write to %s failed", path.c_str());
    return path;
}

} // namespace

void
SweepRunner::run(unsigned threads)
{
    panic_if(ran_, "SweepRunner::run() called twice");
    ran_ = true;
    pointJson_.resize(points_.size());
    if (traceEnabled_) {
        pointTrace_.resize(points_.size());
    }

    auto run_point = [this](std::size_t i) {
        std::unique_ptr<trace::ScopedTrace> scope;
        if (traceEnabled_) {
            pointTrace_[i] = std::make_unique<trace::ChromeTraceSink>();
            scope = std::make_unique<trace::ScopedTrace>(*pointTrace_[i]);
        }
        // The point's JSON fragment is the recorder's only reader, so
        // the recorder lives exactly as long as the point.
        std::unique_ptr<metrics::MetricsRecorder> recorder;
        std::unique_ptr<metrics::ScopedMetrics> mscope;
        if (metricsEnabled_) {
            recorder = std::make_unique<metrics::MetricsRecorder>(
                metricsInterval_ ? metricsInterval_
                                 : metrics::MetricsRecorder::kDefaultInterval);
            mscope = std::make_unique<metrics::ScopedMetrics>(*recorder);
        }
        std::ostringstream ss;
        json::Writer w(ss, 2, kPointDepth);
        w.beginObject();
        w.kv("name", points_[i].name);
        points_[i].fn(w);
        if (recorder) {
            recorder->writeJson(w);
        }
        w.endObject();
        panic_if(!w.balanced(),
                 "sweep point '%s' left the JSON writer unbalanced",
                 points_[i].name.c_str());
        pointJson_[i] = ss.str();
    };

    if (threads <= 1 || points_.size() <= 1) {
        for (std::size_t i = 0; i < points_.size(); ++i) {
            run_point(i);
        }
        return;
    }

    // Every point is known up front, so workers just claim the next
    // unstarted index; results land in registration-order slots. A
    // point's exception is rethrown here, as on the serial path.
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    auto worker = [&] {
        try {
            for (std::size_t i = next++; i < points_.size(); i = next++) {
                run_point(i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(failure_mutex);
            if (!failure) {
                failure = std::current_exception();
            }
        }
    };
    {
        // jthreads join when this block ends, however it ends.
        std::vector<std::jthread> workers;
        const std::size_t n = std::min<std::size_t>(threads, points_.size());
        workers.reserve(n);
        for (std::size_t t = 0; t < n; ++t) {
            workers.emplace_back(worker);
        }
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

void
SweepRunner::writeJson(std::ostream &os,
                       const std::vector<ConfigKv> &config) const
{
    panic_if(!ran_, "writeJson() before run()");
    json::Writer w(os, 2);
    w.beginObject();
    w.kv("schema", "cereal-bench-v1");
    w.kv("bench", benchName_);
    w.key("config");
    w.beginObject();
    for (const auto &kv : config) {
        w.kv(kv.key, kv.value);
    }
    w.endObject();
    w.key("points");
    w.beginArray();
    for (const auto &frag : pointJson_) {
        w.raw(frag);
    }
    w.endArray();
    if (summary_) {
        w.key("summary");
        w.beginObject();
        summary_(w);
        w.endObject();
    }
    w.endObject();
    panic_if(!w.balanced(), "summary writer left document unbalanced");
    os << "\n";
}

std::vector<trace::TracePoint>
SweepRunner::tracePoints() const
{
    panic_if(!ran_ || !traceEnabled_,
             "trace output needs enableTrace() before run()");
    std::vector<trace::TracePoint> pts;
    pts.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        pts.push_back({points_[i].name, pointTrace_[i].get()});
    }
    return pts;
}

void
SweepRunner::writeTrace(std::ostream &os) const
{
    trace::writeChromeTrace(os, tracePoints());
}

std::string
SweepRunner::writeTraceFile(const std::string &path) const
{
    return writeToPath(path,
                       [this](std::ostream &os) { writeTrace(os); });
}

void
SweepRunner::writeTraceSummary(std::ostream &os) const
{
    trace::writeSelfTimeSummary(os, tracePoints());
}

void
SweepRunner::enableMetrics(Tick interval)
{
    panic_if(ran_, "enableMetrics() after run()");
    metricsEnabled_ = true;
    metricsInterval_ = interval;
}

std::string
SweepRunner::writeJsonFile(const std::string &path,
                           const std::vector<ConfigKv> &config) const
{
    return writeToPath(path, [this, &config](std::ostream &os) {
        writeJson(os, config);
    });
}

} // namespace runner
} // namespace cereal
