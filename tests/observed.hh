/**
 * @file
 * Observer-effect test helper: run a computation with a trace sink and
 * a metrics recorder installed, so a test can compare its result with
 * an unobserved run of the same computation.
 */

#ifndef CEREAL_TESTS_OBSERVED_HH
#define CEREAL_TESTS_OBSERVED_HH

#include <gtest/gtest.h>

#include "metrics/metrics.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"

namespace cereal {

/**
 * Return @p fn() computed under a ScopedTrace plus a ScopedMetrics.
 * Fails the test if nothing was observed, so the comparison against an
 * unobserved run cannot pass vacuously.
 */
template <typename Fn>
auto
observed(Fn &&fn)
{
    trace::ChromeTraceSink sink;
    metrics::MetricsRecorder rec;
    auto out = [&] {
        trace::ScopedTrace scoped_trace(sink);
        metrics::ScopedMetrics scoped_metrics(rec);
        return fn();
    }();
    EXPECT_FALSE(sink.events().empty()) << "observed run emitted no trace";
    EXPECT_FALSE(rec.series().empty()) << "observed run registered no metrics";
    return out;
}

} // namespace cereal

#endif // CEREAL_TESTS_OBSERVED_HH
