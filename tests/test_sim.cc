/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, clock
 * domains, deterministic RNG, and latency distributions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cereal {
namespace {

TEST(EventQueue, FiresInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.executedCount(), 3u);
}

TEST(EventQueue, TiesBreakInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        eq.schedule(100, [&order, i] { order.push_back(i); });
    }
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SameTickEventsScheduledFromCallbacksKeepFifoOrder)
{
    // The cluster simulator relies on this: a callback that schedules
    // more work *at the current tick* must run it after everything
    // already queued for that tick, in scheduling order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] {
        order.push_back(0);
        eq.schedule(50, [&] { order.push_back(3); });
        eq.schedule(50, [&] { order.push_back(4); });
    });
    eq.schedule(50, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RecycledCallbackSlotsKeepSameTickFifoOrder)
{
    // A callback's slot is recycled before it runs, so the events it
    // schedules can land in that very slot (or any freed one) while
    // older same-tick events sit in higher slots. Order must follow
    // scheduling order, never slot index, and the running callback's
    // captures must survive its slot being reused.
    EventQueue eq;
    std::vector<int> order;
    const int tag = 0;
    eq.schedule(10, [&eq, &order, tag] {
        eq.schedule(10, [&order] { order.push_back(3); }); // reuses slot
        order.push_back(tag);
        eq.schedule(10, [&eq, &order] {
            order.push_back(4);
            eq.schedule(10, [&order] { order.push_back(6); });
        });
    });
    eq.schedule(10, [&order] { order.push_back(1); });
    eq.schedule(10, [&eq, &order] {
        order.push_back(2);
        eq.schedule(10, [&order] { order.push_back(5); });
    });
    eq.schedule(11, [&order] { order.push_back(7); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(eq.now(), 11u);
    EXPECT_EQ(eq.executedCount(), 8u);
}

TEST(EventQueue, ScheduleAndScheduleInInterleaveDeterministically)
{
    // schedule(now + d) and scheduleIn(d) land in the same FIFO class
    // when they resolve to the same tick: sequence numbers are handed
    // out per call, regardless of entry point.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        eq.scheduleIn(7, [&] { order.push_back(0); });
        eq.schedule(17, [&] { order.push_back(1); });
        eq.scheduleIn(7, [&] { order.push_back(2); });
        eq.schedule(17, [&] { order.push_back(3); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 17u);
}

TEST(EventQueue, IdenticalRunsExecuteIdentically)
{
    // Two queues fed the same schedule drain in the same order — the
    // reproducibility property multi-node cluster runs depend on.
    auto drive = [] {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 32; ++i) {
            eq.schedule(static_cast<Tick>((i * 7) % 5),
                        [&order, i] { order.push_back(i); });
        }
        eq.runAll();
        return order;
    };
    EXPECT_EQ(drive(), drive());
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10) {
            eq.scheduleIn(5, chain);
        }
    };
    eq.schedule(0, chain);
    eq.runAll();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 45u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runAll();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilExecutesReentrantWorkAtTheBoundary)
{
    // An event exactly at `until` runs, and same-tick work it
    // schedules runs too — the boundary is inclusive all the way to
    // quiescence at that tick.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&] {
        order.push_back(0);
        eq.schedule(20, [&] { order.push_back(1); });
        eq.schedule(21, [&] { order.push_back(2); });
    });
    eq.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ReentrantSchedulingAtNowExecutesThisRun)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        eq.schedule(eq.now(), [&] { ++fired; });
        eq.scheduleIn(0, [&] { ++fired; });
    });
    eq.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, NextEventTickAfterDrainIsMaxTick)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTick(), kMaxTick);
    eq.schedule(5, [] {});
    EXPECT_EQ(eq.nextEventTick(), 5u);
    eq.runAll();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), kMaxTick);
}

TEST(EventQueue, FastForwardSkipsIdleTimeWithoutExecuting)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1000, [&] { ++fired; });
    EXPECT_EQ(eq.fastForward(900), 900u);
    EXPECT_EQ(eq.now(), 900u);
    EXPECT_EQ(fired, 0);
    // Jumping exactly onto the next event's tick is allowed; the
    // event still executes normally afterwards.
    EXPECT_EQ(eq.fastForward(1000), 1000u);
    EXPECT_EQ(fired, 0);
    eq.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.executedCount(), 1u);
}

TEST(EventQueue, FastForwardBackwardsIsANoOp)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.fastForward(5), 10u);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, FastForwardOverPendingEventPanics)
{
    EventQueue eq;
    eq.schedule(1000, [] {});
    EXPECT_DEATH(eq.fastForward(1001), "skip a pending event");
}

TEST(EventCallback, SmallCallablesStayInline)
{
    int hits = 0;
    EventQueue::Callback cb([&hits] { ++hits; });
    EXPECT_TRUE(cb.isInline());
    cb();
    EXPECT_EQ(hits, 1);
}

TEST(EventCallback, LargeCallablesFallBackToTheHeap)
{
    struct Big
    {
        char pad[EventQueue::Callback::kInlineBytes + 8] = {};
        int *out;
        void operator()() { *out = 42; }
    };
    int result = 0;
    Big big;
    big.out = &result;
    EventQueue::Callback cb(big);
    EXPECT_FALSE(cb.isInline());
    cb();
    EXPECT_EQ(result, 42);
}

TEST(EventCallback, MoveTransfersTheCallable)
{
    int hits = 0;
    EventQueue::Callback a([&hits] { ++hits; });
    EventQueue::Callback b(std::move(a));
    b();
    EXPECT_EQ(hits, 1);
    EXPECT_DEATH(a(), "empty EventCallback");

    EventQueue::Callback c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(ClockDomain, Conversions)
{
    // 1 GHz -> 1000 ps period.
    ClockDomain cd(1000);
    EXPECT_EQ(cd.cyclesToTicks(5), 5000u);
    EXPECT_EQ(cd.ticksToCycles(5000), 5u);
    EXPECT_EQ(cd.ticksToCycles(5001), 6u);
    EXPECT_EQ(cd.clockEdge(999), 1000u);
    EXPECT_EQ(cd.clockEdge(1000), 1000u);
}

TEST(Types, PeriodFromMHz)
{
    // 3600 MHz -> ~277 ps.
    Tick p = periodFromMHz(3600);
    EXPECT_NEAR(static_cast<double>(p), 277.8, 1.0);
    EXPECT_EQ(nsToTicks(40), 40000u);
}

TEST(Types, Rounding)
{
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(roundDown(13, 8), 8u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
    EXPECT_EQ(floorLog2(64), 6u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(r.below(17), 17u);
    }
    EXPECT_EQ(r.below(1), 0u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng r(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Stats, DistributionEmptyReadsZeroAndSumsInSampleOrder)
{
    stats::Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.p99(), 0.0);
    // Reported means are summed in sample order, not sorted order:
    // (2^53 + 1) + 1 rounds each 1 away, (1 + 1) + 2^53 keeps both.
    for (double v : {0x1p53, 1.0, 1.0}) {
        d.sample(v);
    }
    EXPECT_EQ(d.sum(), 0x1p53);
    EXPECT_EQ((1.0 + 1.0) + 0x1p53, 0x1p53 + 2);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 0x1p53);
}

TEST(Stats, DistributionExactPercentiles)
{
    stats::Distribution d;
    for (int v = 100; v >= 1; --v) {
        d.sample(v); // reverse order: percentile() must sort
    }
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    // Nearest rank over 1..100: pXX is exactly XX.
    EXPECT_DOUBLE_EQ(d.p50(), 50.0);
    EXPECT_DOUBLE_EQ(d.p95(), 95.0);
    EXPECT_DOUBLE_EQ(d.p99(), 99.0);
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
}

TEST(Stats, DistributionResortsAfterNewSamples)
{
    stats::Distribution d;
    d.sample(10);
    d.sample(20);
    EXPECT_DOUBLE_EQ(d.p50(), 10.0); // rank 1 of 2
    d.sample(1); // invalidates the cached sort
    EXPECT_DOUBLE_EQ(d.p50(), 10.0); // rank 2 of 3
    EXPECT_DOUBLE_EQ(d.p99(), 20.0);
}

TEST(Stats, DistributionSingleSample)
{
    stats::Distribution d;
    d.sample(7.5);
    EXPECT_DOUBLE_EQ(d.p50(), 7.5);
    EXPECT_DOUBLE_EQ(d.p95(), 7.5);
    EXPECT_DOUBLE_EQ(d.p99(), 7.5);
}

TEST(Stats, DistributionLargeNNearestRank)
{
    // 100001 values inserted in reverse; nearest-rank is
    // ceil(p/100 * n), 1-indexed into the sorted samples.
    stats::Distribution d;
    d.reserve(100001);
    for (int v = 100000; v >= 0; --v) {
        d.sample(v);
    }
    EXPECT_EQ(d.count(), 100001u);
    EXPECT_DOUBLE_EQ(d.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(d.p50(), 50000.0);  // ceil(50000.5) = 50001st
    EXPECT_DOUBLE_EQ(d.p95(), 95000.0);  // ceil(95000.95) = 95001st
    EXPECT_DOUBLE_EQ(d.p99(), 99000.0);  // ceil(99000.99) = 99001st
    EXPECT_DOUBLE_EQ(d.p999(), 99900.0); // ceil(99900.999) = 99901st
    EXPECT_DOUBLE_EQ(d.percentile(100), 100000.0);
}

TEST(Stats, DistributionQuantileMatchesPercentile)
{
    stats::Distribution d;
    d.reserve(10000);
    for (int v = 10000; v >= 1; --v) {
        d.sample(v);
    }
    // quantile(q) is the primitive; percentile(p) is quantile(p/100).
    EXPECT_DOUBLE_EQ(d.quantile(0.5), d.percentile(50));
    EXPECT_DOUBLE_EQ(d.quantile(0.999), d.percentile(99.9));
    EXPECT_DOUBLE_EQ(d.quantile(0.999), 9990.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.9999), 9999.0);
    // Extreme quantiles clamp to the order statistics.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 10000.0);
    // Below one sample's worth of mass, nearest rank is the minimum.
    EXPECT_DOUBLE_EQ(d.quantile(1e-9), 1.0);
}

TEST(Stats, DistributionP999NeedsAThousandSamplesToResolve)
{
    // With n < 1000 the 0.999 rank rounds up to the max sample;
    // crossing n = 1000 separates the two.
    stats::Distribution d;
    for (int v = 1; v <= 999; ++v) {
        d.sample(v);
    }
    EXPECT_DOUBLE_EQ(d.p999(), 999.0); // == max
    d.sample(1000);
    EXPECT_DOUBLE_EQ(d.p999(), 999.0); // now one below max
    EXPECT_DOUBLE_EQ(d.max(), 1000.0);
}

} // namespace
} // namespace cereal
