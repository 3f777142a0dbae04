/**
 * @file
 * Tests for the serving front-end subsystem: load-shape evaluation and
 * generator determinism, the admission-queue bound and tail drop,
 * credit conservation and the no-unbounded-queue invariant under
 * deliberate incast, flash-crowd recovery, and the hps operator-side
 * zero-copy property (narrated receive+consume traffic smaller than
 * the stream it reads).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/flow_control.hh"
#include "cluster/serving.hh"
#include "heap/heap.hh"
#include "load/load_gen.hh"
#include "load/load_shape.hh"
#include "serde/hps_serde.hh"
#include "serde/sink.hh"
#include "workloads/spark.hh"

namespace cereal {
namespace {

using cluster::AdmissionPolicy;
using cluster::Backend;
using cluster::ClusterConfig;
using cluster::ClusterSim;
using cluster::CreditManager;
using cluster::FlowControlConfig;
using cluster::ServingConfig;
using cluster::runServingFrontend;

ClusterConfig
tinyCluster(Backend b)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.backend = b;
    cfg.scale = 1 << 20;
    return cfg;
}

// ---------------------------------------------------------------------
// Load shapes and the generator
// ---------------------------------------------------------------------

TEST(LoadShape, FactorsStayInsideTheEnvelope)
{
    // Two overlapping spikes: their factors multiply inside the
    // overlap, which is where the envelope is reached.
    auto shape = load::LoadShape::steady()
                     .with(load::LoadShape::flashCrowd(4.0, 0.5, 0.1))
                     .with(load::LoadShape::flashCrowd(3.0, 0.55, 0.2));
    EXPECT_DOUBLE_EQ(shape.maxFactor(), 4.0 * 3.0);
    EXPECT_EQ(shape.describe(), "steady+flash+flash");
    ASSERT_NE(shape.flashComponent(), nullptr);

    for (int i = 0; i <= 1000; ++i) {
        const double f = shape.factor(0.1 * i, 100.0);
        EXPECT_GE(f, 1.0);
        EXPECT_LE(f, shape.maxFactor() + 1e-12);
    }
    EXPECT_DOUBLE_EQ(shape.factor(57.0, 100.0), shape.maxFactor());
}

TEST(LoadShape, FlashCrowdRaisesTheWindowOnly)
{
    auto shape = load::LoadShape::flashCrowd(5.0, 0.4, 0.2);
    EXPECT_DOUBLE_EQ(shape.factor(1.0, 10.0), 1.0);
    EXPECT_DOUBLE_EQ(shape.factor(4.5, 10.0), 5.0);
    EXPECT_DOUBLE_EQ(shape.factor(6.5, 10.0), 1.0);
}

TEST(LoadGen, StreamsAreDeterministicAndSorted)
{
    load::LoadGenConfig cfg;
    cfg.nodes = 4;
    cfg.lambdaBase = 100.0;
    cfg.requestsPerNode = 500;
    cfg.shape = load::LoadShape::steady().with(
        load::LoadShape::flashCrowd(3.0, 0.3, 0.2));
    cfg.seed = 3;
    load::LoadGenerator gen(cfg);

    const auto a = gen.arrivalsFor(1);
    const auto b = gen.arrivalsFor(1);
    ASSERT_EQ(a.size(), cfg.requestsPerNode);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
        EXPECT_EQ(a[i].dst, b[i].dst);
        EXPECT_EQ(a[i].client, b[i].client);
        EXPECT_EQ(a[i].cls, b[i].cls);
        if (i > 0) {
            EXPECT_GT(a[i].t, a[i - 1].t);
        }
        EXPECT_NE(a[i].dst, 1u);
        EXPECT_LT(a[i].dst, cfg.nodes);
    }
    // Distinct origins draw distinct streams.
    const auto c = gen.arrivalsFor(2);
    EXPECT_NE(a.front().t, c.front().t);
}

TEST(LoadGen, ClassMixFollowsTheDecileSplit)
{
    load::LoadGenConfig cfg;
    cfg.nodes = 2;
    cfg.lambdaBase = 50.0;
    cfg.requestsPerNode = 4000;
    cfg.seed = 11;
    load::LoadGenerator gen(cfg);
    std::uint64_t byClass[load::kRequestClasses] = {0, 0, 0};
    for (const auto &a : gen.arrivalsFor(0)) {
        ASSERT_LT(a.cls, load::kRequestClasses);
        ++byClass[a.cls];
    }
    const double n = 4000.0;
    EXPECT_NEAR(byClass[0] / n, 0.10, 0.03);
    EXPECT_NEAR(byClass[1] / n, 0.60, 0.04);
    EXPECT_NEAR(byClass[2] / n, 0.30, 0.04);
}

// ---------------------------------------------------------------------
// Credit manager
// ---------------------------------------------------------------------

TEST(CreditManagerTest, WindowBoundsAndConservation)
{
    FlowControlConfig fc;
    fc.window = 2;
    CreditManager cm(3, fc);
    EXPECT_TRUE(cm.tryConsume(0, 1));
    EXPECT_TRUE(cm.tryConsume(0, 1));
    EXPECT_FALSE(cm.tryConsume(0, 1));
    // Other pairs are unaffected.
    EXPECT_TRUE(cm.tryConsume(0, 2));
    EXPECT_FALSE(cm.allWindowsFull());
    cm.refund(0, 1);
    EXPECT_TRUE(cm.tryConsume(0, 1));
    cm.refund(0, 1);
    cm.refund(0, 1);
    cm.refund(0, 2);
    EXPECT_TRUE(cm.allWindowsFull());
    EXPECT_EQ(cm.issued(), 4u);
    EXPECT_EQ(cm.returned(), 4u);
}

TEST(CreditManagerTest, DisabledNeverStalls)
{
    FlowControlConfig fc;
    fc.enabled = false;
    CreditManager cm(2, fc);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(cm.tryConsume(0, 1));
    }
    EXPECT_EQ(cm.issued(), 0u);
    EXPECT_TRUE(cm.allWindowsFull());
}

// ---------------------------------------------------------------------
// The serving front end
// ---------------------------------------------------------------------

ServingConfig
controlledConfig(double utilization)
{
    ServingConfig cfg;
    cfg.utilization = utilization;
    cfg.requestsPerNode = 120;
    cfg.admission.policy = AdmissionPolicy::Drop;
    cfg.admission.queueBound = 16;
    cfg.flow.enabled = true;
    cfg.flow.window = 4;
    return cfg;
}

TEST(ServingFrontend, RunsAreDeterministic)
{
    ClusterSim sim(tinyCluster(Backend::Kryo));
    ServingConfig cfg = controlledConfig(1.2);
    cfg.shape = load::LoadShape::flashCrowd(2.0, 0.3, 0.3);
    const auto a = runServingFrontend(sim, cfg);
    const auto b = runServingFrontend(sim, cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.creditsIssued, b.creditsIssued);
    EXPECT_DOUBLE_EQ(a.latency.p99, b.latency.p99);
    EXPECT_DOUBLE_EQ(a.durationSeconds, b.durationSeconds);
}

TEST(ServingFrontend, OpenLoopAdmitsEverything)
{
    ClusterSim sim(tinyCluster(Backend::Plaincode));
    ServingConfig cfg;
    cfg.utilization = 1.5;
    cfg.requestsPerNode = 100;
    cfg.admission.policy = AdmissionPolicy::None;
    cfg.flow.enabled = false;
    const auto r = runServingFrontend(sim, cfg);
    EXPECT_EQ(r.admitted, r.requests);
    EXPECT_EQ(r.completed, r.requests);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(r.creditsIssued, 0u);
    EXPECT_TRUE(r.creditsConserved);
    EXPECT_DOUBLE_EQ(r.dropRate, 0.0);
}

TEST(ServingFrontend, MoreThan65535RequestsPerNode)
{
    // Request indices past 0xffff per node ride in the frame's u32
    // partition field instead of a 16-bit packed wire id.
    ClusterConfig cc = tinyCluster(Backend::Kryo);
    cc.nodes = 2;
    ClusterSim sim(cc);
    ServingConfig cfg = controlledConfig(0.3);
    cfg.requestsPerNode = 65'537;
    const auto r = runServingFrontend(sim, cfg);
    EXPECT_EQ(r.requests, 2u * 65'537u);
    EXPECT_EQ(r.completed, r.admitted);
    EXPECT_EQ(r.requests, r.admitted + r.dropped);
    EXPECT_GT(r.completed, 65'537u);
    EXPECT_GT(r.creditsIssued, 0u);
    EXPECT_TRUE(r.creditsConserved);
    EXPECT_TRUE(r.reqTrace.conserved);
}

TEST(ServingFrontend, DropPolicyBoundsOccupancyAndDropsUnderOverload)
{
    ClusterSim sim(tinyCluster(Backend::Java));
    ServingConfig cfg = controlledConfig(2.0);
    const auto r = runServingFrontend(sim, cfg);
    EXPECT_GT(r.dropped, 0u);
    EXPECT_LE(r.maxAdmissionOccupancy,
              static_cast<std::uint64_t>(cfg.admission.queueBound));
    EXPECT_EQ(r.completed, r.admitted);
    EXPECT_EQ(r.requests, r.admitted + r.dropped);
    EXPECT_TRUE(r.creditsConserved);
    EXPECT_GT(r.dropRate, 0.0);
}

TEST(ServingFrontend, CreditsConserveAndBoundIncastQueues)
{
    ClusterSim sim(tinyCluster(Backend::Kryo));
    // Deliberate incast: every request from nodes 1..3 targets node 0.
    ServingConfig cfg = controlledConfig(1.5);
    cfg.fixedDst = 0;
    const auto r = runServingFrontend(sim, cfg);
    EXPECT_GT(r.creditsIssued, 0u);
    EXPECT_EQ(r.creditsIssued, r.creditsReturned);
    EXPECT_TRUE(r.creditsConserved);
    EXPECT_GT(r.maxStalledFrames, 0u);
    // The receiver can have at most (n-1) * window frames outstanding
    // against it: in flight or queued. Its worker FIFO (deser backlog
    // plus the sender-side single ser job) therefore stays under the
    // credit ceiling instead of growing with offered load.
    const std::uint64_t ceiling =
        static_cast<std::uint64_t>(sim.config().nodes - 1) *
            cfg.flow.window + 1;
    EXPECT_LE(r.maxWorkerQueue, ceiling);

    // Open loop at the same load: the incast queue blows straight
    // through the credit ceiling.
    ServingConfig open = cfg;
    open.admission.policy = AdmissionPolicy::None;
    open.flow.enabled = false;
    const auto ro = runServingFrontend(sim, open);
    EXPECT_GT(ro.maxWorkerQueue, ceiling);
}

TEST(ServingFrontend, FlashCrowdRecovers)
{
    ClusterSim sim(tinyCluster(Backend::Plaincode));
    ServingConfig cfg = controlledConfig(0.7);
    cfg.requestsPerNode = 200;
    cfg.shape = load::LoadShape::flashCrowd(4.0, 0.5, 0.1);
    const auto r = runServingFrontend(sim, cfg);
    // The spike overloads the admission queue briefly; the backlog
    // clears within a modest multiple of the spike window itself.
    const double spikeSeconds =
        0.1 * static_cast<double>(cfg.requestsPerNode) /
        (cfg.utilization * sim.nodeCapacityRps());
    EXPECT_GE(r.recoverSeconds, 0.0);
    EXPECT_LT(r.recoverSeconds, 5.0 * spikeSeconds);
    EXPECT_TRUE(r.creditsConserved);
}

TEST(ServingFrontend, AdmissionBoundsTailUnderOverload)
{
    // The acceptance property at test scale: with admission + credits,
    // 2x overload keeps p99 within 10x of the 50%-load p99.
    ClusterSim sim(tinyCluster(Backend::Kryo));
    const auto calm = runServingFrontend(sim, controlledConfig(0.5));
    const auto hot = runServingFrontend(sim, controlledConfig(2.0));
    ASSERT_GT(calm.latency.p99, 0.0);
    EXPECT_LT(hot.latency.p99, 10.0 * calm.latency.p99);
    // Goodput degrades gracefully: the cluster still completes work at
    // a healthy fraction of its capacity.
    EXPECT_GT(hot.goodputRps,
              0.5 * sim.nodeCapacityRps() * sim.config().nodes);
}

// ---------------------------------------------------------------------
// Operator-side zero copy (hps views)
// ---------------------------------------------------------------------

TEST(ServingZeroCopy, HpsReceiveAndConsumeNarrationIsSubStream)
{
    KlassRegistry reg;
    workloads::SparkWorkloads apps(reg);
    Heap heap(reg);
    Addr root = apps.build(heap, "Terasort", 1 << 20, 1);

    HpsSerializer hps;
    auto stream = hps.serialize(heap, root);

    // Receive path: the attach/validation sweep, narrated.
    CountingSink sink;
    HpsImage img = hps.attach(stream, reg, &sink);
    // Operator path: one packed-field view read per segment.
    const std::uint64_t consumeBytes = 8 * img.segments().size();

    // The zero-copy property: receiving *and* computing on the
    // partition touches less memory than the stream occupies — there
    // is no materialized second copy to write or re-read.
    EXPECT_LT(sink.loadBytes + sink.storeBytes + consumeBytes,
              stream.size());
    EXPECT_EQ(sink.stores, 0u);
}

TEST(ServingZeroCopy, HpsConsumeIsCheaperThanMaterializedWalk)
{
    cluster::NodeConfig hps;
    hps.backend = Backend::Hps;
    hps.scale = 1 << 20;
    cluster::NodeConfig java = hps;
    java.backend = Backend::Java;
    const auto ph = cluster::profileNode(hps);
    const auto pj = cluster::profileNode(java);
    ASSERT_GT(ph.consumeSeconds, 0.0);
    ASSERT_GT(pj.consumeSeconds, 0.0);
    // Streaming view reads beat the dependent-load pointer chase.
    EXPECT_LT(ph.consumeSeconds, pj.consumeSeconds);
}

} // namespace
} // namespace cereal
