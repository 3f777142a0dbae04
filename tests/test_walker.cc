/**
 * @file
 * Unit tests for graph traversal and the graph-isomorphism oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "heap/object.hh"
#include "heap/walker.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using workloads::MicroWorkloads;

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest() : micro(reg), heap(reg) {}

    KlassRegistry reg;
    MicroWorkloads micro;
    Heap heap;
};

TEST_F(WalkerTest, ListReachableCount)
{
    Rng rng(1);
    Addr head = micro.buildList(heap, 100, rng);
    GraphWalker w(heap);
    EXPECT_EQ(w.reachable(head).size(), 100u);
}

TEST_F(WalkerTest, TreeReachableCount)
{
    Rng rng(1);
    Addr root = micro.buildTree(heap, 2, 1023, rng);
    GraphWalker w(heap);
    auto gs = w.stats(root);
    EXPECT_EQ(gs.objectCount, 1023u);
    EXPECT_EQ(gs.maxDepth, 10u); // complete binary tree of 1023 nodes
    EXPECT_EQ(gs.referenceEdges, 1022u);
}

TEST_F(WalkerTest, SharedObjectVisitedOnce)
{
    KlassId pair = reg.add("Pair", {{"a", FieldType::Reference},
                                    {"b", FieldType::Reference}});
    Addr shared = heap.allocateInstance(pair);
    Addr root = heap.allocateInstance(pair);
    ObjectView rv(heap, root);
    rv.setRef(0, shared);
    rv.setRef(1, shared);
    GraphWalker w(heap);
    EXPECT_EQ(w.reachable(root).size(), 2u);
    auto gs = w.stats(root);
    EXPECT_EQ(gs.referenceEdges, 2u);
    EXPECT_EQ(gs.nullReferences, 2u); // shared's own two null refs
}

TEST_F(WalkerTest, CyclesTerminate)
{
    Rng rng(1);
    Addr head = micro.buildList(heap, 10, rng);
    // Close the loop: tail->next = head.
    auto nodes = GraphWalker(heap).reachable(head);
    ObjectView tail(heap, nodes.back());
    tail.setRef(1, head);
    EXPECT_EQ(GraphWalker(heap).reachable(head).size(), 10u);
}

TEST_F(WalkerTest, NullRootIsEmpty)
{
    GraphWalker w(heap);
    EXPECT_TRUE(w.reachable(0).empty());
    EXPECT_EQ(w.stats(0).objectCount, 0u);
}

TEST_F(WalkerTest, DfsPreorderVisitsFirstChildFirst)
{
    Rng rng(1);
    Addr root = micro.buildTree(heap, 2, 7, rng);
    GraphWalker w(heap);
    auto order = w.reachable(root);
    ASSERT_EQ(order.size(), 7u);
    ObjectView rv(heap, root);
    // Preorder: root, left subtree fully, then right subtree.
    EXPECT_EQ(order[0], root);
    EXPECT_EQ(order[1], rv.getRef(1));
    Addr left = rv.getRef(1);
    EXPECT_EQ(order[2], ObjectView(heap, left).getRef(1));
}

TEST_F(WalkerTest, DeepListDoesNotOverflowStack)
{
    Rng rng(1);
    Addr head = micro.buildList(heap, 300000, rng);
    EXPECT_EQ(GraphWalker(heap).reachable(head).size(), 300000u);
}

/**
 * Reference GraphWalker::stats over hash tables: an object's depth is
 * fixed when it is first discovered, and it counts once it is visited.
 */
GraphStats
referenceStats(Heap &heap, Addr root)
{
    GraphStats gs;
    if (root == 0) {
        return gs;
    }
    std::unordered_map<Addr, std::uint64_t> depth{{root, 1}};
    std::unordered_set<Addr> seen;
    std::vector<Addr> stack{root};
    while (!stack.empty()) {
        const Addr obj = stack.back();
        stack.pop_back();
        if (!seen.insert(obj).second) {
            continue;
        }
        const std::uint64_t d = depth[obj];
        gs.maxDepth = std::max(gs.maxDepth, d);
        ++gs.objectCount;
        gs.totalBytes += heap.objectBytes(obj);
        ObjectView v(heap, obj);
        std::vector<Addr> refs;
        if (v.isArray()) {
            ++gs.arrayCount;
            if (v.klass().elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < v.length(); ++i) {
                    refs.push_back(v.getRefElem(i));
                }
            }
        } else {
            for (std::uint32_t fi : v.klass().refFields()) {
                refs.push_back(v.getRef(fi));
            }
        }
        for (Addr r : refs) {
            if (r == 0) {
                ++gs.nullReferences;
                continue;
            }
            ++gs.referenceEdges;
            if (!seen.count(r)) {
                depth.emplace(r, d + 1);
                stack.push_back(r);
            }
        }
    }
    return gs;
}

TEST_F(WalkerTest, StatsMatchReferenceOnRandomSharedCyclicGraphs)
{
    KlassId node = reg.add("Node3", {{"a", FieldType::Reference},
                                     {"v", FieldType::Long},
                                     {"b", FieldType::Reference},
                                     {"c", FieldType::Reference}});
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Heap h(reg);
        Rng rng(seed);
        // Instances, reference arrays and primitive arrays; every
        // reference slot points anywhere (sharing, cycles) or is null.
        const std::uint64_t n = 20 + rng.below(300);
        std::vector<Addr> objs;
        for (std::uint64_t i = 0; i < n; ++i) {
            switch (rng.below(4)) {
              case 0:
                objs.push_back(h.allocateArray(FieldType::Reference,
                                               rng.below(6)));
                break;
              case 1:
                objs.push_back(
                    h.allocateArray(FieldType::Short, rng.below(9)));
                break;
              default:
                objs.push_back(h.allocateInstance(node));
            }
        }
        auto pick = [&]() -> Addr {
            return rng.below(5) == 0 ? 0 : objs[rng.below(n)];
        };
        for (Addr o : objs) {
            ObjectView v(h, o);
            if (!v.isArray()) {
                for (std::uint32_t fi : v.klass().refFields()) {
                    v.setRef(fi, pick());
                }
            } else if (v.klass().elemType() == FieldType::Reference) {
                for (std::uint64_t i = 0; i < v.length(); ++i) {
                    v.setRefElem(i, pick());
                }
            }
        }
        const GraphStats want = referenceStats(h, objs[0]);
        const GraphStats got = GraphWalker(h).stats(objs[0]);
        EXPECT_EQ(got.objectCount, want.objectCount) << "seed " << seed;
        EXPECT_EQ(got.totalBytes, want.totalBytes) << "seed " << seed;
        EXPECT_EQ(got.referenceEdges, want.referenceEdges)
            << "seed " << seed;
        EXPECT_EQ(got.nullReferences, want.nullReferences)
            << "seed " << seed;
        EXPECT_EQ(got.arrayCount, want.arrayCount) << "seed " << seed;
        EXPECT_EQ(got.maxDepth, want.maxDepth) << "seed " << seed;
        EXPECT_EQ(GraphWalker(h).reachable(objs[0]).size(),
                  want.objectCount);
    }
}

class GraphEqualsTest : public ::testing::Test
{
  protected:
    GraphEqualsTest() : micro(reg), a(reg), b(reg, 0x9'0000'0000ULL) {}

    KlassRegistry reg;
    MicroWorkloads micro;
    Heap a, b;
};

TEST_F(GraphEqualsTest, IdenticalListsEqual)
{
    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 50, r1);
    Addr rb = micro.buildList(b, 50, r2);
    std::string why;
    EXPECT_TRUE(graphEquals(a, ra, b, rb, &why)) << why;
}

TEST_F(GraphEqualsTest, ValueMismatchDetected)
{
    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 50, r1);
    Addr rb = micro.buildList(b, 50, r2);
    auto nodes = GraphWalker(b).reachable(rb);
    ObjectView(b, nodes[25]).setLong(0, 999999);
    std::string why;
    EXPECT_FALSE(graphEquals(a, ra, b, rb, &why));
    EXPECT_NE(why.find("value"), std::string::npos);
}

TEST_F(GraphEqualsTest, LengthMismatchDetected)
{
    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 50, r1);
    Addr rb = micro.buildList(b, 49, r2);
    EXPECT_FALSE(graphEquals(a, ra, b, rb));
}

TEST_F(GraphEqualsTest, ClassMismatchDetected)
{
    Rng r(5);
    Addr ra = micro.buildList(a, 1, r);
    Addr rb = b.allocateInstance(micro.graphNode());
    std::string why;
    EXPECT_FALSE(graphEquals(a, ra, b, rb, &why));
    EXPECT_NE(why.find("class mismatch"), std::string::npos);
}

TEST_F(GraphEqualsTest, AliasingStructureMatters)
{
    KlassId pair = reg.add("Pair2", {{"x", FieldType::Reference},
                                     {"y", FieldType::Reference}});
    KlassId leafk = reg.add("Leaf", {{"v", FieldType::Long}});

    // Graph A: both fields point at the SAME leaf.
    Addr leaf_a = a.allocateInstance(leafk);
    Addr root_a = a.allocateInstance(pair);
    ObjectView(a, root_a).setRef(0, leaf_a);
    ObjectView(a, root_a).setRef(1, leaf_a);

    // Graph B: two distinct leaves with equal values.
    Addr leaf_b1 = b.allocateInstance(leafk);
    Addr leaf_b2 = b.allocateInstance(leafk);
    Addr root_b = b.allocateInstance(pair);
    ObjectView(b, root_b).setRef(0, leaf_b1);
    ObjectView(b, root_b).setRef(1, leaf_b2);

    std::string why;
    EXPECT_FALSE(graphEquals(a, root_a, b, root_b, &why));
    EXPECT_NE(why.find("sharing"), std::string::npos);
}

TEST_F(GraphEqualsTest, CyclicGraphsCompare)
{
    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 10, r1);
    Addr rb = micro.buildList(b, 10, r2);
    auto na = GraphWalker(a).reachable(ra);
    auto nb = GraphWalker(b).reachable(rb);
    ObjectView(a, na.back()).setRef(1, ra);
    ObjectView(b, nb.back()).setRef(1, rb);
    EXPECT_TRUE(graphEquals(a, ra, b, rb));

    // Break the cycle in B only.
    ObjectView(b, nb.back()).setRef(1, nb[5]);
    EXPECT_FALSE(graphEquals(a, ra, b, rb));
}

TEST_F(GraphEqualsTest, RandomGraphIsomorphicToItself)
{
    Rng r1(7), r2(7);
    Addr ra = micro.buildGraph(a, 64, 8, r1);
    Addr rb = micro.buildGraph(b, 64, 8, r2);
    std::string why;
    EXPECT_TRUE(graphEquals(a, ra, b, rb, &why)) << why;
}

TEST_F(GraphEqualsTest, NullVsNonNullDetected)
{
    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 2, r1);
    Addr rb = micro.buildList(b, 2, r2);
    auto nb = GraphWalker(b).reachable(rb);
    ObjectView(b, nb[1]).setRef(1, rb); // tail->next = head in B only
    EXPECT_FALSE(graphEquals(a, ra, b, rb));
}

TEST_F(GraphEqualsTest, PrimitiveArrayMismatchNamesFirstIndex)
{
    for (FieldType t : {FieldType::Byte, FieldType::Int, FieldType::Long}) {
        Addr ra = a.allocateArray(t, 100);
        Addr rb = b.allocateArray(t, 100);
        for (std::uint64_t i = 0; i < 100; ++i) {
            ObjectView(a, ra).setElem(i, i);
            ObjectView(b, rb).setElem(i, i);
        }
        std::string why;
        EXPECT_TRUE(graphEquals(a, ra, b, rb, &why)) << why;
        ObjectView(b, rb).setElem(80, 7);
        ObjectView(b, rb).setElem(37, 7);
        EXPECT_FALSE(graphEquals(a, ra, b, rb, &why));
        EXPECT_NE(why.find("element 37 mismatch"), std::string::npos)
            << why;
        ObjectView(b, rb).setElem(0, 7);
        EXPECT_FALSE(graphEquals(a, ra, b, rb, &why));
        EXPECT_NE(why.find("element 0 mismatch"), std::string::npos)
            << why;
    }
}

TEST_F(GraphEqualsTest, HeapsAtDifferentBasesAndSizes)
{
    // Heap b sits elsewhere and holds more than a: unrelated objects
    // before and after its copy of the graph.
    Heap big(reg, 0x33'0000'0000ULL);
    Rng junk(11);
    micro.buildGraph(big, 300, 6, junk);
    Rng r1(7), r2(7);
    Addr ra = micro.buildGraph(a, 64, 8, r1);
    Addr rb = micro.buildGraph(big, 64, 8, r2);
    micro.buildGraph(big, 300, 6, junk);
    ASSERT_GT(big.usedBytes(), 4 * a.usedBytes());
    std::string why;
    EXPECT_TRUE(graphEquals(a, ra, big, rb, &why)) << why;
    EXPECT_TRUE(graphEquals(big, rb, a, ra, &why)) << why;

    // Aliasing still compares counterparts: a shared leaf in a, two
    // equal leaves in the larger heap.
    KlassId pair = reg.add("Pair3", {{"x", FieldType::Reference},
                                     {"y", FieldType::Reference}});
    KlassId leafk = reg.add("Leaf3", {{"v", FieldType::Long}});
    Addr leaf_a = a.allocateInstance(leafk);
    Addr root_a = a.allocateInstance(pair);
    ObjectView(a, root_a).setRef(0, leaf_a);
    ObjectView(a, root_a).setRef(1, leaf_a);
    Addr root_b = big.allocateInstance(pair);
    ObjectView(big, root_b).setRef(0, big.allocateInstance(leafk));
    ObjectView(big, root_b).setRef(1, big.allocateInstance(leafk));
    EXPECT_FALSE(graphEquals(a, root_a, big, root_b, &why));
    EXPECT_EQ(why, "sharing (aliasing) structure mismatch");
}

TEST_F(GraphEqualsTest, CounterpartOutsideHeapBPanics)
{
    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 3, r1);
    Addr rb = micro.buildList(b, 3, r2);
    // A root "in b" that is really one of a's objects.
    EXPECT_DEATH(graphEquals(a, ra, b, ra), "outside the heap");
    EXPECT_TRUE(graphEquals(a, ra, b, rb));
}

TEST_F(GraphEqualsTest, EqualAcrossRegistries)
{
    // A second registry with the same class names, registered in
    // another order and without the Cereal header slot: descriptors,
    // ids and field slots all differ, names do not.
    KlassRegistry other(false);
    other.add("Unrelated", {{"x", FieldType::Int}});
    MicroWorkloads other_micro(other);
    Heap c(other);
    for (auto mb : {workloads::MicroBench::TreeNarrow,
                    workloads::MicroBench::ListSmall,
                    workloads::MicroBench::GraphSparse}) {
        Addr ra = micro.build(a, mb, 4096, 9);
        Addr rc = other_micro.build(c, mb, 4096, 9);
        std::string why;
        EXPECT_TRUE(graphEquals(a, ra, c, rc, &why)) << why;
        EXPECT_TRUE(graphEquals(c, rc, a, ra, &why)) << why;
    }

    Rng r1(5), r2(5);
    Addr ra = micro.buildList(a, 20, r1);
    Addr rc = other_micro.buildList(c, 20, r2);
    ObjectView(c, GraphWalker(c).reachable(rc)[10]).setLong(0, -1);
    std::string why;
    EXPECT_FALSE(graphEquals(a, ra, c, rc, &why));
    EXPECT_NE(why.find("value"), std::string::npos) << why;

    // Same name, different fields: a mismatch, not a read past the
    // smaller object.
    KlassId leaf_a =
        reg.add("Leaf", {{"v", FieldType::Long}, {"w", FieldType::Long}});
    KlassId leaf_c = other.add("Leaf", {{"v", FieldType::Long}});
    EXPECT_FALSE(graphEquals(a, a.allocateInstance(leaf_a), c,
                             c.allocateInstance(leaf_c), &why));
    EXPECT_NE(why.find("layout mismatch"), std::string::npos) << why;
}

} // namespace
} // namespace cereal
