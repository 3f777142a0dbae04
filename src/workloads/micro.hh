/**
 * @file
 * Microbenchmark object graphs (paper Section VI-A, Figure 9, Table II).
 *
 * Three data-structure shapes, each in two configurations:
 *  - Tree: narrow (fanout 2, 2,097,150 nodes) and wide (fanout 8,
 *    19,173,960 nodes) — pointer-heavy, hierarchical;
 *  - List: small (524,288 nodes) and large (2,097,152 nodes) — a long
 *    dependence chain of next-pointers;
 *  - Graph: 4,096 nodes with 1 (sparse) or 4,095 (dense) outgoing edges
 *    per node, edges held in reference arrays — reference-dominated.
 *
 * Builders take a scale divisor so tests can run the same shapes at a
 * fraction of the paper's sizes; benchmark binaries pick the divisor
 * from the command line (default keeps runtimes in seconds).
 */

#ifndef CEREAL_WORKLOADS_MICRO_HH
#define CEREAL_WORKLOADS_MICRO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "heap/heap.hh"
#include "sim/rng.hh"

namespace cereal {
namespace workloads {

/** Identifies one microbenchmark configuration (Table II row). */
enum class MicroBench
{
    TreeNarrow,
    TreeWide,
    ListSmall,
    ListLarge,
    GraphSparse,
    GraphDense,
};

/** All six configurations in presentation order. */
const std::vector<MicroBench> &allMicroBenches();

/** Display name ("tree-narrow", ...). */
const char *microBenchName(MicroBench mb);

/**
 * Registers the microbenchmark classes into a registry and builds the
 * object graphs.
 */
class MicroWorkloads
{
  public:
    /** Registers TreeNode2/TreeNode8/ListNode/GraphNode classes. */
    explicit MicroWorkloads(KlassRegistry &registry);

    /**
     * Build the graph for @p mb in @p heap.
     *
     * @param scale_div divide the paper's node counts by this factor
     *                  (>=1); counts are clamped to small minimums
     * @param seed      deterministic seed for values/edges
     * @return the root object
     */
    Addr build(Heap &heap, MicroBench mb, std::uint64_t scale_div = 1,
               std::uint64_t seed = 1) const;

    /**
     * Build a binary/k-ary tree with exactly @p nodes nodes (complete
     * tree shape, breadth-first fill).
     */
    Addr buildTree(Heap &heap, unsigned fanout, std::uint64_t nodes,
                   Rng &rng) const;

    /** Build a singly linked list of @p length nodes. */
    Addr buildList(Heap &heap, std::uint64_t length, Rng &rng) const;

    /**
     * Build a random directed graph of @p nodes nodes with
     * @p edges_per_node outgoing edges each (self-edges allowed, so
     * cycles occur), plus a root holding a node array.
     */
    Addr buildGraph(Heap &heap, std::uint64_t nodes,
                    std::uint64_t edges_per_node, Rng &rng) const;

    KlassId graphNode() const { return graphNode_; }

  private:
    KlassRegistry *registry_;
    KlassId treeNode2_;
    KlassId treeNode8_;
    KlassId listNode_;
    KlassId graphNode_;
};

/** Paper-scale node counts for @p mb (Table II), before scaling. */
std::uint64_t microBenchPaperNodes(MicroBench mb);

} // namespace workloads
} // namespace cereal

#endif // CEREAL_WORKLOADS_MICRO_HH
