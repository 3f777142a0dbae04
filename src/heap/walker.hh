/**
 * @file
 * Object-graph traversal and structural comparison utilities.
 *
 * GraphWalker performs the recursive object-graph traversal that every
 * serializer needs (Section II): depth-first from a root, visiting each
 * reachable object once, in a deterministic order (reference fields in
 * declaration order; array elements in index order). Graph equality
 * checks that two heaps hold isomorphic graphs — the correctness oracle
 * for every serialize/deserialize round trip in the test suite.
 */

#ifndef CEREAL_HEAP_WALKER_HH
#define CEREAL_HEAP_WALKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "heap/heap.hh"

namespace cereal {

/**
 * Where one object's references sit: the 8 B slots of its body (an
 * instance's fields, an array's elements) that hold one, in traversal
 * order: reference fields in declaration order, array elements by
 * index. The walks below and the deserializers' in-place reference
 * resolution share this one definition.
 */
class RefSlots
{
  public:
    /** The slots of the object at @p obj; reads its class once. */
    RefSlots(const Heap &heap, Addr obj);

    /**
     * The slots of a @p d object whose body starts at @p body and
     * holds @p count fields or elements.
     */
    RefSlots(const KlassDescriptor &d, Addr body, std::uint64_t count)
        : fields_(d.isArray() ? nullptr : d.refFields().data()),
          size_(d.isArray() ? (d.elemType() == FieldType::Reference ? count
                                                                   : 0)
                            : d.refFields().size()),
          body_(body)
    {
    }

    /** Number of reference slots. */
    std::uint64_t size() const { return size_; }

    /** Body slot index of reference @p i. */
    std::uint64_t index(std::uint64_t i) const
    {
        return fields_ ? fields_[i] : i;
    }

    /** Address of reference slot @p i. */
    Addr operator[](std::uint64_t i) const { return body_ + index(i) * 8; }

  private:
    /** An instance's reference field indices; null for an array. */
    const std::uint32_t *fields_;
    std::uint64_t size_;
    Addr body_;
};

/**
 * Call @p f with the address of every reference slot of @p heap's
 * objects from allocation index @p first on: objects in allocation
 * order, each one's slots in RefSlots order. This is the order in which
 * a decoder's record pass reads references, so a decoder can leave
 * each reference's stream token in its slot and then resolve them all
 * in place, in stream order. @p f may store to the slots but must not
 * allocate in @p heap.
 */
template <class F>
void
forEachRefSlot(const Heap &heap, std::size_t first, F &&f)
{
    for (std::size_t k = first; k < heap.objectCount(); ++k) {
        const RefSlots refs(heap, heap.objects()[k]);
        for (std::uint64_t i = 0; i < refs.size(); ++i) {
            f(refs[i]);
        }
    }
}

/** Summary statistics of one reachable object graph. */
struct GraphStats
{
    std::uint64_t objectCount = 0;
    std::uint64_t totalBytes = 0;
    std::uint64_t referenceEdges = 0;
    std::uint64_t nullReferences = 0;
    std::uint64_t arrayCount = 0;
    std::uint64_t maxDepth = 0;
};

/** Depth-first object graph traversal. */
class GraphWalker
{
  public:
    explicit GraphWalker(Heap &heap) : heap_(&heap) {}

    /**
     * Visit every object reachable from @p root exactly once, calling
     * @p visit in discovery (pre) order.
     */
    void walk(Addr root, const std::function<void(Addr)> &visit) const;

    /** All reachable objects from @p root in discovery order. */
    std::vector<Addr> reachable(Addr root) const;

    /** Aggregate statistics of the graph rooted at @p root. */
    GraphStats stats(Addr root) const;

  private:
    Heap *heap_;
};

/**
 * Check that the graphs rooted at (heap_a, root_a) and (heap_b, root_b)
 * are isomorphic: same classes, same primitive values, same reference
 * shape (including aliasing/sharing and null positions).
 *
 * @param why when non-null, receives a description of the first
 *            mismatch found
 * @param compare_identity_hash when true, mark-word identity hash codes
 *            must match as well (serializers that strip headers
 *            legitimately lose them)
 * @param objects when non-null and the graphs match, receives the number
 *            of objects reachable from root_a
 */
bool graphEquals(Heap &heap_a, Addr root_a, Heap &heap_b, Addr root_b,
                 std::string *why = nullptr,
                 bool compare_identity_hash = false,
                 std::uint64_t *objects = nullptr);

} // namespace cereal

#endif // CEREAL_HEAP_WALKER_HH
