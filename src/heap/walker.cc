#include "heap/walker.hh"

#include <algorithm>
#include <cstring>

#include "heap/object_table.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

/**
 * One object with its class looked up and validated once. The walks
 * read its fields or elements straight from the view instead of paying
 * a klass lookup per field.
 */
struct Resolved
{
    const KlassDescriptor *klass;
    /** Total size of the object. */
    Addr bytes;
    /** Element count of an array; field count of an instance. */
    std::uint64_t count;
    /** Simulated address of the first element or field. */
    Addr bodyAt;
    /**
     * Host bytes of the elements (array) or of the fields, one 8 B slot
     * each in declaration order (instance).
     */
    const std::uint8_t *body;

    RefSlots refs() const { return RefSlots(*klass, bodyAt, count); }
};

Resolved
resolve(const Heap &heap, Addr obj)
{
    const KlassRegistry &reg = heap.registry();
    const KlassId id = heap.klassOf(obj);
    const KlassDescriptor &d = reg.klass(id);
    if (d.isArray()) {
        const std::uint64_t n =
            heap.load64(obj + Addr{reg.arrayLengthSlot()} * 8);
        const Addr at = obj + Addr{reg.arrayDataSlot()} * 8;
        return {&d, Addr{reg.arraySlots(id, n)} * 8, n, at,
                heap.view(at, n * fieldTypeBytes(d.elemType()))};
    }
    const Addr at = obj + Addr{reg.fieldSlot(id, 0)} * 8;
    return {&d, Addr{reg.instanceSlots(id)} * 8, d.numFields(), at,
            heap.view(at, Addr{d.numFields()} * 8)};
}

/** The 8 B slot @p i of @p body. */
std::uint64_t
slot(const std::uint8_t *body, std::uint64_t i)
{
    std::uint64_t v;
    std::memcpy(&v, body + i * 8, 8);
    return v;
}

/** Push the reference targets of @p r onto @p out in traversal order. */
void
collectRefs(const Resolved &r, std::vector<Addr> &out)
{
    const RefSlots refs = r.refs();
    for (std::uint64_t i = 0; i < refs.size(); ++i) {
        out.push_back(slot(r.body, refs.index(i)));
    }
}

/**
 * Set of one heap's objects: one bit per 8 B slot of the arena, so it
 * costs 1/64 of the heap's bytes and no hashing. It grows if the heap
 * does (a walk's visitor may allocate).
 */
class ObjectSet
{
  public:
    explicit ObjectSet(const Heap &heap)
        : heap_(&heap), bits_((heap.usedBytes() / 8 + 63) / 64)
    {
    }

    /** Add @p obj. @return true if it was not in the set. */
    bool
    insert(Addr obj)
    {
        panic_if(!heap_->contains(obj, 8), "object %#llx outside the heap",
                 (unsigned long long)obj);
        const Addr i = (obj - heap_->base()) / 8;
        if (i / 64 >= bits_.size()) {
            bits_.resize(i / 64 + 1);
        }
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        const bool fresh = !(bits_[i / 64] & bit);
        bits_[i / 64] |= bit;
        return fresh;
    }

  private:
    const Heap *heap_;
    std::vector<std::uint64_t> bits_;
};

} // namespace

RefSlots::RefSlots(const Heap &heap, Addr obj)
    : RefSlots(resolve(heap, obj).refs())
{
}

void
GraphWalker::walk(Addr root, const std::function<void(Addr)> &visit) const
{
    if (root == 0) {
        return;
    }
    ObjectSet seen(*heap_);
    // Explicit stack: object graphs (long lists) can be deep enough to
    // overflow the host call stack.
    std::vector<Addr> stack{root};
    std::vector<Addr> refs;
    while (!stack.empty()) {
        Addr obj = stack.back();
        stack.pop_back();
        if (obj == 0 || !seen.insert(obj)) {
            continue;
        }
        visit(obj);
        refs.clear();
        collectRefs(resolve(*heap_, obj), refs);
        // Push in reverse so the first declared reference is visited
        // first (proper DFS preorder).
        for (auto it = refs.rbegin(); it != refs.rend(); ++it) {
            stack.push_back(*it);
        }
    }
}

std::vector<Addr>
GraphWalker::reachable(Addr root) const
{
    std::vector<Addr> out;
    walk(root, [&](Addr a) { out.push_back(a); });
    return out;
}

GraphStats
GraphWalker::stats(Addr root) const
{
    GraphStats gs;
    if (root == 0) {
        return gs;
    }
    // An object's entry holds its depth from its discovery until its
    // visit, then kVisited.
    constexpr std::uint32_t kVisited = ~std::uint32_t{0};
    ObjectTable depth(*heap_);
    depth[root] = 1;
    std::vector<Addr> stack{root};
    std::vector<Addr> refs;
    while (!stack.empty()) {
        Addr obj = stack.back();
        stack.pop_back();
        std::uint32_t &e = depth[obj];
        if (e == kVisited) {
            continue;
        }
        const std::uint64_t d = e;
        e = kVisited;
        gs.maxDepth = std::max(gs.maxDepth, d);
        ++gs.objectCount;
        const Resolved r = resolve(*heap_, obj);
        gs.totalBytes += r.bytes;
        if (r.klass->isArray()) {
            ++gs.arrayCount;
        }
        refs.clear();
        collectRefs(r, refs);
        for (Addr ref : refs) {
            if (ref == 0) {
                ++gs.nullReferences;
                continue;
            }
            ++gs.referenceEdges;
            std::uint32_t &re = depth[ref];
            if (re != kVisited) {
                if (re == 0) {
                    re = static_cast<std::uint32_t>(d + 1);
                }
                stack.push_back(ref);
            }
        }
    }
    return gs;
}

namespace {

/** State for the pairwise isomorphism walk. */
struct EqContext
{
    Heap *ha;
    Heap *hb;
    /** a -> b's 8 B slot index in hb + 1, once a has been matched. */
    ObjectTable aToB;
    std::string *why;
    bool compareHash;

    bool
    fail(const std::string &msg)
    {
        if (why) {
            *why = msg;
        }
        return false;
    }
};

bool
objectsMatch(EqContext &ctx, Addr a, Addr b,
             std::vector<std::pair<Addr, Addr>> &work)
{
    const Resolved ra = resolve(*ctx.ha, a);
    const Resolved rb = resolve(*ctx.hb, b);
    const KlassDescriptor &da = *ra.klass;
    const KlassDescriptor &db = *rb.klass;

    // One registry holds one descriptor per class. Heaps on two
    // registries match classes by name, and the shapes must agree
    // before the views below are read side by side.
    if (&da != &db) {
        if (da.name() != db.name()) {
            return ctx.fail(strfmt("class mismatch: %s vs %s @ %#llx/%#llx",
                                   da.name().c_str(), db.name().c_str(),
                                   (unsigned long long)a,
                                   (unsigned long long)b));
        }
        if (da.isArray() != db.isArray() ||
            da.elemType() != db.elemType() ||
            da.numFields() != db.numFields()) {
            return ctx.fail(strfmt("class layout mismatch in %s",
                                   da.name().c_str()));
        }
    }

    if (ctx.compareHash && markword::hash(ctx.ha->load64(a)) !=
                               markword::hash(ctx.hb->load64(b))) {
        return ctx.fail(strfmt("identity hash mismatch in %s",
                               da.name().c_str()));
    }

    if (da.isArray()) {
        if (ra.count != rb.count) {
            return ctx.fail(strfmt("array length mismatch in %s: "
                                   "%llu vs %llu", da.name().c_str(),
                                   (unsigned long long)ra.count,
                                   (unsigned long long)rb.count));
        }
        const std::uint64_t n = ra.count;
        if (da.elemType() == FieldType::Reference) {
            for (std::uint64_t i = 0; i < n; ++i) {
                work.emplace_back(slot(ra.body, i), slot(rb.body, i));
            }
            return true;
        }
        const unsigned esz = fieldTypeBytes(da.elemType());
        if (std::memcmp(ra.body, rb.body, n * esz) != 0) {
            // The payloads differ somewhere: name the first element.
            std::uint64_t i = 0;
            while (std::memcmp(ra.body + i * esz, rb.body + i * esz,
                               esz) == 0) {
                ++i;
            }
            return ctx.fail(strfmt("array element %llu mismatch in %s",
                                   (unsigned long long)i,
                                   da.name().c_str()));
        }
        return true;
    }

    for (std::uint32_t i = 0; i < ra.count; ++i) {
        const auto &f = da.fields()[i];
        const std::uint64_t va = slot(ra.body, i);
        const std::uint64_t vb = slot(rb.body, i);
        if (f.type == FieldType::Reference) {
            work.emplace_back(va, vb);
        } else if (va != vb) {
            return ctx.fail(strfmt("field '%s' mismatch in %s",
                                   f.name.c_str(), da.name().c_str()));
        }
    }
    return true;
}

} // namespace

bool
graphEquals(Heap &heap_a, Addr root_a, Heap &heap_b, Addr root_b,
            std::string *why, bool compare_identity_hash,
            std::uint64_t *objects)
{
    EqContext ctx{&heap_a, &heap_b, ObjectTable(heap_a), why,
                  compare_identity_hash};
    std::uint64_t matched = 0;

    std::vector<std::pair<Addr, Addr>> work{{root_a, root_b}};
    while (!work.empty()) {
        auto [a, b] = work.back();
        work.pop_back();
        if (a == 0 || b == 0) {
            if (a != b) {
                return ctx.fail("null vs non-null reference");
            }
            continue;
        }
        std::uint32_t &seen = ctx.aToB[a];
        const std::uint32_t b_entry =
            ObjectTable::entry(ObjectTable::slot(heap_b, b));
        if (seen != 0) {
            // Aliasing structure must be preserved: a previously visited
            // object must map to the same counterpart.
            if (seen != b_entry) {
                return ctx.fail("sharing (aliasing) structure mismatch");
            }
            continue;
        }
        seen = b_entry;
        ++matched;
        if (!objectsMatch(ctx, a, b, work)) {
            return false;
        }
    }
    if (objects) {
        *objects = matched;
    }
    return true;
}

} // namespace cereal
