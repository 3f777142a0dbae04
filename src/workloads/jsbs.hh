/**
 * @file
 * Java Serialization Benchmark Suite model (paper Section VI-C,
 * Figure 12).
 *
 * JSBS (jvm-serializers) serializes a fixed MediaContent object graph —
 * a Media record with two Images and associated strings — through ~90
 * serializer libraries. This module provides:
 *
 *  - the MediaContent object-graph builder (classes, strings as char[]
 *    arrays, the standard field complement);
 *  - a profile table of the suite's 88 libraries plus the two
 *    post-paper backends (plaincode, hps). Anchors (java built-in,
 *    kryo, plaincode, hps) are *measured* against our real
 *    implementations; the remaining entries are calibrated relative
 *    profiles spanning
 *    the suite's documented performance spread (fast hand-rolled binary
 *    codecs ... reflective JSON/XML stacks), so the Figure 12
 *    distribution — Cereal 43.4x the suite average, 15.1x the fastest
 *    library — can be reproduced without 85 third-party codebases.
 */

#ifndef CEREAL_WORKLOADS_JSBS_HH
#define CEREAL_WORKLOADS_JSBS_HH

#include <string>
#include <vector>

#include "heap/heap.hh"

namespace cereal {
namespace workloads {

/** One library's profile relative to the measured Java built-in S/D. */
struct JsbsLibrary
{
    std::string name;
    /** Serialization time relative to java-built-in (lower=faster). */
    double serFactor;
    /** Deserialization time relative to java-built-in. */
    double deserFactor;
    /** Serialized size relative to java-built-in. */
    double sizeFactor;
    /** True when the entry is measured, not profiled. */
    bool measured;
};

/** Builder for the JSBS MediaContent graph. */
class JsbsWorkload
{
  public:
    explicit JsbsWorkload(KlassRegistry &registry);

    /**
     * Build one MediaContent instance (Media + 2 Images + strings).
     * @param seed varies string contents deterministically
     */
    Addr buildMediaContent(Heap &heap, std::uint64_t seed = 1) const;

    /**
     * Build an array of @p n MediaContent instances (the suite times
     * repeated S/D over the same shape).
     */
    Addr buildBatch(Heap &heap, std::uint64_t n,
                    std::uint64_t seed = 1) const;

  private:
    Addr makeString(Heap &heap, const std::string &s) const;

    KlassRegistry *registry_;
    KlassId mediaContent_;
    KlassId media_;
    KlassId image_;
};

/**
 * The library profile table — the suite's 88 entries plus the two
 * post-paper measured backends (anchors flagged `measured`).
 * Ordered roughly fastest-first as the suite's charts are.
 */
const std::vector<JsbsLibrary> &jsbsLibraries();

} // namespace workloads
} // namespace cereal

#endif // CEREAL_WORKLOADS_JSBS_HH
