/**
 * @file
 * The Cereal serialization format (paper Section IV, Figures 4 and 5).
 *
 * A serialized graph is three decoupled structures plus one size word:
 *
 *  - **value array**: for every object, in discovery order, the 8 B
 *    slots that are *not* references — the header (mark word, class ID
 *    in place of the klass pointer, Cereal extension slot) and all
 *    primitive fields / array payload;
 *  - **reference array**: one entry per reference *slot*, in slot order
 *    (objects in discovery order, slots low to high): the target
 *    object's relative address in the deserialized image, divided by 8
 *    (objects are 8 B aligned), biased by +1 so that 0 encodes null;
 *  - **layout bitmaps**: per object, one bit per 8 B slot (1 = that
 *    slot holds a reference). Bitmap lengths delimit objects and give
 *    their sizes (bits x 8 B);
 *  - **total graph size** (4 B): the deserializer's allocation length.
 *
 * Both the reference array and the bitmaps go through the *object
 * packing* scheme of Section IV-B: each entry keeps only its
 * significant bits behind a marker '1' bit, is padded to whole 1 B
 * buckets, and a parallel *end map* (one bit per bucket) marks each
 * entry's final bucket. Decoding gathers buckets up to an end-map '1',
 * skips leading zeros up to the marker, and takes the rest verbatim.
 *
 * Decoupling values from references is what exposes the block-level
 * parallelism the DU exploits: a 64 B output block can be rebuilt from
 * (bitmap chunk, next values, next references) without touching any
 * other block.
 */

#ifndef CEREAL_CEREAL_FORMAT_HH
#define CEREAL_CEREAL_FORMAT_HH

#include <cstdint>
#include <vector>

#include "heap/klass.hh"
#include "sim/types.hh"

namespace cereal {

/**
 * Packs bit strings into byte buckets with an end map (Figure 5).
 *
 * Bits are emitted MSB-first inside each value's bucket run; each run
 * is preceded by a marker '1' and left-padded with zeros to a whole
 * number of bytes. Buckets are written whole: a value's run is its
 * significant bits with the marker OR-ed in above them, and a bitmap's
 * run is read from the bitmap eight bits at a time.
 */
class ObjectPacker
{
  public:
    /** Append an arbitrary bit string (used for layout bitmaps). */
    void packBits(const SlotBitmap &bits);

    /** Append an unsigned value's significant bits (references). */
    void packValue(std::uint64_t v);

    const std::vector<std::uint8_t> &buckets() const { return buckets_; }
    /** End map: bit i set iff bucket i ends an entry (bit 0 = LSB of
     *  byte 0). */
    const std::vector<std::uint8_t> &endMap() const { return endMap_; }

    /** Number of packed entries. */
    std::uint64_t entries() const { return entries_; }

    /** Total packed size: buckets + end map, bytes. */
    std::uint64_t
    packedBytes() const
    {
        return buckets_.size() + endMap_.size();
    }

    /** Move the buckets and end map out; the packer is left empty. */
    void
    moveTo(std::vector<std::uint8_t> &buckets,
           std::vector<std::uint8_t> &end_map)
    {
        buckets = std::move(buckets_);
        end_map = std::move(endMap_);
        buckets_.clear();
        endMap_.clear();
        entries_ = 0;
    }

  private:
    /** Mark the last bucket as the end of an entry. */
    void endEntry();

    std::vector<std::uint8_t> buckets_;
    std::vector<std::uint8_t> endMap_;
    std::uint64_t entries_ = 0;
};

/** Decodes an ObjectPacker stream. */
class ObjectUnpacker
{
  public:
    ObjectUnpacker(const std::vector<std::uint8_t> &buckets,
                   const std::vector<std::uint8_t> &end_map)
        : buckets_(&buckets), endMap_(&end_map)
    {
    }

    /** True when no more entries remain. */
    bool done() const { return pos_ >= buckets_->size(); }

    /**
     * Next entry as a bit string (marker and padding removed), decoded
     * into the caller's @p words. The view borrows @p words, so it is
     * valid until @p words next changes; reusing one buffer across
     * calls keeps decoding allocation-free.
     */
    SlotBitmap nextBits(std::vector<std::uint64_t> &words);

    /** Next entry interpreted as an unsigned value. */
    std::uint64_t nextValue();

  private:
    bool endsEntry(std::size_t bucket) const;

    /** Consume the next entry's bucket run; @return its first bucket
     *  (the run ends at pos_). */
    std::size_t nextRun();

    /** Marker bit of run [first, pos_), MSB-first from its first
     *  bucket. */
    std::size_t markerBit(std::size_t first) const;

    const std::vector<std::uint8_t> *buckets_;
    const std::vector<std::uint8_t> *endMap_;
    std::size_t pos_ = 0;
};

/** Reference-array entry encoding: +1-biased slot index; 0 is null. */
constexpr std::uint64_t
encodeRelRef(Addr rel_bytes)
{
    return rel_bytes / 8 + 1;
}

/** Inverse of encodeRelRef for non-null entries. */
constexpr Addr
decodeRelRef(std::uint64_t token)
{
    return (token - 1) * 8;
}

/** Null token in the reference array. */
constexpr std::uint64_t kNullRefToken = 0;

/** The in-memory form of one serialized object graph. */
struct CerealStream
{
    /** Non-reference slots, 8 B each, objects in discovery order. */
    std::vector<std::uint64_t> valueArray;
    /** Packed reference array + its end map. */
    std::vector<std::uint8_t> refBuckets;
    std::vector<std::uint8_t> refEndMap;
    /** Packed per-object layout bitmaps + end map. */
    std::vector<std::uint8_t> bitmapBuckets;
    std::vector<std::uint8_t> bitmapEndMap;
    /** Sum of object sizes = deserialized image size, bytes. */
    std::uint32_t totalGraphBytes = 0;
    /** Number of serialized objects. */
    std::uint32_t objectCount = 0;
    /** Number of reference-array entries (reference slots). */
    std::uint64_t refEntries = 0;
    /** Total layout-bitmap bits (= graph slots). */
    std::uint64_t bitmapBits = 0;
    /** True when mark words were stripped from the value array. */
    bool headerStripped = false;

    /** Total serialized size in bytes (what Table IV reports). */
    std::uint64_t serializedBytes() const;

    /** Size the *unpacked* baseline format (Section IV-A) would take. */
    std::uint64_t baselineBytes() const;

    /** Flatten to a transportable byte stream. */
    std::vector<std::uint8_t> encode() const;

    /** Parse a byte stream produced by encode(). */
    static CerealStream decode(const std::vector<std::uint8_t> &bytes);
};

} // namespace cereal

#endif // CEREAL_CEREAL_FORMAT_HH
