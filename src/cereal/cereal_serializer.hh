/**
 * @file
 * Functional implementation of Cereal serialization/deserialization.
 *
 * This is the algorithm the Cereal hardware executes (paper Section V),
 * implemented as a software reference: it produces and consumes real
 * CerealStream byte streams and is the functional half of the
 * accelerator model (the timing half lives in cereal/accel). It follows
 * the hardware's structure exactly:
 *
 *  - objects are discovered in reference-arrival order (BFS), the order
 *    the header manager sees them;
 *  - visited tracking uses the 16-bit serialization counter in the
 *    object's extension header word (Section V-E), drawn per heap; on
 *    counter wrap the heap's metadata is cleared, mimicking the
 *    GC-assisted reset;
 *  - klass pointers are translated to dense class IDs via the
 *    registered-class table (the Klass Pointer Table CAM holds at most
 *    kMaxClasses entries);
 *  - relative addresses accumulate the sizes of previously serialized
 *    objects, exactly as the header manager's counter does.
 */

#ifndef CEREAL_CEREAL_CEREAL_SERIALIZER_HH
#define CEREAL_CEREAL_CEREAL_SERIALIZER_HH

#include <vector>

#include "cereal/format.hh"
#include "serde/serializer.hh"

namespace cereal {

/** Capacity of the Klass Pointer Table / Class ID Table (Section V-E). */
constexpr std::size_t kMaxClasses = 4096;

/** Options for the Cereal format. */
struct CerealOptions
{
    /**
     * Strip mark words from the value array (Figure 16 "Header Strip").
     * Identity hash codes are regenerated on deserialization.
     */
    bool headerStrip = false;
};

/** Functional Cereal serializer/deserializer. */
class CerealSerializer : public Serializer
{
  public:
    explicit CerealSerializer(CerealOptions opts = CerealOptions())
        : opts_(opts)
    {
    }

    std::string name() const override { return "cereal"; }

    /**
     * Register a class for S/D; mirrors the RegisterClass() API call
     * that populates the hardware's CAM/SRAM tables.
     */
    void registerClass(KlassId id);

    /** Register every class in @p reg (tests/benches). */
    void registerAll(const KlassRegistry &reg);

    std::vector<std::uint8_t>
    serialize(Heap &src, Addr root, MemSink *sink = nullptr) override;

    Addr deserialize(const std::vector<std::uint8_t> &stream, Heap &dst,
                     MemSink *sink = nullptr) override;

    /** Structured serialization (keeps the three arrays separate). */
    CerealStream serializeToStream(Heap &src, Addr root);

    /** Structured deserialization. */
    Addr deserializeStream(const CerealStream &s, Heap &dst);

    /** Dense class ID of @p id (must be registered). */
    std::uint32_t classIdOf(KlassId id) const;

    /** Unit ID stamped into extension words (shared-object support). */
    std::uint8_t unitId() const { return unitId_; }

  private:
    /** toClassId_ entry of a class that is not registered. */
    static constexpr std::uint32_t kNoClassId = ~std::uint32_t{0};

    CerealOptions opts_;
    /** Klass Pointer Table, indexed by KlassId. */
    std::vector<std::uint32_t> toClassId_;
    std::vector<KlassId> fromClassId_;
    /**
     * Per-instance unit ID stamped beside the counter (Section V-E).
     * It wraps after 256 serializers; the counter, drawn from the heap,
     * is what keeps two serializations' visited marks apart.
     */
    std::uint8_t unitId_ = nextUnitId();

    static std::uint8_t nextUnitId();
};

} // namespace cereal

#endif // CEREAL_CEREAL_CEREAL_SERIALIZER_HH
