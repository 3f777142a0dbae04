/**
 * @file
 * The Cereal software interface (paper Section V-A).
 *
 * Mirrors the paper's API:
 *  - Initialize()      — reserve the accelerator's stream memory region;
 *  - RegisterClass()   — populate the Klass Pointer Table (CAM) and the
 *                        Class ID Table (SRAM) for one class;
 *  - WriteObject(oos, obj) — serialize an object graph into an
 *                        ObjectOutputStream;
 *  - ReadObject(ois)   — reconstruct the next object graph from an
 *                        ObjectInputStream.
 *
 * Each call runs the *functional* serializer (real bytes) and submits a
 * command to the *timing* device, returning both. The shared-object
 * fallback of Section V-E is exposed explicitly: when a caller knows a
 * concurrent unit owns an object's header area (unit-ID mismatch), it
 * requests the software fallback path, which is timed on a host core
 * model running the thread-local-hash-table algorithm.
 */

#ifndef CEREAL_CEREAL_API_HH
#define CEREAL_CEREAL_API_HH

#include <cstdint>
#include <vector>

#include "cereal/accel/device.hh"
#include "cereal/cereal_serializer.hh"
#include "cpu/core_model.hh"
#include "serde/decode_error.hh"

namespace cereal {

/** Append-only stream of serialized object records. */
class ObjectOutputStream
{
  public:
    /** Append one record. */
    void append(const std::vector<std::uint8_t> &record);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t records() const { return records_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t records_ = 0;
};

/** Sequential reader over an ObjectOutputStream's bytes. */
class ObjectInputStream
{
  public:
    explicit ObjectInputStream(const std::vector<std::uint8_t> &bytes)
        : buf_(&bytes)
    {
    }

    bool done() const { return pos_ >= buf_->size(); }

    /** Extract the next length-prefixed record. */
    std::vector<std::uint8_t> nextRecord();

  private:
    const std::vector<std::uint8_t> *buf_;
    std::size_t pos_ = 0;
};

/** Result of one WriteObject call. */
struct WriteObjectResult
{
    /** Structured stream (sizes, arrays) for analysis. */
    CerealStream stream;
    /** Accelerator timing (or software-fallback timing). */
    AccelOpResult timing;
    /** True if the software fallback path ran. */
    bool softwareFallback = false;
};

/** Result of one ReadObject call. */
struct ReadObjectResult
{
    /** Root of the reconstructed graph. */
    Addr root = 0;
    AccelOpResult timing;
};

/** One host-side Cereal session. */
class CerealContext
{
  public:
    /**
     * Initialize(): binds the context to a memory system and reserves
     * the accelerator configuration.
     */
    CerealContext(Dram &dram, AccelConfig cfg = AccelConfig(),
                  CerealOptions opts = CerealOptions());

    /** RegisterClass(): must cover every type serialized, both sides. */
    void registerClass(KlassId id);

    /** Register all classes of @p reg (tests/benches convenience). */
    void registerAll(const KlassRegistry &reg);

    /**
     * WriteObject(): serialize @p root into @p oos.
     *
     * @param submit simulated submit tick
     * @param shared_conflict caller detected another unit's live claim
     *        on the graph (Section V-E) — take the software fallback
     */
    WriteObjectResult writeObject(ObjectOutputStream &oos, Heap &src,
                                  Addr root, Tick submit = 0,
                                  bool shared_conflict = false);

    /**
     * ReadObject(): reconstruct the next record of @p ois into @p dst.
     * Throws DecodeError on malformed input; never aborts.
     */
    ReadObjectResult readObject(ObjectInputStream &ois, Heap &dst,
                                Tick submit = 0);

    CerealDevice &device() { return device_; }
    CerealSerializer &serializer() { return serializer_; }
    Dram &dram() { return *dram_; }

  private:
    Dram *dram_;
    CerealDevice device_;
    CerealSerializer serializer_;
    /** Ambient trace root captured at construction ("cereal" track). */
    trace::TraceEmitter trace_;
};

} // namespace cereal

#endif // CEREAL_CEREAL_API_HH
