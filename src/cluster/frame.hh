/**
 * @file
 * Partition-frame wire format for the cluster shuffle fabric.
 *
 * Every serialized partition a node pushes onto the wire is wrapped in
 * one frame so the receiver can route it (source, destination,
 * partition id), pick the right deserializer (format id), and detect
 * corruption before handing the payload to a decoder (FNV-1a-64
 * checksum). Like the serializer formats, the decoder treats the input
 * as hostile: every violation is a typed DecodeError, never an abort.
 *
 * Layout (little-endian, 36-byte header):
 *
 *   u32 magic      'C' 'F' 'R' 'M'
 *   u8  version    kFrameVersion
 *   u8  format     serializer id (0=java 1=kryo 2=skyway 3=cereal
 *                  4=plaincode 5=hps)
 *   u16 flags      bit0 = payload is LZ-compressed; others reserved
 *   u32 srcNode
 *   u32 dstNode
 *   u32 partition
 *   u64 payloadLen
 *   u64 checksum   FNV-1a-64 over the payload bytes
 *   [trace-context extension, 16 bytes, iff flags bit1:
 *      u64 traceId   nonzero request/batch trace id
 *      u32 spanId    request class / dataflow stage index
 *      u32 reserved  must be zero]
 *   payloadLen payload bytes (the frame ends exactly here)
 *
 * The trace extension rides between the fixed header and the payload so
 * a traced frame is 16 bytes longer on the wire — tracing overhead is
 * modeled, not free. It is covered by the same hardened-decoder
 * contract as the rest of the header: truncated extensions are
 * Truncated, a nonzero reserved word is Malformed, and a decoded frame
 * re-encodes to identical bytes.
 */

#ifndef CEREAL_CLUSTER_FRAME_HH
#define CEREAL_CLUSTER_FRAME_HH

#include <cstdint>
#include <vector>

#include "serde/decode_error.hh"

namespace cereal {

/** 'CFRM' as read back by a little-endian u32 load. */
constexpr std::uint32_t kFrameMagic = 0x4D524643;

constexpr std::uint8_t kFrameVersion = 1;

/** Number of serializer format ids (valid ids are [0, count)). */
constexpr std::uint8_t kFrameFormatCount = 6;

/** flags bit0: payload went through the LZ shuffle codec. */
constexpr std::uint16_t kFrameFlagCompressed = 0x0001;

/** flags bit1: a 16-byte trace-context extension follows the header. */
constexpr std::uint16_t kFrameFlagTraced = 0x0002;

/** Header bytes preceding the payload (or the trace extension). */
constexpr std::size_t kFrameHeaderBytes = 36;

/** Trace-context extension bytes (present iff kFrameFlagTraced). */
constexpr std::size_t kFrameTraceExtBytes = 16;

/** The routing and trace fields of a frame header. */
struct FrameHeader
{
    std::uint8_t format = 0;
    std::uint16_t flags = 0;
    std::uint32_t srcNode = 0;
    std::uint32_t dstNode = 0;
    std::uint32_t partition = 0;
    /** Trace context (meaningful iff flags has kFrameFlagTraced). */
    std::uint64_t traceId = 0;
    std::uint32_t spanId = 0;

    bool hasTrace() const { return (flags & kFrameFlagTraced) != 0; }
};

/** One framed partition. */
struct Frame : FrameHeader
{
    std::vector<std::uint8_t> payload;
};

/**
 * A frame whose payload bytes are owned elsewhere (zero-copy encode).
 *
 * The cluster simulator sends the same profiled partition payload
 * thousands of times per run; FrameRef lets the send path reference it
 * in place instead of copying it into a Frame first.
 */
struct FrameRef : FrameHeader
{
    const std::uint8_t *payload = nullptr;
    std::uint64_t payloadLen = 0;
};

/**
 * Header view of a validated frame (zero-copy decode): all header
 * fields plus a payload pointer into the caller's buffer. The stored
 * checksum is NOT recomputed — callers that already know the expected
 * payload checksum compare against it; hostile input goes through
 * decodeFrame.
 */
struct FrameInfo : FrameRef
{
    /** Checksum as stored in the header (not recomputed). */
    std::uint64_t checksum = 0;
};

/** Printable serializer name of frame format id @p id ("?" if bad). */
const char *frameFormatName(std::uint8_t id);

/** FNV-1a 64-bit hash of @p data (the frame payload checksum). */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t n);

/** Encode @p f; a decoded frame re-encodes to identical bytes. */
std::vector<std::uint8_t> encodeFrame(const Frame &f);

/**
 * Encode @p f into @p out (cleared first; its capacity is reused, so
 * pooled buffers make steady-state sends allocation-free). @p checksum
 * must be fnv1a64 over the payload — callers cache it once per payload
 * instead of re-hashing hundreds of kilobytes per send. Produces bytes
 * identical to encodeFrame().
 */
void encodeFrameInto(const FrameRef &f, std::uint64_t checksum,
                     std::vector<std::uint8_t> &out);

/**
 * Decode one frame occupying the whole of @p bytes.
 *
 * Trailing bytes after the declared payload are an error (BadLength):
 * the fabric delivers exact frames, so slack means corruption.
 *
 * @throws DecodeError on any malformed input
 */
Frame decodeFrame(const std::vector<std::uint8_t> &bytes);

/** Exception-free decodeFrame(). */
DecodeResult<Frame> tryDecodeFrame(const std::vector<std::uint8_t> &bytes);

/**
 * Validate the frame header of @p bytes and return a zero-copy view.
 *
 * Performs every structural check decodeFrame() does (magic, version,
 * format id, reserved flags, exact payload length) but neither copies
 * the payload nor recomputes its checksum; FrameInfo::checksum is the
 * stored value for the caller to compare against a known-good hash.
 * The view borrows @p bytes and dies with it.
 */
DecodeResult<FrameInfo>
tryDecodeFrameInfo(const std::vector<std::uint8_t> &bytes);

} // namespace cereal

#endif // CEREAL_CLUSTER_FRAME_HH
