#include "cluster/frame.hh"

#include "serde/bytes.hh"
#include "serde/registry.hh"

namespace cereal {

const char *
frameFormatName(std::uint8_t id)
{
    const auto *b = serde::findBackendByFormat(id);
    return b != nullptr ? b->name : "?";
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

inline void
put16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

inline void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

/** Shared header validation; throws DecodeError like decodeFrame(). */
FrameInfo
decodeFrameInfoOrThrow(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r(bytes);

    const std::uint32_t magic = r.u32();
    decode_check(magic == kFrameMagic, DecodeStatus::BadMagic, 0,
                 "not a partition frame (magic 0x%08x)", magic);

    const std::uint8_t version = r.u8();
    decode_check(version == kFrameVersion, DecodeStatus::BadTag, 4,
                 "unsupported frame version %u", version);

    FrameInfo f;
    f.format = r.u8();
    decode_check(f.format < kFrameFormatCount, DecodeStatus::BadClass, 5,
                 "unknown serializer format id %u", f.format);

    f.flags = r.u16();
    decode_check(
        (f.flags & ~(kFrameFlagCompressed | kFrameFlagTraced)) == 0,
        DecodeStatus::Malformed, 6,
        "reserved frame flags set (0x%04x)", f.flags);

    f.srcNode = r.u32();
    f.dstNode = r.u32();
    f.partition = r.u32();

    f.payloadLen = r.u64();
    f.checksum = r.u64();

    std::size_t payloadOff = kFrameHeaderBytes;
    if (f.hasTrace()) {
        f.traceId = r.u64();
        f.spanId = r.u32();
        const std::uint32_t reserved = r.u32();
        decode_check(f.traceId != 0, DecodeStatus::Malformed,
                     kFrameHeaderBytes,
                     "traced frame carries the null trace id");
        decode_check(reserved == 0, DecodeStatus::Malformed,
                     kFrameHeaderBytes + 12,
                     "nonzero reserved word in trace extension (0x%08x)",
                     reserved);
        payloadOff += kFrameTraceExtBytes;
    }

    decode_check(f.payloadLen <= r.remaining(), DecodeStatus::Truncated,
                 r.pos(), "payload declares %llu bytes, %zu remain",
                 (unsigned long long)f.payloadLen, r.remaining());
    decode_check(f.payloadLen == r.remaining(), DecodeStatus::BadLength,
                 r.pos(),
                 "%zu trailing bytes after declared payload",
                 r.remaining() - static_cast<std::size_t>(f.payloadLen));

    f.payload = bytes.data() + payloadOff;
    return f;
}

} // namespace

void
encodeFrameInto(const FrameRef &f, std::uint64_t checksum,
                std::vector<std::uint8_t> &out)
{
    out.clear();
    out.reserve(kFrameHeaderBytes +
                (f.hasTrace() ? kFrameTraceExtBytes : 0) +
                static_cast<std::size_t>(f.payloadLen));
    put32(out, kFrameMagic);
    out.push_back(kFrameVersion);
    out.push_back(f.format);
    put16(out, f.flags);
    put32(out, f.srcNode);
    put32(out, f.dstNode);
    put32(out, f.partition);
    put64(out, f.payloadLen);
    put64(out, checksum);
    if (f.hasTrace()) {
        put64(out, f.traceId);
        put32(out, f.spanId);
        put32(out, 0); // reserved, must be zero
    }
    out.insert(out.end(), f.payload, f.payload + f.payloadLen);
}

std::vector<std::uint8_t>
encodeFrame(const Frame &f)
{
    FrameRef ref;
    static_cast<FrameHeader &>(ref) = f;
    ref.payload = f.payload.data();
    ref.payloadLen = f.payload.size();
    std::vector<std::uint8_t> out;
    encodeFrameInto(ref, fnv1a64(f.payload.data(), f.payload.size()),
                    out);
    return out;
}

Frame
decodeFrame(const std::vector<std::uint8_t> &bytes)
{
    const FrameInfo info = decodeFrameInfoOrThrow(bytes);

    Frame f;
    static_cast<FrameHeader &>(f) = info;
    f.payload.assign(info.payload, info.payload + info.payloadLen);

    const std::uint64_t computed =
        fnv1a64(f.payload.data(), f.payload.size());
    decode_check(computed == info.checksum, DecodeStatus::Malformed,
                 kFrameHeaderBytes - 8,
                 "payload checksum mismatch (stored %016llx, computed "
                 "%016llx)",
                 (unsigned long long)info.checksum,
                 (unsigned long long)computed);
    return f;
}

DecodeResult<FrameInfo>
tryDecodeFrameInfo(const std::vector<std::uint8_t> &bytes)
{
    try {
        return decodeFrameInfoOrThrow(bytes);
    } catch (const DecodeError &e) {
        return e;
    }
}

DecodeResult<Frame>
tryDecodeFrame(const std::vector<std::uint8_t> &bytes)
{
    try {
        return decodeFrame(bytes);
    } catch (const DecodeError &e) {
        return e;
    }
}

} // namespace cereal
