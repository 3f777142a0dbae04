/**
 * @file
 * Byte-stream writer/reader used by all serialization formats.
 *
 * Both classes optionally narrate their traffic to a MemSink: appends
 * become sequential stores at kStreamBase and reads become sequential
 * loads, so the timing model sees the streaming access pattern that the
 * real serializers exhibit.
 */

#ifndef CEREAL_SERDE_BYTES_HH
#define CEREAL_SERDE_BYTES_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "serde/decode_error.hh"
#include "serde/sink.hh"
#include "sim/logging.hh"

namespace cereal {

/** Append-only byte buffer with little-endian primitives. */
class ByteWriter
{
  public:
    explicit ByteWriter(MemSink *sink = nullptr) : sink_(sink) {}

    std::size_t size() const { return buf_.size(); }
    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    void
    u8(std::uint8_t v)
    {
        note(1);
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        raw(&v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        raw(&v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        raw(&v, 8);
    }

    /** LEB128-style unsigned varint (1-10 bytes). */
    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            u8(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<std::uint8_t>(v));
    }

    /** Length-prefixed UTF-8 string. */
    void
    str(const std::string &s)
    {
        u16(static_cast<std::uint16_t>(s.size()));
        raw(s.data(), s.size());
    }

    void
    raw(const void *src, std::size_t n)
    {
        note(n);
        const auto *p = static_cast<const std::uint8_t *>(src);
        buf_.insert(buf_.end(), p, p + n);
    }

    /** Patch a previously written u32 at byte offset @p at. */
    void
    patchU32(std::size_t at, std::uint32_t v)
    {
        panic_if(at + 4 > buf_.size(), "patch out of range");
        std::memcpy(buf_.data() + at, &v, 4);
    }

  private:
    void
    note(std::size_t n)
    {
        if (sink_) {
            sink_->store(kStreamBase + buf_.size(),
                         static_cast<std::uint32_t>(n));
        }
    }

    std::vector<std::uint8_t> buf_;
    MemSink *sink_;
};

/**
 * Sequential reader over a serialized byte stream.
 *
 * All reads are bounds-checked against the buffer and report failure by
 * throwing DecodeError (never panic/abort): the reader is the first line
 * of defence for decoders consuming hostile bytes. Comparisons are done
 * against remaining() so an attacker-controlled length can never wrap
 * the `pos + n` arithmetic.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<std::uint8_t> &buf,
                        MemSink *sink = nullptr)
        : buf_(&buf), sink_(sink)
    {
    }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return buf_->size() - pos_; }
    bool done() const { return pos_ >= buf_->size(); }

    std::uint8_t
    u8()
    {
        std::uint8_t v;
        raw(&v, 1);
        return v;
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v;
        raw(&v, 2);
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        raw(&v, 4);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v;
        raw(&v, 8);
        return v;
    }

    /**
     * LEB128-style unsigned varint (1-10 bytes).
     *
     * Throws DecodeError on a non-terminated varint (Truncated) and on
     * overlong encodings: more than 10 bytes, or a 10th byte carrying
     * bits that overflow 64 bits (BadVarint).
     */
    std::uint64_t
    varint()
    {
        const std::size_t start = pos_;
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            std::uint8_t b = u8();
            if (shift == 63 && (b & 0xfe)) {
                throwDecode(DecodeStatus::BadVarint, start,
                            "varint overflows 64 bits");
            }
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80)) {
                break;
            }
            shift += 7;
            if (shift > 63) {
                throwDecode(DecodeStatus::BadVarint, start,
                            "varint longer than 10 bytes");
            }
        }
        return v;
    }

    std::string
    str()
    {
        std::uint16_t n = u16();
        std::string s(n, '\0');
        raw(s.data(), n);
        return s;
    }

    void
    raw(void *dst, std::size_t n)
    {
        const std::uint8_t *src = next(n);
        if (n != 0) { // zero-length reads may pass dst == nullptr
            std::memcpy(dst, src, n);
        }
    }

    /**
     * Consume the next @p n bytes and return a pointer to them, valid
     * while the underlying buffer lives: a read with no copy.
     */
    const std::uint8_t *
    next(std::size_t n)
    {
        // Compare against remaining(): `pos_ + n` would wrap when a
        // corrupted length field yields a huge n.
        if (n > remaining()) {
            throwDecode(DecodeStatus::Truncated, pos_,
                        "stream underflow (+%zu of %zu remaining)", n,
                        remaining());
        }
        const std::uint8_t *p = buf_->data() + pos_;
        if (n != 0 && sink_) {
            sink_->load(kStreamBase + pos_,
                        static_cast<std::uint32_t>(n));
        }
        pos_ += n;
        return p;
    }

    void
    skip(std::size_t n)
    {
        if (n > remaining()) {
            throwDecode(DecodeStatus::Truncated, pos_,
                        "skip past end (+%zu of %zu remaining)", n,
                        remaining());
        }
        pos_ += n;
    }

  private:
    const std::vector<std::uint8_t> *buf_;
    std::size_t pos_ = 0;
    MemSink *sink_;
};

} // namespace cereal

#endif // CEREAL_SERDE_BYTES_HH
