#include "cereal/format.hh"

#include <array>
#include <bit>
#include <cstring>

#include "serde/decode_error.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

/** Byte bit-reversal: converts between MSB-first bucket order and the
 *  LSB-first order of SlotBitmap words. */
constexpr std::array<std::uint8_t, 256> kReversed = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned r = 0;
        for (unsigned i = 0; i < 8; ++i) {
            r |= ((b >> i) & 1u) << (7 - i);
        }
        t[b] = static_cast<std::uint8_t>(r);
    }
    return t;
}();

} // namespace

void
ObjectPacker::endEntry()
{
    const std::size_t last = buckets_.size() - 1;
    endMap_.resize((buckets_.size() + 7) / 8);
    endMap_[last / 8] |= static_cast<std::uint8_t>(1u << (last % 8));
    ++entries_;
}

void
ObjectPacker::packBits(const SlotBitmap &bits)
{
    // n = 8q + r bits plus the marker take q + 1 buckets. The first
    // holds 7 - r padding zeros, the marker and bits [0, r); each later
    // bucket holds the next eight bits, MSB first.
    const std::size_t n = bits.size();
    const auto head = static_cast<unsigned>(n % 8);
    std::uint8_t first = static_cast<std::uint8_t>(1u << head);
    if (head > 0) {
        first |= static_cast<std::uint8_t>(
            kReversed[bits.chunk(0, head)] >> (8 - head));
    }
    buckets_.push_back(first);
    for (std::size_t i = head; i < n; i += 8) {
        buckets_.push_back(kReversed[bits.chunk(i, 8)]);
    }
    endEntry();
}

void
ObjectPacker::packValue(std::uint64_t v)
{
    // Significant bits behind a marker '1', MSB first; zero contributes
    // no payload bits. A w-bit value takes w / 8 + 1 buckets (at most
    // 9: a 64-bit value's marker sits alone in its first bucket).
    const auto width = static_cast<unsigned>(std::bit_width(v));
    unsigned n = width / 8 + 1;
    if (n == 9) {
        buckets_.push_back(1);
        n = 8;
    } else {
        v |= std::uint64_t{1} << width;
    }
    for (unsigned i = n; i-- > 0;) {
        buckets_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    endEntry();
}

bool
ObjectUnpacker::endsEntry(std::size_t bucket) const
{
    decode_check(bucket / 8 < endMap_->size(), DecodeStatus::Truncated,
                 bucket, "end map shorter than bucket array");
    return ((*endMap_)[bucket / 8] >> (bucket % 8)) & 1;
}

std::size_t
ObjectUnpacker::nextRun()
{
    decode_check(!done(), DecodeStatus::Truncated, pos_,
                 "unpacker exhausted");
    const std::size_t first = pos_;
    while (!endsEntry(pos_)) {
        ++pos_;
        decode_check(pos_ < buckets_->size(), DecodeStatus::Truncated,
                     pos_, "unterminated packed entry");
    }
    ++pos_;
    return first;
}

std::size_t
ObjectUnpacker::markerBit(std::size_t first) const
{
    std::size_t b = first;
    while (b < pos_ && (*buckets_)[b] == 0) {
        ++b;
    }
    decode_check(b < pos_, DecodeStatus::Malformed, first,
                 "packed entry missing marker bit");
    return 8 * (b - first) +
           static_cast<std::size_t>(std::countl_zero((*buckets_)[b]));
}

SlotBitmap
ObjectUnpacker::nextBits(std::vector<std::uint64_t> &words)
{
    const std::size_t first = nextRun();
    // Payload: run bits after the marker, copied a bucket at a time.
    const std::size_t skip = markerBit(first) + 1;
    const std::size_t n = 8 * (pos_ - first) - skip;
    words.assign(n / 64 + 2, 0); // spare word absorbs the last spill
    std::size_t out = 0;
    for (std::size_t b = first + skip / 8; b < pos_; ++b) {
        const unsigned drop = b == first + skip / 8 ? skip % 8 : 0;
        const std::uint64_t v = kReversed[(*buckets_)[b]] >> drop;
        const unsigned sh = out % 64;
        words[out / 64] |= v << sh;
        if (sh + (8 - drop) > 64) {
            words[out / 64 + 1] |= v >> (64 - sh);
        }
        out += 8 - drop;
    }
    return SlotBitmap(words.data(), n);
}

std::uint64_t
ObjectUnpacker::nextValue()
{
    const std::size_t at = pos_;
    const std::size_t first = nextRun();
    const std::size_t marker = markerBit(first);
    decode_check(8 * (pos_ - first) - marker - 1 <= 64,
                 DecodeStatus::Malformed, at,
                 "packed value wider than 64 bits");
    // The marker bucket's bits below the marker, then whole buckets.
    const std::size_t mb = first + marker / 8;
    std::uint64_t v = (*buckets_)[mb] & ((1u << (7 - marker % 8)) - 1);
    for (std::size_t b = mb + 1; b < pos_; ++b) {
        v = (v << 8) | (*buckets_)[b];
    }
    return v;
}

std::uint64_t
CerealStream::serializedBytes() const
{
    return 4 /* total graph size */ + valueArray.size() * 8 +
           refBuckets.size() + refEndMap.size() + bitmapBuckets.size() +
           bitmapEndMap.size();
}

std::uint64_t
CerealStream::baselineBytes() const
{
    // Section IV-A without packing: full 8 B per reference, raw bitmap
    // bytes plus an 8 B bitmap-length word per object.
    return 4 + valueArray.size() * 8 + refEntries * 8 +
           (bitmapBits + 7) / 8 + std::uint64_t{objectCount} * 8;
}

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.insert(out.end(), reinterpret_cast<std::uint8_t *>(&v),
               reinterpret_cast<std::uint8_t *>(&v) + 4);
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    out.insert(out.end(), reinterpret_cast<std::uint8_t *>(&v),
               reinterpret_cast<std::uint8_t *>(&v) + 8);
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t &at)
{
    std::uint32_t v;
    decode_check(at <= in.size() && in.size() - at >= 4,
                 DecodeStatus::Truncated, at,
                 "CerealStream decode underflow");
    std::memcpy(&v, in.data() + at, 4);
    at += 4;
    return v;
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t &at)
{
    std::uint64_t v;
    decode_check(at <= in.size() && in.size() - at >= 8,
                 DecodeStatus::Truncated, at,
                 "CerealStream decode underflow");
    std::memcpy(&v, in.data() + at, 8);
    at += 8;
    return v;
}

constexpr std::uint32_t kStreamMagic = 0x4352454cu; // "CREL"

} // namespace

std::vector<std::uint8_t>
CerealStream::encode() const
{
    std::vector<std::uint8_t> out;
    putU32(out, kStreamMagic);
    putU32(out, objectCount);
    putU32(out, totalGraphBytes);
    out.push_back(headerStripped ? 1 : 0);
    putU64(out, valueArray.size());
    putU64(out, refBuckets.size());
    putU64(out, refEndMap.size());
    putU64(out, bitmapBuckets.size());
    putU64(out, bitmapEndMap.size());
    putU64(out, refEntries);
    putU64(out, bitmapBits);
    const auto *v = reinterpret_cast<const std::uint8_t *>(
        valueArray.data());
    out.insert(out.end(), v, v + valueArray.size() * 8);
    out.insert(out.end(), refBuckets.begin(), refBuckets.end());
    out.insert(out.end(), refEndMap.begin(), refEndMap.end());
    out.insert(out.end(), bitmapBuckets.begin(), bitmapBuckets.end());
    out.insert(out.end(), bitmapEndMap.begin(), bitmapEndMap.end());
    return out;
}

CerealStream
CerealStream::decode(const std::vector<std::uint8_t> &bytes)
{
    CerealStream s;
    std::size_t at = 0;
    decode_check(getU32(bytes, at) == kStreamMagic,
                 DecodeStatus::BadMagic, 0, "bad Cereal stream magic");
    s.objectCount = getU32(bytes, at);
    s.totalGraphBytes = getU32(bytes, at);
    decode_check(at < bytes.size(), DecodeStatus::Truncated, at,
                 "CerealStream decode underflow");
    s.headerStripped = bytes[at++] != 0;
    std::uint64_t n_values = getU64(bytes, at);
    std::uint64_t n_ref_buckets = getU64(bytes, at);
    std::uint64_t n_ref_end = getU64(bytes, at);
    std::uint64_t n_bm_buckets = getU64(bytes, at);
    std::uint64_t n_bm_end = getU64(bytes, at);
    s.refEntries = getU64(bytes, at);
    s.bitmapBits = getU64(bytes, at);

    // Section sizes must tile the remaining bytes exactly; accumulate
    // with per-section bounds so corrupted 64-bit sizes cannot wrap the
    // sum.
    const std::uint64_t rest = bytes.size() - at;
    decode_check(n_values <= rest / 8, DecodeStatus::BadLength, at,
                 "value array (%llu entries) exceeds stream",
                 (unsigned long long)n_values);
    std::uint64_t need = n_values * 8;
    for (std::uint64_t n : {n_ref_buckets, n_ref_end, n_bm_buckets,
                            n_bm_end}) {
        decode_check(n <= rest - need, DecodeStatus::BadLength, at,
                     "packed section (%llu B) exceeds stream",
                     (unsigned long long)n);
        need += n;
    }
    decode_check(need == rest, DecodeStatus::Malformed, at,
                 "CerealStream length mismatch (%llu declared, %llu "
                 "present)",
                 (unsigned long long)need, (unsigned long long)rest);

    // Byte-level self-consistency: end maps carry one bit per bucket.
    // Cross-field semantic checks (object counts vs buckets, graph size
    // vs bitmap bits) live in deserializeStream, which also covers
    // hand-built streams that never pass through this codec.
    decode_check(n_ref_end == (n_ref_buckets + 7) / 8,
                 DecodeStatus::Malformed, at,
                 "reference end map size mismatch");
    decode_check(n_bm_end == (n_bm_buckets + 7) / 8,
                 DecodeStatus::Malformed, at,
                 "bitmap end map size mismatch");

    s.valueArray.resize(n_values);
    std::memcpy(s.valueArray.data(), bytes.data() + at, n_values * 8);
    at += n_values * 8;
    auto grab = [&](std::vector<std::uint8_t> &dst, std::uint64_t n) {
        dst.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   bytes.begin() + static_cast<std::ptrdiff_t>(at + n));
        at += n;
    };
    grab(s.refBuckets, n_ref_buckets);
    grab(s.refEndMap, n_ref_end);
    grab(s.bitmapBuckets, n_bm_buckets);
    grab(s.bitmapEndMap, n_bm_end);
    return s;
}

} // namespace cereal
