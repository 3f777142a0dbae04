#include "cereal/format.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "serde/decode_error.hh"
#include "sim/logging.hh"

namespace cereal {

static_assert(std::endian::native == std::endian::little,
              "packed buckets are moved through little-endian words");

namespace {

/** The bits of @p x reversed within each byte: converts between the
 *  MSB-first order of buckets and the LSB-first order of SlotBitmap
 *  words, eight buckets at a time. */
constexpr std::uint64_t
reverseBitsInBytes(std::uint64_t x)
{
    x = ((x >> 1) & 0x5555555555555555ULL) |
        ((x & 0x5555555555555555ULL) << 1);
    x = ((x >> 2) & 0x3333333333333333ULL) |
        ((x & 0x3333333333333333ULL) << 2);
    return ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) |
           ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
}

/** Bytes [at, at + 8) of @p p as a little-endian word; bytes at or
 *  past @p end read zero. */
std::uint64_t
loadWord(const std::uint8_t *p, std::size_t at, std::size_t end)
{
    std::uint64_t v = 0;
    if (at + 8 <= end) {
        std::memcpy(&v, p + at, 8);
    } else {
        for (std::size_t i = end; i-- > at;) {
            v = (v << 8) | p[i];
        }
    }
    return v;
}

} // namespace

std::size_t
nextEntryEnd(const std::uint8_t *end_map, std::size_t map_bytes,
             std::size_t from)
{
    for (std::size_t byte = from / 8; byte < map_bytes; byte += 8) {
        std::uint64_t w = loadWord(end_map, byte, map_bytes);
        if (byte == from / 8) {
            w &= ~std::uint64_t{0} << (from % 8);
        }
        if (w) {
            return 8 * byte + static_cast<std::size_t>(std::countr_zero(w));
        }
    }
    return 8 * map_bytes;
}

void
ObjectPacker::packBits(const SlotBitmap &bits)
{
    // n = 8q + r bits plus the marker take q + 1 buckets. The first
    // holds 7 - r padding zeros, the marker and bits [0, r); each later
    // bucket holds the next eight bits, MSB first. In stream order,
    // LSB first, that is the marker at bit 7 - r and bit i at 8 - r + i:
    // one word per 56 bits, then bit-reversed within each byte.
    const std::size_t n = bits.size();
    const auto head = static_cast<unsigned>(n % 8);
    std::uint64_t w = std::uint64_t{1} << (7 - head);
    unsigned at = 8 - head; // stream bit of the next payload bit
    for (std::size_t i = 0; i < n;) {
        const auto k = static_cast<unsigned>(
            std::min<std::size_t>(std::min(56u, 64 - at), n - i));
        w |= bits.chunk(i, k) << at;
        i += k;
        at += k;
        if (at == 64) {
            append(reverseBitsInBytes(w), 8);
            w = 0;
            at = 0;
        }
    }
    if (at > 0) {
        append(reverseBitsInBytes(w), at / 8);
    }
    endEntry();
}

void
ObjectPacker::packWide(std::uint64_t v)
{
    // Significant bits behind a marker '1', MSB first. A w-bit value
    // takes w / 8 + 1 buckets (at most 9: a 64-bit value's marker sits
    // alone in its first bucket).
    const auto width = static_cast<unsigned>(std::bit_width(v));
    const unsigned n = width / 8 + 1;
    if (n == 9) {
        buckets_.push_back(1);
        append(__builtin_bswap64(v), 8);
    } else {
        v |= std::uint64_t{1} << width;
        append(__builtin_bswap64(v << (64 - 8 * n)), n);
    }
    endEntry();
}

void
ObjectPacker::append(std::uint64_t bytes, unsigned n)
{
    buckets_.append(reinterpret_cast<const std::uint8_t *>(&bytes), n);
}

std::size_t
ObjectUnpacker::nextRun()
{
    const std::size_t n = buckets_.size();
    decode_check(pos_ < n, DecodeStatus::Truncated, pos_,
                 "unpacker exhausted");
    const std::size_t first = pos_;
    const std::uint8_t *map = endMap_.data();
    const std::size_t covered = endMap_.size() * 8;
    // The entry ends at the next end-map bit, which must lie inside both
    // the bucket array and the end map; which bound runs out first
    // decides the error and its offset. Most entries end in the end-map
    // byte they start in (one-bucket references, short bitmaps).
    const unsigned here = first < covered ? map[first / 8] >> (first % 8) : 0;
    const std::size_t end =
        here ? first + static_cast<std::size_t>(std::countr_zero(here))
             : nextEntryEnd(map, endMap_.size(), first);
    if (end < n && end < covered) {
        pos_ = end + 1;
        return first;
    }
    decode_check(covered >= n, DecodeStatus::Truncated,
                 std::max(first, covered),
                 "end map shorter than bucket array");
    throwDecode(DecodeStatus::Truncated, n, "unterminated packed entry");
}

std::size_t
ObjectUnpacker::markerBit(std::size_t first) const
{
    std::size_t b = first;
    while (b < pos_ && buckets_[b] == 0) {
        ++b;
    }
    decode_check(b < pos_, DecodeStatus::Malformed, first,
                 "packed entry missing marker bit");
    return 8 * (b - first) +
           static_cast<std::size_t>(std::countl_zero(buckets_[b]));
}

SlotBitmap
ObjectUnpacker::nextBits(std::vector<std::uint64_t> &words)
{
    const std::size_t first = nextRun();
    const std::size_t len = pos_ - first;
    if (len <= 8) {
        // The whole run in one word, first bucket highest: the payload
        // is the bits below the marker, slot 0 highest, so reversing
        // them puts slot i at bit i.
        std::uint64_t run = 0;
        for (std::size_t b = first; b < pos_; ++b) {
            run = (run << 8) | buckets_[b];
        }
        if (run != 0) {
            const auto n = static_cast<std::size_t>(
                std::bit_width(run) - 1);
            const std::uint64_t payload =
                run & ((std::uint64_t{1} << n) - 1);
            words.assign(1, n ? __builtin_bswap64(reverseBitsInBytes(
                                    payload)) >> (64 - n)
                              : 0);
            return SlotBitmap(words.data(), n);
        }
    }
    // Payload: run bits after the marker, 64 at a time. Loads stop at
    // the run's end, so bits past the payload read zero.
    const std::size_t skip = markerBit(first) + 1;
    const std::size_t n = 8 * (pos_ - first) - skip;
    words.assign(n / 64 + 1, 0);
    const std::uint8_t *b = buckets_.data();
    for (std::size_t w = 0; 64 * w < n; ++w) {
        const std::size_t bit = 8 * first + skip + 64 * w;
        const unsigned sh = bit % 8;
        std::uint64_t x = reverseBitsInBytes(loadWord(b, bit / 8, pos_)) >> sh;
        if (sh) {
            x |= reverseBitsInBytes(loadWord(b, bit / 8 + 8, pos_))
                 << (64 - sh);
        }
        words[w] = x;
    }
    return SlotBitmap(words.data(), n);
}

std::uint64_t
ObjectUnpacker::nextRunValue()
{
    const std::size_t at = pos_;
    const std::size_t first = nextRun();
    const std::size_t marker = markerBit(first);
    decode_check(8 * (pos_ - first) - marker - 1 <= 64,
                 DecodeStatus::Malformed, at,
                 "packed value wider than 64 bits");
    // The marker bucket's bits below the marker, then whole buckets.
    const std::size_t mb = first + marker / 8;
    std::uint64_t v = buckets_[mb] & ((1u << (7 - marker % 8)) - 1);
    for (std::size_t b = mb + 1; b < pos_; ++b) {
        v = (v << 8) | buckets_[b];
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
    auto grab = [&](sim::GrowArray<std::uint8_t> &dst, std::uint64_t n) {
        dst.append(bytes.data() + at, n);
        at += n;
    };
    grab(s.refBuckets, n_ref_buckets);
    grab(s.refEndMap, n_ref_end);
    grab(s.bitmapBuckets, n_bm_buckets);
    grab(s.bitmapEndMap, n_bm_end);
    return s;
}

} // namespace cereal
