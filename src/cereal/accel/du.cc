#include "cereal/accel/du.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace cereal {

namespace {

/**
 * Eager sequential prefetcher over one input stream: keeps `depth`
 * 64 B chunks in flight through the MAI, issuing chunk i as soon as
 * chunk i-depth has returned (paper: "maintains a set amount of
 * internal buffer and eagerly issues a load request ... whenever this
 * buffer is empty").
 */
class StreamFetcher
{
  public:
    StreamFetcher(Mai &mai, Addr base, Addr total_bytes, unsigned depth,
                  Tick start)
        : mai_(&mai), base_(base), totalBytes_(total_bytes),
          depth_(std::max(1u, depth)), start_(start)
    {
    }

    /** Tick at which the chunk containing byte @p offset is buffered. */
    Tick
    available(Addr offset)
    {
        if (totalBytes_ == 0) {
            return start_;
        }
        panic_if(offset >= totalBytes_, "stream fetch past end");
        const std::size_t chunk = static_cast<std::size_t>(offset / 64);
        ensureIssued(chunk);
        return completion_[chunk];
    }

    Addr totalBytes() const { return totalBytes_; }

  private:
    void
    ensureIssued(std::size_t chunk)
    {
        const std::size_t chunks = static_cast<std::size_t>(
            (totalBytes_ + 63) / 64);
        const std::size_t want = std::min(chunk + depth_, chunks);
        while (completion_.size() < want) {
            const std::size_t i = completion_.size();
            Tick issue = (i >= depth_) ? completion_[i - depth_] : start_;
            Addr bytes = std::min<Addr>(64, totalBytes_ - Addr{i} * 64);
            completion_.push_back(
                mai_->read(base_ + Addr{i} * 64, bytes, issue));
        }
    }

    Mai *mai_;
    Addr base_;
    Addr totalBytes_;
    std::size_t depth_;
    Tick start_;
    std::vector<Tick> completion_;
};

/** Per-output-block input requirements, derived from the stream. */
struct BlockPlan
{
    /** Exclusive end offsets into each input stream after this block. */
    Addr valueBytesEnd;
    Addr refBytesEnd;
    Addr bitmapBytesEnd;
};

/**
 * Walk the stream's layout bitmaps and reference end map to compute,
 * for every 64 B output block, how far into each input stream its
 * reconstruction reaches.
 */
std::vector<BlockPlan>
planBlocks(const CerealStream &s)
{
    const std::uint64_t total_blocks = (s.totalGraphBytes + 63) / 64;
    std::vector<BlockPlan> plan;
    plan.reserve(total_blocks);

    ObjectUnpacker bitmaps(s.bitmapBuckets, s.bitmapEndMap);

    // Reference entry sizes come straight from the end map.
    std::size_t ref_bucket_pos = 0;
    auto next_ref_bytes = [&]() -> Addr {
        Addr n = 0;
        for (;;) {
            panic_if(ref_bucket_pos / 8 >= s.refEndMap.size(),
                     "ref end map underflow");
            bool ends = (s.refEndMap[ref_bucket_pos / 8] >>
                         (ref_bucket_pos % 8)) &
                        1;
            ++ref_bucket_pos;
            ++n;
            if (ends) {
                return n;
            }
        }
    };

    Addr value_bytes = 0;
    Addr ref_bytes = 0;
    Addr bitmap_bytes = 0;
    std::uint64_t slot_global = 0;
    std::uint64_t blocks_emitted = 0;

    auto close_blocks_through = [&](std::uint64_t slot_end) {
        // Emit plans for all blocks fully covered by slots < slot_end.
        while ((blocks_emitted + 1) * 8 <= slot_end) {
            plan.push_back({value_bytes, ref_bytes, bitmap_bytes});
            ++blocks_emitted;
        }
    };

    std::vector<std::uint64_t> bitmap_words;
    for (std::uint32_t i = 0; i < s.objectCount; ++i) {
        const SlotBitmap bm = bitmaps.nextBits(bitmap_words);
        // Packed bitmap footprint: payload bits + marker, padded.
        bitmap_bytes += (bm.size() + 1 + 7) / 8;
        // Header slots are never set in the bitmap, so a set bit always
        // means a reference slot.
        for (std::size_t slot = 0; slot < bm.size(); ++slot) {
            if (bm[slot]) {
                ref_bytes += next_ref_bytes();
            } else if (!(slot == 0 && s.headerStripped)) {
                value_bytes += 8;
            }
            ++slot_global;
            close_blocks_through(slot_global);
        }
    }
    // Final partial block.
    if (blocks_emitted < total_blocks) {
        plan.push_back({value_bytes, ref_bytes, bitmap_bytes});
    }
    return plan;
}

} // namespace

DuResult
DeserializationUnit::deserialize(const CerealStream &stream,
                                 Addr stream_base, Addr dst_base,
                                 Tick start)
{
    const ClockDomain clk(cfg_.period());
    auto cyc = [&](Cycles c) { return clk.cyclesToTicks(c); };

    DuResult out;
    const auto plan = planBlocks(stream);
    if (plan.empty()) {
        out.done = start;
        return out;
    }

    const unsigned depth = cfg_.pipelined ? cfg_.prefetchDepth : 1;
    const unsigned num_recon =
        cfg_.pipelined ? cfg_.blockReconstructors : 1;

    // Input stream layout within the serialized stream region.
    const Addr value_bytes_total = stream.valueArray.size() * 8;
    const Addr ref_bytes_total =
        stream.refBuckets.size() + stream.refEndMap.size();
    const Addr bitmap_bytes_total =
        stream.bitmapBuckets.size() + stream.bitmapEndMap.size();

    StreamFetcher values(*mai_, stream_base, value_bytes_total, depth,
                         start);
    StreamFetcher refs(*mai_, stream_base + 0x1000'0000ULL,
                       ref_bytes_total, depth, start);
    StreamFetcher bitmaps(*mai_, stream_base + 0x2000'0000ULL,
                          bitmap_bytes_total, depth, start);

    Tick lm_free = start;
    Tick bm_free = start;
    std::vector<Tick> recon_free(num_recon, start);
    Tick end = start;

    for (std::size_t b = 0; b < plan.size(); ++b) {
        const auto &p = plan[b];

        // Layout manager: needs the bitmap bytes that delimit this
        // block's slots.
        Tick bitmap_avail =
            p.bitmapBytesEnd
                ? bitmaps.available(p.bitmapBytesEnd - 1)
                : start;
        Tick lm_t = std::max(lm_free, bitmap_avail) + cyc(cfg_.lmPerBlock);
        lm_free = lm_t;

        // Block manager: needs this block's values and references
        // buffered and unpacked.
        Tick value_avail =
            p.valueBytesEnd ? values.available(p.valueBytesEnd - 1)
                            : start;
        Tick ref_avail =
            p.refBytesEnd ? refs.available(p.refBytesEnd - 1) : start;
        Tick bm_t = std::max({bm_free, lm_t, value_avail, ref_avail}) +
                    cyc(cfg_.bmPerBlock);
        bm_free = bm_t;

        // Dispatch to the earliest-free block reconstructor.
        auto r = std::min_element(recon_free.begin(), recon_free.end());
        Tick recon_start = std::max(bm_t, *r);
        Tick recon_done = recon_start + cyc(cfg_.brPerBlock);
        *r = recon_done;

        // Output block write.
        Addr bytes = std::min<Addr>(
            64, stream.totalGraphBytes - Addr{b} * 64);
        Tick wr = mai_->write(dst_base + Addr{b} * 64, bytes, recon_done);
        end = std::max(end, wr);
        ++out.blocks;
        out.bytesWritten += bytes;
    }

    out.bytesRead =
        value_bytes_total + ref_bytes_total + bitmap_bytes_total;
    out.done = end;
    return out;
}

} // namespace cereal
