#include "cereal/accel/du.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "sim/logging.hh"

namespace cereal {

namespace {

/**
 * Eager sequential prefetcher over one input stream: keeps `depth`
 * 64 B chunks in flight through the MAI, issuing chunk i as soon as
 * chunk i-depth has returned (paper: "maintains a set amount of
 * internal buffer and eagerly issues a load request ... whenever this
 * buffer is empty"). Offsets are asked for in non-decreasing order, so
 * a ring of the last `depth` (rounded up to 2^n) completions suffices.
 */
class StreamFetcher
{
  public:
    StreamFetcher(Mai &mai, Addr base, Addr total_bytes, unsigned depth,
                  Tick start)
        : mai_(&mai), base_(base), totalBytes_(total_bytes),
          depth_(std::max(1u, depth)), start_(start),
          completion_(std::bit_ceil(depth_)), mask_(completion_.size() - 1)
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
        panic_if(chunk + depth_ < issued_, "stream fetch went backwards");
        ensureIssued(chunk);
        return completion_[chunk & mask_];
    }

  private:
    void
    ensureIssued(std::size_t chunk)
    {
        const std::size_t chunks = static_cast<std::size_t>(
            (totalBytes_ + 63) / 64);
        const std::size_t want = std::min(chunk + depth_, chunks);
        for (; issued_ < want; ++issued_) {
            const Tick issue = issued_ >= depth_
                                   ? completion_[(issued_ - depth_) & mask_]
                                   : start_;
            const Addr at = Addr{issued_} * 64;
            completion_[issued_ & mask_] = mai_->read(
                base_ + at, std::min<Addr>(64, totalBytes_ - at), issue);
        }
    }

    Mai *mai_;
    Addr base_;
    Addr totalBytes_;
    std::size_t depth_;
    Tick start_;
    /** Completion of chunk i in slot i & mask_: at least depth_ slots. */
    std::vector<Tick> completion_;
    std::size_t mask_;
    std::size_t issued_ = 0;
};

/** Per-output-block input requirements, derived from the stream. */
struct BlockPlan
{
    /** Exclusive end offsets into each input stream after this block. */
    Addr valueBytesEnd = 0;
    Addr refBytesEnd = 0;
    Addr bitmapBytesEnd = 0;
};

/**
 * Yields, for each 64 B output block in order, how far into each input
 * stream its reconstruction reaches, by walking the stream's layout
 * bitmaps and reference end map. A block is planned once the slots it
 * covers have been walked; nothing is kept per block.
 */
class BlockPlanner
{
  public:
    explicit BlockPlanner(const CerealStream &s)
        : s_(&s), bitmaps_(s.bitmapBuckets, s.bitmapEndMap)
    {
    }

    /** The next block's plan into @p p; false after the last block. */
    bool
    next(BlockPlan &p)
    {
        while ((emitted_ + 1) * 8 > slotGlobal_) {
            if (slot_ < bm_.size()) {
                // Header slots are never set in the bitmap, so a set bit
                // always means a reference slot.
                if (bm_[slot_]) {
                    plan_.refBytesEnd += nextRefBytes();
                } else if (!(slot_ == 0 && s_->headerStripped)) {
                    plan_.valueBytesEnd += 8;
                }
                ++slot_;
                ++slotGlobal_;
            } else if (object_ < s_->objectCount) {
                bm_ = bitmaps_.nextBits(words_);
                ++object_;
                slot_ = 0;
                // Packed bitmap footprint: payload bits + marker, padded.
                plan_.bitmapBytesEnd += (bm_.size() + 1 + 7) / 8;
            } else if (finished_ ||
                       emitted_ >= (s_->totalGraphBytes + 63) / 64) {
                return false;
            } else {
                finished_ = true; // the final partial block
                break;
            }
        }
        p = plan_;
        ++emitted_;
        return true;
    }

  private:
    /** Reference entry size, straight from the end map. */
    Addr
    nextRefBytes()
    {
        Addr n = 0;
        for (;;) {
            panic_if(refBucket_ / 8 >= s_->refEndMap.size(),
                     "ref end map underflow");
            const bool ends =
                (s_->refEndMap[refBucket_ / 8] >> (refBucket_ % 8)) & 1;
            ++refBucket_;
            ++n;
            if (ends) {
                return n;
            }
        }
    }

    const CerealStream *s_;
    ObjectUnpacker bitmaps_;
    std::vector<std::uint64_t> words_;
    SlotBitmap bm_;
    std::uint32_t object_ = 0;
    std::size_t slot_ = 0;
    std::uint64_t slotGlobal_ = 0;
    std::size_t refBucket_ = 0;
    std::uint64_t emitted_ = 0;
    bool finished_ = false;
    BlockPlan plan_;
};

} // namespace

DuResult
DeserializationUnit::deserialize(const CerealStream &stream,
                                 Addr stream_base, Addr dst_base,
                                 Tick start)
{
    const ClockDomain clk(cfg_.period());
    auto cyc = [&](Cycles c) { return clk.cyclesToTicks(c); };

    DuResult out;
    BlockPlanner planner(stream);
    BlockPlan p;
    if (!planner.next(p)) {
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

    do {
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

        // Output block write; out.blocks counts the blocks before it.
        const Addr at = out.blocks * 64;
        Addr bytes = std::min<Addr>(64, stream.totalGraphBytes - at);
        Tick wr = mai_->write(dst_base + at, bytes, recon_done);
        end = std::max(end, wr);
        ++out.blocks;
        out.bytesWritten += bytes;
    } while (planner.next(p));

    out.bytesRead =
        value_bytes_total + ref_bytes_total + bitmap_bytes_total;
    out.done = end;
    return out;
}

} // namespace cereal
