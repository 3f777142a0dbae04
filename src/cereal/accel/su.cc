#include "cereal/accel/su.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "heap/object.hh"
#include "heap/object_table.hh"
#include "metrics/metrics.hh"
#include "sim/flat.hh"
#include "sim/logging.hh"

namespace cereal {

namespace {

/** Write-combining buffer for a sequential output stream. */
class StreamWriter
{
  public:
    StreamWriter(Mai &mai, Addr base) : mai_(&mai), cursor_(base) {}

    /** Buffer @p bytes produced at tick @p t; flush full 64 B chunks. */
    void
    produce(Addr bytes, Tick t)
    {
        pending_ += bytes;
        total_ += bytes;
        while (pending_ >= 64) {
            lastWrite_ =
                std::max(lastWrite_, mai_->write(cursor_, 64, t));
            cursor_ += 64;
            pending_ -= 64;
        }
    }

    /** Flush the residual partial chunk at tick @p t. */
    Tick
    flush(Tick t)
    {
        if (pending_ > 0) {
            lastWrite_ =
                std::max(lastWrite_, mai_->write(cursor_, pending_, t));
            cursor_ += pending_;
            pending_ = 0;
        }
        return lastWrite_;
    }

    Addr totalBytes() const { return total_; }

  private:
    Mai *mai_;
    Addr cursor_;
    Addr pending_ = 0;
    Addr total_ = 0;
    Tick lastWrite_ = 0;
};

/** Packed size, in 1 B buckets, of one reference token (Section IV-B). */
Addr
packedRefBuckets(std::uint64_t token)
{
    // Marker plus significant bits, rounded up to whole buckets.
    return std::bit_width(token) / 8 + 1;
}

/** Position of one SU event in the global (tick, sequence) order. */
struct EventKey
{
    Tick when;
    std::uint64_t seq;

    bool
    operator<(const EventKey &o) const
    {
        return when != o.when ? when < o.when : seq < o.seq;
    }
    bool operator>(const EventKey &o) const { return o < *this; }
};

/**
 * FIFO of object-handler events, each naming one object, whose ticks
 * never decrease, so its front is always its earliest event. Keys and
 * objects sit in separate rings: the event scan reads only keys, and
 * no ring buffer holds more than 16 B per event (DESIGN.md "Simulation
 * performance model" item 6 has the effect on peak RSS).
 */
class ObjectEventFifo
{
  public:
    explicit ObjectEventFifo(Tick start) : tail_(start) {}

    bool empty() const { return keys_.empty(); }
    const EventKey &frontKey() { return keys_.front(); }

    /** Remove the front event and return its object. */
    Addr
    pop()
    {
        const Addr obj = objs_.front();
        keys_.pop_front();
        objs_.pop_front();
        return obj;
    }

    void
    push(EventKey key, Addr obj)
    {
        panic_if(key.when < tail_,
                 "SU object event at %llu behind the stream tail %llu",
                 (unsigned long long)key.when, (unsigned long long)tail_);
        tail_ = key.when;
        keys_.push_back(key);
        objs_.push_back(obj);
    }

  private:
    sim::RingQueue<EventKey> keys_;
    sim::RingQueue<Addr> objs_;
    Tick tail_;
};

/**
 * Event-driven execution state of one serialization operation.
 *
 * The SU pipeline runs as three event streams so that memory requests
 * reach the MAI in nondecreasing simulated-time order — the
 * schedule-synchronous DRAM model relies on that to see the bank idle
 * periods that really existed:
 *
 *  - object issue (the OH's bulk load), a FIFO: each object is issued
 *    once its size is known, and the HM learns one object's size only
 *    after it is free of the previous one, so issue ticks never
 *    decrease;
 *  - object complete (data arrived at the OH), a FIFO: the OH finishes
 *    objects in order, so completion ticks never decrease;
 *  - HM wakes, a min-heap: the only stream whose ticks can go back,
 *    when a newly discovered reference is ready before the HM's
 *    pending wake.
 *
 * One sequence counter numbers the events of all three streams, and
 * each step runs the smallest (tick, sequence) head, so events run in
 * tick order with ties in scheduling order.
 */
class SuSim
{
  public:
    SuSim(Heap &heap, Mai &mai, const AccelConfig &cfg, Tick start,
          Addr stream_base, trace::TraceEmitter trace)
        : heap_(&heap), mai_(&mai), cfg_(cfg), period_(cfg.period()),
          trace_(std::move(trace)),
          start_(start), now_(start), issues_(start), completes_(start),
          mdcache_(cfg.metadataCacheEntries),
          values_(mai, stream_base),
          refs_(mai, stream_base + 0x1000'0000ULL),
          refEnds_(mai, stream_base + 0x1800'0000ULL),
          bitmaps_(mai, stream_base + 0x2000'0000ULL),
          bitmapEnds_(mai, stream_base + 0x2800'0000ULL),
          headerSlots_(heap.registry().headerSlots()), visited_(heap)
    {
        // One group per op; the recorder uniquifies repeated prefixes
        // ("cereal.accel.su", "cereal.accel.su#1", ...) the way
        // per-unit trace tracks do.
        metrics_ = metrics::Group(metrics::current(), "cereal.accel.su");
        if (metrics_.enabled()) {
            metrics_.gauge("hm_queue",
                           "header-manager pending-reference queue depth",
                           [this](Tick) {
                               return static_cast<double>(pending_.size());
                           });
        }
    }

    SuResult
    run(Addr root)
    {
        hmFree_ = start_;
        rawFree_ = start_;
        ohFree_ = start_;
        discover(root, start_);
        runEvents();

        // Flush residual end-map bytes for partially filled groups.
        if (refBucketsSinceEnd_ > 0) {
            refEnds_.produce(1, rawFree_);
        }
        if (bitmapBucketsSinceEnd_ > 0) {
            bitmapEnds_.produce(1, hmFree_);
        }
        Tick end = std::max({hmFree_, rawFree_, ohFree_, lastEvent_});
        end = std::max(end, values_.flush(end));
        end = std::max(end, refs_.flush(end));
        end = std::max(end, refEnds_.flush(end));
        end = std::max(end, bitmaps_.flush(end));
        end = std::max(end, bitmapEnds_.flush(end));

        out_.done = end;
        out_.bytesWritten = values_.totalBytes() + refs_.totalBytes() +
                            refEnds_.totalBytes() +
                            bitmaps_.totalBytes() +
                            bitmapEnds_.totalBytes() + 4;
        return out_;
    }

  private:
    Tick cyc(Cycles c) const { return c * period_; }

    EventKey nextKey(Tick when) { return {when, nextSeq_++}; }

    /** Run every stream's events in (tick, sequence) order to the end. */
    void
    runEvents()
    {
        enum class Stream { None, Issue, Complete, Wake };
        while (true) {
            Stream s = Stream::None;
            EventKey head{kMaxTick, ~std::uint64_t{0}};
            if (!issues_.empty() && issues_.frontKey() < head) {
                head = issues_.frontKey();
                s = Stream::Issue;
            }
            if (!completes_.empty() && completes_.frontKey() < head) {
                head = completes_.frontKey();
                s = Stream::Complete;
            }
            if (!wakes_.empty() && wakes_.top() < head) {
                head = wakes_.top();
                s = Stream::Wake;
            }
            if (s == Stream::None) {
                return;
            }
            panic_if(head.when < now_, "SU event at %llu before now %llu",
                     (unsigned long long)head.when,
                     (unsigned long long)now_);
            now_ = head.when;
            if (s == Stream::Issue) {
                ohIssue(issues_.pop());
            } else if (s == Stream::Complete) {
                ohComplete(completes_.pop());
            } else {
                wakes_.pop();
                // A wake superseded by an earlier one still runs the HM
                // if the HM's current wake falls on the same tick.
                if (hmWakeAt_ == head.when) {
                    hmWakeAt_ = kMaxTick;
                    hmStep();
                }
            }
        }
    }

    /** RAW output: packed reference buckets plus their end-map bits. */
    void
    produceRef(Addr buckets, Tick t)
    {
        refs_.produce(buckets, t);
        refBucketsSinceEnd_ += buckets;
        while (refBucketsSinceEnd_ >= 8) {
            refEnds_.produce(1, t);
            refBucketsSinceEnd_ -= 8;
        }
    }

    /** A reference arrives at the HM's input queue. */
    void
    discover(Addr target, Tick arrival)
    {
        Tick chk_done = kMaxTick;
        if (cfg_.pipelined) {
            // The visited check issues the moment the reference is
            // discovered: this is where the SU's MLP comes from.
            chk_done = mai_->atomicRmw(target + 16, arrival);
            out_.bytesRead += 8;
        }
        pending_.push_back({target, arrival, chk_done});
        trace_.counter("hm_queue", arrival,
                       static_cast<double>(pending_.size()));
        metrics_.tick(arrival);
        scheduleHm(arrival);
    }

    /**
     * Arrange for the HM to run at @p when. At most one wake event is
     * kept in flight — scheduling one event per pending reference
     * would be quadratic on wide frontiers.
     */
    void
    scheduleHm(Tick when)
    {
        when = std::max(when, now_);
        if (when >= hmWakeAt_) {
            return; // an earlier (or equal) wake is already queued
        }
        // A later wake already queued stays in the heap; see runEvents.
        hmWakeAt_ = when;
        wakes_.push(nextKey(when));
    }

    /** Header manager: process the next pending reference if ready. */
    void
    hmStep()
    {
        if (pending_.empty()) {
            return;
        }
        const Tick now = now_;
        if (hmFree_ > now) {
            scheduleHm(hmFree_);
            return;
        }
        PendingRef ref = pending_.front();
        Tick chk_done = ref.chkDone;
        if (!cfg_.pipelined) {
            // Vanilla: the check is issued only when the HM turns to
            // this reference, exposing the full round trip.
            chk_done = mai_->atomicRmw(
                ref.target + 16, std::max(ref.arrival, now));
            out_.bytesRead += 8;
        }
        if (chk_done > now) {
            scheduleHm(chk_done);
            return;
        }
        pending_.pop_front();
        trace_.counter("hm_queue", now,
                       static_cast<double>(pending_.size()));
        metrics_.tick(now);
        ++out_.refs;

        Tick hm_t = now + cyc(cfg_.hmPerRef);

        // Relative address to the reference array writer.
        std::uint32_t &seen = visited_[ref.target];
        const bool first = seen == 0;
        const std::uint64_t rel =
            first ? assignedBytes_ : std::uint64_t{seen - 1} * 8;
        rawFree_ = std::max(rawFree_, hm_t) + cyc(cfg_.rawPerRef);
        produceRef(packedRefBuckets(rel / 8 + 1), rawFree_);

        if (!first) {
            hmFree_ = hm_t;
            scheduleHm(hmFree_);
            return;
        }

        // First visit: OMM fetches metadata; the HM stalls until the
        // object size returns and its counter is updated.
        KlassId klass = heap_->klassOf(ref.target);
        Tick meta_done;
        if (mdcache_.touch(klass)) {
            ++out_.metadataCacheHits;
            meta_done = hm_t + cyc(1);
        } else {
            meta_done =
                mai_->read(heap_->registry().metadataAddr(klass),
                           heap_->registry().metadataBytes(klass), hm_t);
            out_.bytesRead += heap_->registry().metadataBytes(klass);
        }
        const unsigned slots = heap_->objectSlots(ref.target);
        Tick size_known = meta_done + cyc(cfg_.ommPerObject);

        seen = ObjectTable::entry(assignedBytes_ / 8);
        assignedBytes_ += Addr{slots} * 8;
        ++out_.objects;

        // Packed layout bitmap from the OMM (buckets + end map).
        const Addr bm_buckets = (slots + 1 + 7) / 8;
        bitmaps_.produce(bm_buckets, size_known);
        bitmapBucketsSinceEnd_ += bm_buckets;
        while (bitmapBucketsSinceEnd_ >= 8) {
            bitmapEnds_.produce(1, size_known);
            bitmapBucketsSinceEnd_ -= 8;
        }

        hmFree_ = size_known;
        lastEvent_ = std::max(lastEvent_, size_known);

        // Object handler starts once the layout is known.
        issues_.push(nextKey(std::max(size_known, now)), ref.target);
        scheduleHm(hmFree_);
    }

    /** Object handler: bulk-load the object. */
    void
    ohIssue(Addr obj)
    {
        const unsigned slots = heap_->objectSlots(obj);
        Tick data_done = mai_->read(obj, Addr{slots} * 8, now_);
        out_.bytesRead += Addr{slots} * 8;
        Tick oh_done = std::max(ohFree_, data_done) +
                       cyc(cfg_.ohPerSlot * slots);
        ohFree_ = oh_done;
        completes_.push(nextKey(oh_done), obj);
    }

    /** Object data arrived: steer values, hand refs to the HM. */
    void
    ohComplete(Addr obj)
    {
        const Tick now = now_;
        lastEvent_ = std::max(lastEvent_, now);
        const SlotBitmap bitmap = heap_->instanceBitmap(obj);
        const auto slots = static_cast<unsigned>(bitmap.size());
        // The object's words through one checked host view.
        const std::uint8_t *words = heap_->view(obj, Addr{slots} * 8);
        unsigned ref_slots = 0;
        for (unsigned s = headerSlots_; s < slots; ++s) {
            if (!bitmap[s]) {
                continue;
            }
            ++ref_slots;
            Addr target;
            std::memcpy(&target, words + Addr{s} * 8, 8);
            if (target == 0) {
                // Null: bypasses the HM; the RAW packs the token.
                ++out_.refs;
                rawFree_ = std::max(rawFree_, now) + cyc(cfg_.rawPerRef);
                produceRef(1, rawFree_);
            } else {
                discover(target, now);
            }
        }
        values_.produce(Addr{slots - ref_slots} * 8, now);
    }

    struct PendingRef
    {
        Addr target;
        Tick arrival;
        Tick chkDone;
    };

    Heap *heap_;
    Mai *mai_;
    AccelConfig cfg_;
    Tick period_;
    trace::TraceEmitter trace_;
    metrics::Group metrics_;
    Tick start_;

    /** Tick of the event being run. */
    Tick now_;
    std::uint64_t nextSeq_ = 0;
    ObjectEventFifo issues_;
    ObjectEventFifo completes_;
    std::priority_queue<EventKey, std::vector<EventKey>,
                        std::greater<EventKey>>
        wakes_;
    /** The OMM's small LRU cache of klass descriptors. */
    sim::LruSet<KlassId> mdcache_;
    StreamWriter values_;
    StreamWriter refs_;
    /** End-map stream for packed references (1 bit per bucket). */
    StreamWriter refEnds_;
    StreamWriter bitmaps_;
    /** End-map stream for packed bitmaps. */
    StreamWriter bitmapEnds_;
    std::uint64_t refBucketsSinceEnd_ = 0;
    std::uint64_t bitmapBucketsSinceEnd_ = 0;
    unsigned headerSlots_;

    sim::RingQueue<PendingRef> pending_;
    /** Object -> relative address / 8 + 1 once discovered, else 0. */
    ObjectTable visited_;
    std::uint64_t assignedBytes_ = 0;

    Tick hmFree_ = 0;
    Tick rawFree_ = 0;
    Tick ohFree_ = 0;
    Tick lastEvent_ = 0;
    /** Tick of the in-flight HM wake event (kMaxTick when none). */
    Tick hmWakeAt_ = kMaxTick;
    SuResult out_;
};

} // namespace

SuResult
SerializationUnit::serialize(Heap &heap, Addr root, Tick start,
                             Addr stream_base)
{
    panic_if(root == 0, "SU given a null root");
    SuSim sim(heap, *mai_, cfg_, start, stream_base, trace_);
    return sim.run(root);
}

} // namespace cereal
