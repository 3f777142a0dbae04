#include "cereal/accel/mai.hh"

#include <algorithm>

namespace cereal {

Tick
Mai::acquireSlot(Tick issue)
{
    // Retire completed entries relative to the requested issue time.
    while (!outstanding_.empty() && outstanding_.front() <= issue) {
        outstanding_.pop_front();
    }
    // Full table: the requester waits for the oldest entry.
    while (outstanding_.size() >= entries_) {
        issue = std::max(issue, outstanding_.front());
        outstanding_.pop_front();
    }
    return issue;
}

Tick
Mai::blockAccess(Addr block, bool write, Tick issue)
{
    ++requests_;

    Line *line = write ? nullptr : lines_.find(block);
    // Coalescing: join an in-flight read of the same block, or hit the
    // data buffer, which still holds a recently fetched block. Both
    // flags of a line share its one fetch's tick.
    if (line && (line->buffered || (line->inflight && line->done > issue))) {
        ++coalesced_;
        trace_.instant("mai_hit", issue);
        return std::max(issue, line->done);
    }

    if (tlb_) {
        Tick penalty = tlb_->lookup(block);
        if (penalty > 0) {
            trace_.instant("tlb_miss", issue);
        }
        issue += penalty;
    }
    trace_.instant("mai_miss", issue);

    issue = acquireSlot(issue);
    Tick done = dram_->access(block, write, issue).completeTick;
    outstanding_.push_back(done);
    if (!write) {
        // A missed block is not buffered, so it enters the data buffer
        // fresh, evicting FIFO beyond its capacity.
        inflightLines_ += !(line && line->inflight);
        lines_.assign(block, {done, true, true});
        lineFifo_.push_back(block);
        if (lineFifo_.size() > entries_) {
            Line *old = lines_.find(lineFifo_.front());
            old->buffered = false;
            if (!old->inflight) {
                lines_.erase(lineFifo_.front());
            }
            lineFifo_.pop_front();
        }
        // Bound the coalescing state: stale in-flight lines are
        // harmless (the `> issue` check above rejects them) but
        // unbounded growth is not; prune opportunistically.
        if (inflightLines_ > entries_ * 4) {
            lines_.eraseIf([&](Line &l) {
                if (l.inflight && l.done <= issue) {
                    l.inflight = false;
                    --inflightLines_;
                }
                return !l.inflight && !l.buffered;
            });
        }
    }
    return done;
}

Tick
Mai::rangeAccess(Addr addr, Addr bytes, bool write, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    const Addr first = roundDown(addr, 64);
    const Addr last = roundDown(addr + bytes - 1, 64);
    Tick done = issue;
    for (Addr b = first; b <= last; b += 64) {
        done = std::max(done, blockAccess(b, write, issue));
    }
    return done;
}

Tick
Mai::atomicRmw(Addr addr, Tick issue)
{
    // The associative RMW buffer holds the line; the visible cost is
    // the read round trip (the merged write retires in the background).
    return blockAccess(roundDown(addr, 64), false, issue);
}

} // namespace cereal
