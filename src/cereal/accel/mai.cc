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

    if (!write) {
        // Coalescing: join an in-flight read of the same block.
        if (const Tick *t = inflight_.find(block); t && *t > issue) {
            ++coalesced_;
            trace_.instant("mai_hit", issue);
            return *t;
        }
        // Data-buffer hit: the block was fetched recently and still
        // sits in the MAI's 4 KB buffer.
        if (const Tick *t = lineBuffer_.find(block)) {
            ++coalesced_;
            trace_.instant("mai_hit", issue);
            return std::max(issue, *t);
        }
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
        inflight_.assign(block, done);
        // Fill the data buffer, evicting FIFO beyond its capacity.
        if (lineBuffer_.assign(block, done)) {
            lineFifo_.push_back(block);
            if (lineFifo_.size() > entries_) {
                lineBuffer_.erase(lineFifo_.front());
                lineFifo_.pop_front();
            }
        }
        // Bound the coalescing map: stale entries are harmless (the
        // `> issue` check above rejects them) but unbounded growth is
        // not; prune opportunistically.
        if (inflight_.size() > entries_ * 4) {
            inflight_.eraseIf([issue](Tick t) { return t <= issue; });
        }
    }
    return done;
}

Tick
Mai::read(Addr addr, Addr bytes, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    const Addr first = roundDown(addr, 64);
    const Addr last = roundDown(addr + bytes - 1, 64);
    Tick done = issue;
    for (Addr b = first; b <= last; b += 64) {
        done = std::max(done, blockAccess(b, false, issue));
    }
    return done;
}

Tick
Mai::write(Addr addr, Addr bytes, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    const Addr first = roundDown(addr, 64);
    const Addr last = roundDown(addr + bytes - 1, 64);
    Tick done = issue;
    for (Addr b = first; b <= last; b += 64) {
        done = std::max(done, blockAccess(b, true, issue));
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
